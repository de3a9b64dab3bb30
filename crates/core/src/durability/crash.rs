//! Deterministic crash-point injection for the middleware itself.
//!
//! PR 1 hardened the cache against *server* failures; this module is the
//! instrument for failing the **middleware**: a [`CrashFuse`] carries a
//! byte budget, and every durable effect the middleware produces — cache
//! data writes, journal appends, checkpoint installs, eviction discards,
//! flush and fetch copies — asks the fuse for permission *per byte*. When
//! the budget runs out mid-effect, only the affordable prefix is applied
//! and the fuse is dead: every later durable effect is suppressed
//! entirely. That models a power failure at an arbitrary byte boundary,
//! which is exactly the fault the paper's synchronous journaling (§III.D)
//! claims to survive.
//!
//! The torture harness first runs a workload with an [unlimited]
//! fuse, which records every durable step `(site, offset, len)`. The
//! recorded trace then defines the crash matrix: re-running the same
//! deterministic workload with the budget pointed at each step boundary
//! (and mid-step) crashes the middleware at every distinct site. Because
//! the workload and the cluster are deterministic, each budget reproduces
//! the same crash exactly.
//!
//! Only durable effects consult the fuse. In-memory bookkeeping continues
//! after death — the crashed middleware instance is discarded anyway, and
//! recovery reads nothing but the cluster's persisted bytes, so letting
//! the doomed instance finish its turn keeps the injection surface small
//! without weakening the model.
//!
//! The middleware charges its own effects (sync appends, discards, copies,
//! checkpoints) inside the durability engine. The two sites a *plan*
//! carries — [`CrashSite::DataWrite`] and [`CrashSite::JournalWrite`] —
//! land when whoever executes the plan applies its ops, so a harness that
//! stands in for the timed runner charges them through
//! [`exec_plan_fused`], the one place that half of the contract lives.
//!
//! [unlimited]: CrashFuse::unlimited

use std::cell::RefCell;
use std::rc::Rc;

use s4d_mpiio::{Cluster, Plan, PlannedIo};
use s4d_pfs::PfsError;
use s4d_storage::IoKind;

/// Which durable effect a fuse charge belongs to.
///
/// Each variant is one crash *site* in the torture matrix: a place where
/// persisted state is mutated and a power failure would leave a torn or
/// missing effect for recovery to mend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashSite {
    /// Application payload bytes written to cache or original files as
    /// part of a planned request.
    DataWrite,
    /// A group-committed journal append carried by a planned request
    /// (crashing here tears a journal frame).
    JournalWrite,
    /// A synchronous journal append outside any plan (eviction, flush
    /// intent, end-of-operation drain).
    SyncAppend,
    /// Discarding an evicted extent's cache bytes.
    EvictDiscard,
    /// Copying a flushed dirty extent from CServers to DServers.
    FlushCopy,
    /// Filling a fetched range from DServers into CServers.
    FetchFill,
    /// Writing a checkpoint snapshot into its slot file.
    CheckpointWrite,
    /// Truncating the journal after a checkpoint was installed.
    JournalTruncate,
    /// *During recovery*: truncating the undecodable journal suffix.
    RecoveryTruncate,
    /// *During recovery*: discarding a dropped (under-covered) extent's
    /// cache bytes.
    RecoveryDrop,
    /// *During recovery*: discarding orphaned cache bytes in the sweep.
    RecoverySweep,
}

/// One recorded durable step: site, cumulative byte offset at which the
/// step started, and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashStep {
    /// The durable effect charged.
    pub site: CrashSite,
    /// Total bytes consumed by earlier steps when this one began.
    pub start: u64,
    /// Bytes this step charged.
    pub len: u64,
}

/// A byte-budgeted crash injector (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct CrashFuse {
    budget: Option<u64>,
    consumed: u64,
    dead: bool,
    steps: Vec<CrashStep>,
}

impl CrashFuse {
    /// A fuse that never blows; it records every durable step so a later
    /// run can target each one.
    pub fn unlimited() -> Self {
        CrashFuse::default()
    }

    /// A fuse that allows exactly `budget` durable bytes, then crashes.
    pub fn armed(budget: u64) -> Self {
        CrashFuse {
            budget: Some(budget),
            ..CrashFuse::default()
        }
    }

    /// Convenience: a shareable handle, as the middleware holds it.
    pub fn shared(self) -> Rc<RefCell<CrashFuse>> {
        Rc::new(RefCell::new(self))
    }

    /// Charges `len` bytes at `site`, returning how many may actually be
    /// applied. Anything short of `len` means the fuse died mid-step: the
    /// caller must apply exactly the returned prefix and nothing else.
    /// Once dead, every charge returns zero.
    pub fn consume(&mut self, site: CrashSite, len: u64) -> u64 {
        if self.dead {
            return 0;
        }
        self.steps.push(CrashStep {
            site,
            start: self.consumed,
            len,
        });
        let allowed = match self.budget {
            None => len,
            Some(b) => len.min(b.saturating_sub(self.consumed)),
        };
        self.consumed += allowed;
        if allowed < len {
            self.dead = true;
        }
        allowed
    }

    /// True once a charge was cut short: the simulated machine is off.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Total durable bytes allowed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The recorded durable steps, in execution order.
    pub fn steps(&self) -> &[CrashStep] {
        &self.steps
    }
}

/// Executes `plan` against functional stores the way the timed runner's
/// completions would, routing the plan-carried durable effects through
/// `fuse` (`None`: every op lands in full).
///
/// Ops run in phase order, `ops` then `then`. A write carrying a payload
/// charges [`CrashSite::DataWrite`] when it has an `app_offset` and
/// [`CrashSite::JournalWrite`] when it does not (a journal frame), and
/// only the prefix the fuse affords is applied; `applied(op, prefix)`
/// reports each write that reached the stores. Payload-less writes are
/// flush/fetch copies the middleware moves itself at plan completion and
/// are skipped. Reads are performed (a media error must surface), and
/// those with an `app_offset` are assembled into `read_into`'s buffer,
/// whose first byte is the application offset beside it.
///
/// Returns `Ok(true)` when every op ran, `Ok(false)` when the fuse was
/// found dead or tore a write — the remaining ops never ran and the
/// caller must not complete the plan.
///
/// # Errors
///
/// The first store error ends the plan and is returned with its op.
#[expect(clippy::disallowed_methods, reason = "the fuse is charged just above")]
pub fn exec_plan_fused<'p>(
    cluster: &mut Cluster,
    fuse: Option<&RefCell<CrashFuse>>,
    plan: &'p Plan,
    mut read_into: Option<(&mut [u8], u64)>,
    mut applied: impl FnMut(&PlannedIo, u64),
) -> Result<bool, (&'p PlannedIo, PfsError)> {
    for op in plan.ops.iter().chain(&plan.then) {
        if fuse.is_some_and(|f| f.borrow().is_dead()) {
            return Ok(false);
        }
        match (op.kind, &op.data) {
            (IoKind::Write, None) => {}
            (IoKind::Write, Some(data)) => {
                let site = if op.app_offset.is_some() {
                    CrashSite::DataWrite
                } else {
                    CrashSite::JournalWrite
                };
                let allowed = fuse.map_or(op.len, |f| f.borrow_mut().consume(site, op.len));
                cluster
                    .pfs_mut(op.tier)
                    .apply_bytes(op.file, op.offset, allowed, Some(data))
                    .map_err(|e| (op, e))?;
                applied(op, allowed);
                if allowed < op.len {
                    return Ok(false);
                }
            }
            (IoKind::Read, _) => {
                let bytes = cluster
                    .pfs(op.tier)
                    .read_bytes(op.file, op.offset, op.len)
                    .map_err(|e| (op, e))?;
                if let (Some(bytes), Some((buf, base)), Some(app)) =
                    (bytes, &mut read_into, op.app_offset.get())
                {
                    let dst = app
                        .checked_sub(*base)
                        .and_then(|at| buf.get_mut(at as usize..at as usize + bytes.len()));
                    if let Some(dst) = dst {
                        dst.copy_from_slice(&bytes);
                    }
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_records_without_dying() {
        let mut f = CrashFuse::unlimited();
        assert_eq!(f.consume(CrashSite::DataWrite, 100), 100);
        assert_eq!(f.consume(CrashSite::JournalWrite, 28), 28);
        assert!(!f.is_dead());
        assert_eq!(f.consumed(), 128);
        assert_eq!(
            f.steps(),
            &[
                CrashStep {
                    site: CrashSite::DataWrite,
                    start: 0,
                    len: 100
                },
                CrashStep {
                    site: CrashSite::JournalWrite,
                    start: 100,
                    len: 28
                },
            ]
        );
    }

    #[test]
    fn armed_fuse_tears_the_step_then_blocks_everything() {
        let mut f = CrashFuse::armed(150);
        assert_eq!(f.consume(CrashSite::DataWrite, 100), 100);
        // Mid-step death: only 50 of 80 bytes land.
        assert_eq!(f.consume(CrashSite::FlushCopy, 80), 50);
        assert!(f.is_dead());
        // Every later effect is suppressed entirely, and not recorded.
        assert_eq!(f.consume(CrashSite::SyncAppend, 28), 0);
        assert_eq!(f.steps().len(), 2);
        assert_eq!(f.consumed(), 150);
    }

    #[test]
    fn zero_budget_dies_on_first_nonempty_charge() {
        let mut f = CrashFuse::armed(0);
        assert_eq!(f.consume(CrashSite::EvictDiscard, 0), 0);
        assert!(!f.is_dead(), "an empty step cannot blow the fuse");
        assert_eq!(f.consume(CrashSite::EvictDiscard, 1), 0);
        assert!(f.is_dead());
    }

    #[test]
    fn exact_budget_survives() {
        let mut f = CrashFuse::armed(28);
        assert_eq!(f.consume(CrashSite::CheckpointWrite, 28), 28);
        assert!(!f.is_dead(), "a fully-affordable step is not a crash");
    }
}
