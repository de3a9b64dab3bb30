//! The correctness pass: the workload at reduced size on a cluster that
//! stores real bytes, every read compared against the payload written,
//! then a middleware crash, recovery from the cluster alone, and a full
//! re-read through the recovered instance. Every mismatch is a failed
//! operation.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use s4d::cache::S4dCache;
use s4d::mpiio::{AppOp, Cluster, IoObserver, ProcessScript, Rank, Runner};
use s4d::pfs::NetworkConfig;
use s4d::storage::{presets, IoKind, StoreMode};

use crate::workload::{Scale, Source, Workload};

/// What the pass found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verified {
    /// Reads whose bytes were compared (both passes).
    pub reads_checked: u64,
    /// Reads whose bytes (or shape) differed from what was written.
    pub mismatches: u64,
    /// Requests the scripts issued that never completed.
    pub incomplete: u64,
    /// Host time of `S4dCache::recover_from_cluster`.
    pub recover_ms: f64,
    /// Journal and checkpoint records recovery replayed.
    pub recover_records: u64,
}

impl Verified {
    pub fn failed_ops(&self) -> u64 {
        self.mismatches + self.incomplete
    }
}

fn mix(mut x: u64) -> u64 {
    // SplitMix64 finaliser.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The bytes `[offset, offset + len)` of the file `key` as written by
/// run number `generation`: each aligned 8-byte word of the file is a
/// hash of its position.
fn pattern(key: u64, generation: u64, offset: u64, len: u64) -> Vec<u8> {
    let end = offset + len;
    let mut out = Vec::with_capacity(len as usize);
    let mut at = offset;
    while at < end {
        let word = mix(key ^ generation.rotate_left(56) ^ (at >> 3)).to_le_bytes();
        let from = (at & 7) as usize;
        let take = (8 - from).min((end - at) as usize);
        out.extend_from_slice(&word[from..from + take]);
        at += take as u64;
    }
    out
}

fn file_key(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

#[derive(Debug, Default)]
struct Shared {
    /// The read each rank has in flight (a closed loop: at most one).
    in_flight: Vec<Option<(u64, u64, u64)>>,
    checked: u64,
    mismatches: u64,
}

/// Fills every write of `inner` with the payload pattern and tells the
/// checker which bytes each read must return.
struct PayloadScript<S> {
    inner: S,
    rank: usize,
    generation: u64,
    /// File key per handle, in open order.
    handles: Vec<u64>,
    shared: Rc<RefCell<Shared>>,
}

impl<S: ProcessScript> ProcessScript for PayloadScript<S> {
    fn next_op(&mut self) -> Option<AppOp> {
        let mut op = self.inner.next_op()?;
        match &mut op {
            AppOp::Open { name } => self.handles.push(file_key(name)),
            AppOp::Io {
                handle,
                kind,
                offset,
                len,
                data,
            } => {
                let key = self.handles[handle.0];
                match kind {
                    IoKind::Write => *data = Some(pattern(key, self.generation, *offset, *len)),
                    IoKind::Read => {
                        self.shared.borrow_mut().in_flight[self.rank] = Some((key, *offset, *len))
                    }
                }
            }
            _ => {}
        }
        Some(op)
    }
}

struct Checker {
    generation: u64,
    shared: Rc<RefCell<Shared>>,
}

impl IoObserver for Checker {
    fn on_read_data(&mut self, rank: Rank, offset: u64, len: u64, data: Option<&[u8]>) {
        let mut s = self.shared.borrow_mut();
        let expected = s.in_flight[rank.0 as usize].take();
        s.checked += 1;
        let ok = match (expected, data) {
            (Some((key, o, l)), Some(bytes)) => {
                o == offset && l == len && bytes == pattern(key, self.generation, o, l)
            }
            _ => false,
        };
        if !ok {
            s.mismatches += 1;
        }
    }
}

/// Runs `source` with payloads of `generation`, checking every read
/// against it. Returns the stack and the requests that did not complete.
fn checked_run(
    cluster: Cluster,
    mw: S4dCache,
    source: &Source,
    generation: u64,
    shared: &Rc<RefCell<Shared>>,
    seed: u64,
) -> (Cluster, S4dCache, u64) {
    let scripts: Vec<_> = source
        .scripts()
        .into_iter()
        .enumerate()
        .map(|(rank, inner)| PayloadScript {
            inner,
            rank,
            generation,
            handles: Vec::new(),
            shared: shared.clone(),
        })
        .collect();
    shared.borrow_mut().in_flight = vec![None; scripts.len()];
    let mut runner = Runner::new(cluster, mw, scripts, seed);
    runner.add_observer(Box::new(Checker {
        generation,
        shared: shared.clone(),
    }));
    let report = runner.run();
    let completed = report.app_ops(IoKind::Write) + report.app_ops(IoKind::Read);
    let (cluster, mw, _) = runner.into_parts();
    (cluster, mw, source.requests() - completed)
}

/// Verifies workload `name` at `seed`.
pub fn verify(name: &str, seed: u64) -> Verified {
    let w = Workload::build(name, seed, Scale::Verify).expect("a named workload");
    let mut cluster = Cluster::build(
        w.tb.d_servers,
        w.tb.c_servers,
        w.tb.stripe,
        presets::hdd_seagate_st3250(),
        presets::ssd_ocz_revodrive_x2(),
        NetworkConfig::gigabit_ethernet(),
        StoreMode::Functional,
        w.tb.seed,
    );
    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut mw = S4dCache::new(w.config.clone(), w.tb.cost_params());
    let mut incomplete = 0;
    let mut generation = 0;
    for source in w.prefill.iter().chain([&w.source]) {
        generation += 1;
        let left;
        (cluster, mw, left) = checked_run(cluster, mw, source, generation, &shared, seed);
        incomplete += left;
    }

    drop(mw); // the crash: only the cluster survives
    let start = Instant::now();
    let (recovered, report) =
        S4dCache::recover_from_cluster(w.config.clone(), w.tb.cost_params(), &mut cluster);
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;

    let reread = w.source.read_only();
    let (_, _, left) = checked_run(cluster, recovered, &reread, generation, &shared, seed);
    incomplete += left;

    let s = shared.borrow();
    Verified {
        reads_checked: s.checked,
        mismatches: s.mismatches,
        incomplete,
        recover_ms,
        recover_records: report.records_replayed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_depends_on_file_offset_and_generation() {
        let a = pattern(1, 1, 4096, 64);
        assert_eq!(a, pattern(1, 1, 4096, 64));
        assert_ne!(a, pattern(2, 1, 4096, 64));
        assert_ne!(a, pattern(1, 2, 4096, 64));
        assert_ne!(a, pattern(1, 1, 4160, 64));
        // Unaligned slices of one file agree byte for byte.
        assert_eq!(pattern(1, 1, 4099, 10), a[3..13]);
        assert_ne!(file_key("a.dat"), file_key("b.dat"));
    }

    #[test]
    fn checker_counts_a_wrong_byte_as_a_mismatch() {
        let shared = Rc::new(RefCell::new(Shared {
            in_flight: vec![Some((9, 0, 16)), Some((9, 16, 16))],
            ..Shared::default()
        }));
        let mut c = Checker {
            generation: 1,
            shared: shared.clone(),
        };
        c.on_read_data(Rank(0), 0, 16, Some(&pattern(9, 1, 0, 16)));
        let mut bad = pattern(9, 1, 16, 16);
        bad[5] ^= 1;
        c.on_read_data(Rank(1), 16, 16, Some(&bad));
        c.on_read_data(Rank(1), 16, 16, None); // nothing in flight, no bytes
        let s = shared.borrow();
        assert_eq!((s.checked, s.mismatches), (3, 2));
    }

    #[test]
    fn every_workload_verifies_clean_at_small_scale() {
        for (name, _) in crate::workload::WORKLOADS {
            let v = verify(name, 11);
            assert!(v.reads_checked > 0, "{name}");
            assert_eq!(v.failed_ops(), 0, "{name}: {v:?}");
        }
    }
}
