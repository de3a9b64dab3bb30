//! Layers the middleware seam does not reach, measured by replay: the
//! request stream a traced run captured is fed to each layer's public
//! functions in one batch between a single pair of clock reads, so the
//! figure is ns per operation without per-call timer cost.
//!
//! A replay prices a layer's function on this workload's requests; it
//! says nothing about how often the run called it (the `calls` and
//! counter metrics do).

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use s4d::cache::journal::{decode_prefix, encode_batch};
use s4d::cache::{Cdt, Dmt, GroupCommitQueue, JournalRecord, ShardRouter, SpaceManager};
use s4d::cost::BenefitEvaluator;
use s4d::pfs::{FileId, StripeLayout};
use s4d::sim::{EventQueue, SimRng, SimTime};
use s4d::storage::{presets, DeviceModel, IoKind};

use crate::alloc;
use crate::timed::ReqRecord;
use crate::workload::Workload;

/// Host nanoseconds per operation (and allocation calls per operation
/// where a layer's public function returns a fresh `Vec`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    pub cost_evaluate_ns: f64,
    pub cdt_insert_ns: f64,
    pub cdt_contains_ns: f64,
    pub cdt_entries: u64,
    pub dmt_insert_ns: f64,
    pub dmt_view_ns: f64,
    pub space_alloc_release_ns: f64,
    pub shard_segments_ns: f64,
    pub shard_segments_allocs: f64,
    pub journal_encode_ns: f64,
    pub journal_group_drain_ns: f64,
    pub journal_decode_ns: f64,
    pub pfs_split_ns: f64,
    pub pfs_split_allocs: f64,
    pub hdd_service_time_ns: f64,
    pub ssd_service_time_ns: f64,
    pub queue_ns_per_event: f64,
    pub next_op_ns: f64,
}

/// Times `f` once and divides by `ops`.
fn per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Allocation calls `f` makes, divided by `ops` (a second, untimed pass).
fn allocs_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    alloc::start();
    f();
    alloc::stop();
    alloc::snapshot().allocs as f64 / ops.max(1) as f64
}

/// Replays `reqs` (the stream one run of `w` produced) and a queue of
/// `events` events through every layer below or beside the seam.
pub fn replay(w: &Workload, reqs: &[ReqRecord], events: u64) -> Replay {
    let n = reqs.len();
    let mut out = Replay::default();

    // cost: the Identifier's price of every request.
    let mut evaluator: BenefitEvaluator<(u32, u64)> = BenefitEvaluator::new(w.tb.cost_params());
    let mut critical = Vec::with_capacity(n);
    out.cost_evaluate_ns = per_op(n, || {
        for r in reqs {
            let b = evaluator.evaluate((r.rank, r.file.0), r.offset, r.len);
            critical.push(b.is_critical());
        }
    });

    // core.cdt: the critical ones go into a fresh table, then every
    // request is looked up.
    let hot: Vec<&ReqRecord> = reqs
        .iter()
        .zip(&critical)
        .filter_map(|(r, &c)| c.then_some(r))
        .collect();
    let mut cdt = Cdt::new(w.config.cdt_max_entries);
    out.cdt_insert_ns = per_op(hot.len(), || {
        for r in &hot {
            cdt.insert(r.file, r.offset, r.len);
        }
    });
    out.cdt_contains_ns = per_op(n, || {
        for r in reqs {
            black_box(cdt.contains(r.file, r.offset, r.len));
        }
    });
    out.cdt_entries = cdt.len() as u64;

    // core.dmt: first-touch writes are mapped into a fresh table (the
    // workloads' requests are aligned and equal-sized per file, so
    // distinct offsets never overlap), then every request is viewed.
    let cache_file = FileId(1);
    let mut seen = HashSet::new();
    let first_writes: Vec<&ReqRecord> = reqs
        .iter()
        .filter(|r| r.kind == IoKind::Write && seen.insert((r.file, r.offset)))
        .collect();
    let mut dmt = Dmt::new();
    out.dmt_insert_ns = per_op(first_writes.len(), || {
        let mut c_offset = 0;
        for r in &first_writes {
            dmt.insert(r.file, r.offset, r.len, cache_file, c_offset, true);
            c_offset += r.len;
        }
    });
    out.dmt_view_ns = per_op(n, || {
        for r in reqs {
            black_box(dmt.view(r.file, r.offset, r.len));
        }
    });
    let records = dmt.take_pending_journal();

    // core.space: allocate for every write, releasing oldest-first when
    // the configured capacity is full.
    let writes: Vec<&ReqRecord> = reqs.iter().filter(|r| r.kind == IoKind::Write).collect();
    let mut space = SpaceManager::new(w.config.cache_capacity);
    let mut held: VecDeque<(u64, u64)> = VecDeque::new();
    out.space_alloc_release_ns = per_op(writes.len(), || {
        for r in &writes {
            let pieces = loop {
                match space.alloc(cache_file, r.len) {
                    Some(p) => break p,
                    None => match held.pop_front() {
                        Some((off, len)) => space.release(cache_file, off, len),
                        None => break Vec::new(), // request larger than the cache
                    },
                }
            };
            held.extend(pieces.iter().map(|p| (p.c_offset, p.len)));
        }
    });

    // core.shard: routing at the workload's own shard count.
    let router = ShardRouter::new(w.config.shard_count, w.config.shard_stripe);
    let route = || {
        for r in reqs {
            black_box(router.segments(r.file, r.offset, r.len));
        }
    };
    out.shard_segments_ns = per_op(n, route);
    out.shard_segments_allocs = allocs_per_op(n, route);

    // core.durability: the Insert records the DMT replay produced, through
    // the record codec and the group-commit queue at the configured batch.
    let m = records.len();
    out.journal_encode_ns = per_op(m, || {
        for r in &records {
            black_box(r.encode());
        }
    });
    out.journal_group_drain_ns = per_op(m, || {
        let mut queue = GroupCommitQueue::new(router.count());
        let flush = |q: &mut GroupCommitQueue| {
            black_box(encode_batch(&q.drain_all()));
        };
        for r in &records {
            let (file, offset) = JournalRecord::d_key(r);
            queue.push(router.shard_of(file, offset), *r);
            if queue.any_due(w.config.journal_batch_records) {
                flush(&mut queue);
            }
        }
        flush(&mut queue);
    });
    let bytes = encode_batch(&records);
    out.journal_decode_ns = per_op(m, || {
        black_box(decode_prefix(&bytes));
    });

    // pfs: request splitting over the DServer layout.
    let d_layout = StripeLayout::new(w.tb.stripe, w.tb.d_servers);
    let split = || {
        for r in reqs {
            black_box(d_layout.split(r.offset, r.len));
        }
    };
    out.pfs_split_ns = per_op(n, split);
    out.pfs_split_allocs = allocs_per_op(n, split);

    // storage: each request's first sub-request on either device model.
    let c_layout = StripeLayout::new(w.tb.stripe, w.tb.c_servers);
    let first_sub = |layout: &StripeLayout| -> Vec<(IoKind, u64, u64)> {
        reqs.iter()
            .filter_map(|r| {
                let sub = layout.split(r.offset, r.len).into_iter().next()?;
                Some((r.kind, sub.local_offset, sub.len))
            })
            .collect()
    };
    let device_ns = |mut device: Box<dyn DeviceModel>, subs: Vec<(IoKind, u64, u64)>| {
        let mut rng = SimRng::seed(w.tb.seed);
        per_op(subs.len(), || {
            for &(kind, lba, len) in &subs {
                black_box(device.service_time(kind, lba, len, &mut rng));
            }
        })
    };
    out.hdd_service_time_ns = device_ns(
        Box::new(presets::hdd_seagate_st3250().build()),
        first_sub(&d_layout),
    );
    out.ssd_service_time_ns = device_ns(
        Box::new(presets::ssd_ocz_revodrive_x2().build()),
        first_sub(&c_layout),
    );

    // sim: one pop and one push per event, at a closed loop's depth
    // (32 processes plus 12 servers in flight).
    out.queue_ns_per_event = per_op(events as usize, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seed(w.tb.seed);
        for i in 0..44 {
            q.push(SimTime::from_nanos(rng.below(1_000_000)), i);
        }
        for _ in 0..events {
            if let Some((at, ev)) = q.pop() {
                q.push(
                    at + s4d::sim::SimDuration::from_nanos(1 + rng.below(1_000_000)),
                    ev,
                );
            }
        }
        black_box(q.len());
    });

    // workloads: draining the scripts standalone.
    let mut scripts = w.source.scripts();
    let mut ops = 0usize;
    let start = Instant::now();
    for s in &mut scripts {
        while let Some(op) = s.next_op() {
            black_box(op);
            ops += 1;
        }
    }
    out.next_op_ns = start.elapsed().as_nanos() as f64 / ops.max(1) as f64;

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_a_small_stream_through_every_layer() {
        let w = Workload::build("campaign-mix", 7, crate::workload::Scale::Verify).expect("builds");
        let mut reqs = Vec::new();
        for kind in [IoKind::Write, IoKind::Read] {
            for k in 0..256u64 {
                reqs.push(ReqRecord {
                    rank: (k % 4) as u32,
                    file: FileId(0),
                    kind,
                    offset: (k * 7 % 256) * 16 * 1024,
                    len: 16 * 1024,
                });
            }
        }
        let r = replay(&w, &reqs, 1000);
        assert!(
            (1..=256).contains(&r.cdt_entries),
            "one entry per distinct range"
        );
        for ns in [
            r.cost_evaluate_ns,
            r.cdt_insert_ns,
            r.cdt_contains_ns,
            r.dmt_insert_ns,
            r.dmt_view_ns,
            r.space_alloc_release_ns,
            r.shard_segments_ns,
            r.journal_encode_ns,
            r.journal_group_drain_ns,
            r.journal_decode_ns,
            r.pfs_split_ns,
            r.hdd_service_time_ns,
            r.ssd_service_time_ns,
            r.queue_ns_per_event,
            r.next_op_ns,
        ] {
            assert!(ns > 0.0 && ns.is_finite());
        }
        assert_eq!(
            r.pfs_split_allocs, 1.0,
            "one Vec per split of a 16 KiB request"
        );
        assert_eq!(r.shard_segments_allocs, 1.0);
    }
}
