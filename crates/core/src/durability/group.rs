//! Per-shard append queues coalesced into group-committed journal batches.
//!
//! Each metadata shard appends its journal records to its own queue; when
//! any queue reaches the group-commit threshold, [`GroupCommitQueue::drain_all`]
//! coalesces *every* queue — in shard order, preserving per-queue order —
//! into one batch that the durability engine writes as a single journal
//! frame run with one fsync. That is the whole point of group commit: with
//! `N` shards filling at similar rates, one durable write carries roughly
//! `N ×` threshold records, multiplying appends-per-fsync without relaxing
//! durability (records are acked only after the batch lands).
//!
//! With one shard there is exactly one queue, `any_due` degenerates to a
//! plain length check, and `drain_all` returns records in the order they
//! were pushed — byte-identical journal output to the pre-shard engine.
//!
//! Shard tags are never written to disk: a record's owning shard is a pure
//! function of its durable key ([`JournalRecord::d_key`] through
//! [`ShardRouter::shard_of`]), so recovery and requeue re-derive the tag
//! from the record itself and the on-disk frame format is unchanged.

use std::collections::VecDeque;

use crate::journal::JournalRecord;
use crate::shard::{ShardId, ShardRouter};
use crate::DMT_RECORD_BYTES;

/// Per-shard journal append queues feeding one group-committed batch.
#[derive(Debug)]
pub struct GroupCommitQueue {
    queues: Vec<VecDeque<JournalRecord>>,
}

impl GroupCommitQueue {
    /// Creates one queue per shard (a zero count is clamped to 1).
    pub fn new(shards: usize) -> Self {
        GroupCommitQueue {
            queues: (0..shards.max(1)).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Number of per-shard queues.
    pub fn shard_count(&self) -> usize {
        self.queues.len()
    }

    /// The queue owning `shard`. An id minted by a wider router than the
    /// one this queue set was sized for lands in queue 0 rather than
    /// panicking.
    fn queue_mut(&mut self, shard: ShardId) -> Option<&mut VecDeque<JournalRecord>> {
        let idx = shard.index();
        let idx = if idx < self.queues.len() { idx } else { 0 };
        self.queues.get_mut(idx)
    }

    /// Appends a record to its shard's queue.
    pub fn push(&mut self, shard: ShardId, record: JournalRecord) {
        if let Some(q) = self.queue_mut(shard) {
            q.push_back(record);
        }
    }

    /// Appends a run of records to one shard's queue, preserving order.
    pub fn extend(&mut self, shard: ShardId, records: impl IntoIterator<Item = JournalRecord>) {
        for r in records {
            self.push(shard, r);
        }
    }

    /// Total records queued across all shards.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when no shard has queued records.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Length of the longest per-shard queue.
    pub fn max_queue_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).max().unwrap_or(0)
    }

    /// True when any shard's queue has reached the group-commit threshold.
    /// With one shard this is exactly `len() >= threshold` — the pre-shard
    /// batching condition.
    pub fn any_due(&self, threshold: u64) -> bool {
        self.max_queue_len() as u64 >= threshold
    }

    /// Drains every queue into one batch: shard 0's records first, then
    /// shard 1's, and so on, each in append order. Deterministic by
    /// construction — no map iteration anywhere.
    pub fn drain_all(&mut self) -> Vec<JournalRecord> {
        let mut out = Vec::with_capacity(self.len());
        for q in &mut self.queues {
            out.extend(q.drain(..));
        }
        out
    }

    /// Encodes the batch [`GroupCommitQueue::drain_all`] would return,
    /// appended to a caller-owned buffer, and leaves the queues as they
    /// are: a synchronous append [`GroupCommitQueue::clear`]s them once
    /// the bytes landed, and a failed one retries the same batch.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len() * DMT_RECORD_BYTES as usize);
        for r in self.queues.iter().flatten() {
            out.extend_from_slice(&r.encode());
        }
    }

    /// Empties every queue, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
    }

    /// Requeues a failed batch at the *front* of the owning queues so the
    /// retry carries the same records ahead of anything pushed since.
    /// Iterating the batch in reverse and pushing each record to the front
    /// of its shard's queue restores every per-queue prefix in its
    /// original order, so a later [`GroupCommitQueue::drain_all`]
    /// reproduces the failed batch's record order exactly (replay order is
    /// preserved; no hole, no reordering).
    pub fn requeue_front(&mut self, records: &[JournalRecord], router: &ShardRouter) {
        for &r in records.iter().rev() {
            let (f, o) = r.d_key();
            if let Some(q) = self.queue_mut(router.shard_of(f, o)) {
                q.push_front(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_pfs::FileId;

    /// The ids of a `count`-shard router, in index order — the only way to
    /// name a queue.
    fn ids(count: u32) -> Vec<ShardId> {
        ShardRouter::new(count, 1).all_shards().collect()
    }

    /// Per-shard queue lengths, in shard order.
    fn lens(q: &GroupCommitQueue) -> Vec<usize> {
        q.queues.iter().map(VecDeque::len).collect()
    }

    fn rec(file: u64, offset: u64) -> JournalRecord {
        JournalRecord::SetClean {
            d_file: FileId(file),
            d_offset: offset,
        }
    }

    #[test]
    fn single_shard_is_a_plain_fifo() {
        let s = ids(1);
        let mut q = GroupCommitQueue::new(1);
        assert!(q.is_empty());
        q.push(s[0], rec(1, 10));
        q.push(s[0], rec(1, 20));
        q.push(s[0], rec(2, 30));
        assert_eq!(q.len(), 3);
        assert!(!q.any_due(4));
        assert!(q.any_due(3));
        assert_eq!(q.drain_all(), vec![rec(1, 10), rec(1, 20), rec(2, 30)]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_is_shard_order_then_append_order() {
        let s = ids(3);
        let mut q = GroupCommitQueue::new(3);
        q.push(s[2], rec(2, 1));
        q.push(s[0], rec(0, 1));
        q.push(s[2], rec(2, 2));
        q.push(s[1], rec(1, 1));
        assert_eq!(lens(&q), vec![1, 1, 2]);
        assert_eq!(q.max_queue_len(), 2);
        assert_eq!(
            q.drain_all(),
            vec![rec(0, 1), rec(1, 1), rec(2, 1), rec(2, 2)]
        );
    }

    #[test]
    fn any_due_fires_on_the_longest_queue() {
        let s = ids(4);
        let mut q = GroupCommitQueue::new(4);
        q.extend(s[3], [rec(3, 1), rec(3, 2), rec(3, 3)]);
        q.push(s[0], rec(0, 1));
        assert!(!q.any_due(4));
        q.push(s[3], rec(3, 4));
        assert!(q.any_due(4));
    }

    #[test]
    fn requeue_then_drain_reproduces_the_failed_batch() {
        // Router: stripe 10, 2 shards — file 0 offsets 0..10 -> shard 0,
        // 10..20 -> shard 1.
        let router = ShardRouter::new(2, 10);
        let s = ids(2);
        let mut q = GroupCommitQueue::new(2);
        q.push(s[0], rec(0, 0));
        q.push(s[1], rec(0, 10));
        q.push(s[0], rec(0, 5));
        q.push(s[1], rec(0, 15));
        let batch = q.drain_all();
        assert_eq!(batch, vec![rec(0, 0), rec(0, 5), rec(0, 10), rec(0, 15)]);
        // New records arrive while the failed batch awaits its retry.
        q.push(s[0], rec(0, 7));
        q.requeue_front(&batch, &router);
        let retry = q.drain_all();
        assert_eq!(&retry[..2], &batch[..2]);
        assert_eq!(retry[2], rec(0, 7), "newer record follows the requeue");
        assert_eq!(&retry[3..], &batch[2..]);
    }

    #[test]
    fn router_minted_ids_reach_their_own_queue() {
        // A raw index is no longer constructible: every id comes from a
        // router, and each lands in the queue at its own index.
        let router = ShardRouter::new(4, 10);
        let mut q = GroupCommitQueue::new(router.count());
        for tile in 0..4 {
            q.push(router.shard_of(FileId(0), tile * 10), rec(0, tile * 10));
        }
        assert_eq!(lens(&q), vec![1, 1, 1, 1]);
        // An id from a wider router than the queue set falls back to
        // queue 0 instead of panicking.
        let mut narrow = GroupCommitQueue::new(2);
        narrow.push(router.shard_of(FileId(0), 30), rec(0, 30));
        assert_eq!(lens(&narrow), vec![1, 0]);
    }
}
