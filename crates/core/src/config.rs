//! S4D-Cache configuration.

use s4d_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// How the Data Identifier classifies requests as performance-critical.
///
/// The paper's policy is [`AdmissionPolicy::Benefit`]; the others exist for
/// the ablation study (what do you lose without the cost model?).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// The paper's policy: critical iff the cost-model benefit `B > 0`.
    #[default]
    Benefit,
    /// Admit everything (a conventional non-selective cache).
    AlwaysAdmit,
    /// Admit nothing: every lookup and cost evaluation runs but nothing
    /// is redirected, so stock behaviour plus S4D's bookkeeping overhead
    /// (the Fig. 11 probe).
    NeverAdmit,
    /// Admit requests strictly smaller than the threshold, ignoring
    /// randomness (a naive size-based heuristic).
    SizeBelow(u64),
}

/// Tunables of the S4D-Cache middleware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct S4dConfig {
    /// Total CServer space the cache may occupy, bytes (the paper sets it
    /// to 20 % of the application's data size in §V.A).
    pub cache_capacity: u64,
    /// Rebuilder wake period (§III.F "triggered periodically").
    pub rebuild_period: SimDuration,
    /// Maximum dirty extents flushed per wake. `0` is CARL-style
    /// persistent placement (the paper's predecessor system, §II.C):
    /// the Rebuilder never flushes, so dirty CServer space is never
    /// reclaimed and, once full, further critical data stays on the
    /// DServers.
    pub max_flush_per_wake: usize,
    /// Maximum entries the Critical Data Table retains (oldest evicted).
    pub cdt_max_entries: usize,
    /// Admission policy (the paper's is the default).
    pub admission: AdmissionPolicy,
    /// DMT journal group-commit size: mutation records accumulate and are
    /// written to the CServer journal file once this many are pending (the
    /// paper's Berkeley DB layer provides the same effect through its
    /// write-ahead log's group commit). `1` journals synchronously with
    /// every mutating request.
    pub journal_batch_records: u64,
    /// When true, critical read misses are fetched *eagerly* as part of the
    /// request (ablation); the paper's design is lazy (`false`): the miss is
    /// only marked in the CDT and the Rebuilder fetches later, keeping read
    /// response time low (§III.E).
    pub eager_read_fetch: bool,
    /// Total attempts per sub-request (first try included) before the
    /// middleware gives up and the request is re-planned. Retries back
    /// off exponentially from 500 µs, capped at 50 ms.
    pub retry_max_attempts: u32,
    /// Consecutive failures that quarantine a CServer.
    pub quarantine_after: u32,
    /// How long a quarantined CServer receives no new admissions before
    /// probation re-admits it.
    pub quarantine_duration: SimDuration,
    /// Journal records (since the last checkpoint) that trigger a new DMT
    /// checkpoint. Compaction keeps crash recovery proportional to live
    /// extents plus the journal tail instead of all mutations ever made.
    /// Records are fixed [`crate::DMT_RECORD_BYTES`]-byte frames, so this
    /// count also bounds the journal bytes since the last checkpoint.
    pub checkpoint_after_records: u64,
    /// Cached bytes the background scrubber verifies per Rebuilder wake.
    /// `0` disables scrubbing. The scrubber recomputes each sealed
    /// extent's checksum, repairs corrupted *clean* extents from the
    /// DServers, and drops (and reports) corrupted *dirty* extents rather
    /// than ever serving bad bytes.
    pub scrub_bytes_per_wake: u64,
    /// Verify sealed extents' checksums on the read path, before serving
    /// cached bytes (stronger than background scrubbing, at read cost).
    pub verify_on_read: bool,
    /// Deadline budget as a multiple of the cost model's predicted
    /// access time (`max(T_D, T_C)` of the request, Eqs. 1/7): a
    /// dispatched sub-request still outstanding after
    /// `factor × predicted` is reported to the middleware as a
    /// straggler. The budget is floored at 2 ms, so tiny requests (whose
    /// predicted time is microseconds) are not declared stragglers by
    /// scheduling noise. Must sit well above 1 — the prediction excludes
    /// queueing. `0.0` (the default) disables deadlines entirely.
    ///
    /// Arming deadlines also arms hedging: a straggling *clean* cached
    /// read is abandoned and re-read from the DServers (OPFS holds the
    /// same bytes), first responder wins. Dirty reads always wait — the
    /// cache holds the only copy.
    pub deadline_factor: f64,
    /// Number of deterministic metadata-plane shards. Each shard owns a
    /// disjoint slice of the DMT interval map, the CDT, and the space
    /// accounting, keyed by `(file, offset / shard_stripe) % shard_count`
    /// — so independent requests proceed through the
    /// identify→redirect→admit pipeline without crossing a shared
    /// serialization point. `1` (the default) is byte- and
    /// replay-identical to the pre-shard single-writer plane.
    pub shard_count: u32,
    /// Stripe width (bytes) of the shard routing function: a file is cut
    /// into `shard_stripe`-sized tiles and consecutive tiles land on
    /// consecutive shards. Irrelevant at `shard_count == 1`.
    pub shard_stripe: u64,
}

impl S4dConfig {
    /// Creates a configuration with the paper's defaults and the given
    /// cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity == 0`.
    pub fn new(cache_capacity: u64) -> Self {
        assert!(cache_capacity > 0, "cache capacity must be positive");
        S4dConfig {
            cache_capacity,
            rebuild_period: SimDuration::from_secs(1),
            max_flush_per_wake: 16384,
            cdt_max_entries: 1 << 20,
            admission: AdmissionPolicy::Benefit,
            journal_batch_records: 64,
            eager_read_fetch: false,
            retry_max_attempts: 4,
            quarantine_after: 3,
            quarantine_duration: SimDuration::from_secs(10),
            checkpoint_after_records: 8192,
            scrub_bytes_per_wake: 0,
            verify_on_read: false,
            deadline_factor: 0.0,
            shard_count: 1,
            shard_stripe: 64 * 1024,
        }
    }

    /// Enables deadline budgets, `factor × predicted` access time per
    /// request, and with them hedged reads for straggling clean cached
    /// reads (see [`S4dConfig::deadline_factor`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_deadlines(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "deadline factor must be positive"
        );
        self.deadline_factor = factor;
        self
    }

    /// Sets the checkpoint trigger: a new DMT snapshot is installed once
    /// `records` journal records have accumulated since the previous one.
    ///
    /// # Panics
    ///
    /// Panics if `records == 0`.
    pub fn with_checkpoint_after(mut self, records: u64) -> Self {
        assert!(records > 0, "checkpoint record threshold must be positive");
        self.checkpoint_after_records = records;
        self
    }

    /// Sets the background scrub budget per Rebuilder wake (`0` disables).
    pub fn with_scrub(mut self, bytes_per_wake: u64) -> Self {
        self.scrub_bytes_per_wake = bytes_per_wake;
        self
    }

    /// Enables checksum verification on the read path.
    pub fn with_verify_on_read(mut self, on: bool) -> Self {
        self.verify_on_read = on;
        self
    }

    /// Sets the total attempts per sub-request before a transient error
    /// gives up and re-plans.
    ///
    /// # Panics
    ///
    /// Panics if `attempts == 0`.
    pub fn with_retry_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts > 0, "retry attempts must be positive");
        self.retry_max_attempts = attempts;
        self
    }

    /// Sets the quarantine policy: `after` consecutive failures put a
    /// CServer out of admission for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `after == 0` or `duration` is zero.
    pub fn with_quarantine(mut self, after: u32, duration: SimDuration) -> Self {
        assert!(after > 0, "quarantine threshold must be positive");
        assert!(!duration.is_zero(), "quarantine duration must be positive");
        self.quarantine_after = after;
        self.quarantine_duration = duration;
        self
    }

    /// Sets the journal group-commit size.
    ///
    /// # Panics
    ///
    /// Panics if `records == 0`.
    pub fn with_journal_batch(mut self, records: u64) -> Self {
        assert!(records > 0, "journal batch must be positive");
        self.journal_batch_records = records;
        self
    }

    /// Sets the admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Sets the Rebuilder period.
    pub fn with_rebuild_period(mut self, period: SimDuration) -> Self {
        self.rebuild_period = period;
        self
    }

    /// Caps how many dirty extents one Rebuilder wake may flush. `0` is
    /// CARL placement: the Rebuilder flushes nothing, so dirty data stays
    /// in the cache until evicted or lost (crash and scrub tests rely on
    /// it).
    pub fn with_max_flush_per_wake(mut self, extents: usize) -> Self {
        self.max_flush_per_wake = extents;
        self
    }

    /// Enables eager read fetching (ablation).
    pub fn with_eager_read_fetch(mut self, on: bool) -> Self {
        self.eager_read_fetch = on;
        self
    }

    /// Sets the metadata-plane shard count (`1` = the single-writer
    /// reference plane).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards > 0, "shard count must be positive");
        self.shard_count = shards;
        self
    }

    /// Sets the shard routing stripe width in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn with_shard_stripe(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "shard stripe must be positive");
        self.shard_stripe = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = S4dConfig::new(1 << 30);
        assert_eq!(c.admission, AdmissionPolicy::Benefit);
        assert!(!c.eager_read_fetch);
        assert_eq!(c.rebuild_period, SimDuration::from_secs(1));
        assert_eq!(c.cache_capacity, 1 << 30);
    }

    #[test]
    fn journal_batch_builder() {
        let c = S4dConfig::new(1).with_journal_batch(1);
        assert_eq!(c.journal_batch_records, 1);
        assert_eq!(S4dConfig::new(1).journal_batch_records, 64);
    }

    #[test]
    #[should_panic(expected = "journal batch must be positive")]
    fn rejects_zero_journal_batch() {
        S4dConfig::new(1).with_journal_batch(0);
    }

    #[test]
    fn builders() {
        let c = S4dConfig::new(1)
            .with_admission(AdmissionPolicy::AlwaysAdmit)
            .with_rebuild_period(SimDuration::from_millis(100))
            .with_eager_read_fetch(true);
        assert_eq!(c.admission, AdmissionPolicy::AlwaysAdmit);
        assert!(c.eager_read_fetch);
        assert_eq!(c.rebuild_period, SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "cache capacity must be positive")]
    fn rejects_zero_capacity() {
        S4dConfig::new(0);
    }

    #[test]
    fn failure_domain_builders() {
        let c = S4dConfig::new(1)
            .with_retry_attempts(6)
            .with_quarantine(2, SimDuration::from_secs(30));
        assert_eq!(c.retry_max_attempts, 6);
        assert_eq!(c.quarantine_after, 2);
        assert_eq!(c.quarantine_duration, SimDuration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "retry attempts")]
    fn rejects_zero_attempts() {
        S4dConfig::new(1).with_retry_attempts(0);
    }

    #[test]
    #[should_panic(expected = "quarantine threshold")]
    fn rejects_zero_quarantine_threshold() {
        S4dConfig::new(1).with_quarantine(0, SimDuration::from_secs(1));
    }

    #[test]
    fn durability_builders() {
        let c = S4dConfig::new(1)
            .with_checkpoint_after(100)
            .with_scrub(64 * 1024)
            .with_verify_on_read(true);
        assert_eq!(c.checkpoint_after_records, 100);
        assert_eq!(c.scrub_bytes_per_wake, 64 * 1024);
        assert!(c.verify_on_read);
        let d = S4dConfig::new(1);
        assert_eq!(d.checkpoint_after_records, 8192);
        assert_eq!(d.scrub_bytes_per_wake, 0, "scrubbing is opt-in");
        assert!(!d.verify_on_read);
    }

    #[test]
    #[should_panic(expected = "checkpoint record threshold")]
    fn rejects_zero_checkpoint_records() {
        S4dConfig::new(1).with_checkpoint_after(0);
    }

    #[test]
    fn gray_failure_knobs_default_off() {
        let c = S4dConfig::new(1);
        assert_eq!(c.deadline_factor, 0.0, "deadlines are opt-in");
        assert_eq!(c.with_deadlines(8.0).deadline_factor, 8.0);
    }

    #[test]
    #[should_panic(expected = "deadline factor")]
    fn rejects_non_positive_deadline_factor() {
        S4dConfig::new(1).with_deadlines(0.0);
    }

    #[test]
    fn shard_knobs_default_to_reference_plane() {
        let c = S4dConfig::new(1);
        assert_eq!(c.shard_count, 1, "default must stay replay-identical");
        assert_eq!(c.shard_stripe, 64 * 1024);
        let c = c.with_shards(16).with_shard_stripe(128 * 1024);
        assert_eq!(c.shard_count, 16);
        assert_eq!(c.shard_stripe, 128 * 1024);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn rejects_zero_shards() {
        S4dConfig::new(1).with_shards(0);
    }

    #[test]
    #[should_panic(expected = "shard stripe must be positive")]
    fn rejects_zero_shard_stripe() {
        S4dConfig::new(1).with_shard_stripe(0);
    }
}
