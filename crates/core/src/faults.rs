//! Fault handling: retry/backoff directives and CServer crash
//! invalidation.
//!
//! The decision body behind `Middleware::on_io_error` lives here, next to
//! [`S4dCache::handle_crash`] — the one failure path that mutates cache
//! metadata (and therefore hands the freed space to the durability
//! engine, which journals the Removes before releasing it).

use s4d_mpiio::{Cluster, ErrorDirective, SubIoFailure, Tier};
use s4d_pfs::{FileId, IoFault};
use s4d_sim::{SimDuration, SimTime};

use crate::layer::S4dCache;

/// First retry backoff after a transient CServer error; doubles per
/// attempt up to [`RETRY_MAX_DELAY`].
const RETRY_BASE_DELAY: SimDuration = SimDuration::from_micros(500);
/// Backoff cap for transient-error retries.
const RETRY_MAX_DELAY: SimDuration = SimDuration::from_millis(50);

impl S4dCache {
    /// Capped exponential backoff for attempt number `attempts` (≥ 1).
    pub(crate) fn retry_backoff(&self, attempts: u32) -> SimDuration {
        let exp = attempts.saturating_sub(1).min(20);
        let delay = RETRY_BASE_DELAY.as_secs_f64() * (1u64 << exp) as f64;
        SimDuration::from_secs_f64(delay.min(RETRY_MAX_DELAY.as_secs_f64()))
    }

    /// Applies a CServer hard crash to the cache metadata: every extent
    /// with bytes on the lost server is invalidated. Clean extents are a
    /// pure cache miss afterwards (OPFS still has the data); dirty
    /// extents are genuine data loss and are surfaced as such. Runs once
    /// per outage (re-armed when the server completes an op again).
    pub(crate) fn handle_crash(&mut self, cluster: &mut Cluster, server: usize, now: SimTime) {
        self.ensure_health(cluster);
        let until = now + self.config.quarantine_duration;
        if self.health.quarantine(server, now, until) {
            self.metrics.quarantines += 1;
        }
        if !self.health.claim_crash_handling(server) {
            return;
        }
        let layout = cluster.cpfs().layout();
        let mut doomed: Vec<(FileId, u64, u64, FileId, u64, bool)> = self
            .plane
            .iter_extents()
            .filter(|(_, _, e)| layout.touches(server, e.c_offset, e.len))
            .map(|(f, o, e)| (f, o, e.len, e.c_file, e.c_offset, e.dirty))
            .collect();
        doomed.sort_unstable_by_key(|&(f, o, ..)| (f.0, o));
        for &(file, d_off, len, _, _, dirty) in &doomed {
            if dirty {
                self.metrics.dirty_bytes_lost += len;
            } else {
                self.metrics.crash_invalidated_bytes += len;
            }
            // `remove` queues a Remove record, so recovery agrees.
            self.plane.remove(file, d_off);
        }
        let router = self.plane.router();
        let freed = doomed.iter().map(|&(file, d_off, len, c_file, c_off, _)| {
            (router.shard_of(file, d_off), c_file, c_off, len)
        });
        self.dur
            .free_removed(cluster, &mut self.plane, &mut self.metrics, freed);
    }

    /// The `Middleware::on_io_error` decision: retry with backoff, give
    /// up, or (for an offline CServer) invalidate and give up.
    pub(crate) fn error_directive(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        failure: &SubIoFailure,
    ) -> ErrorDirective {
        if failure.tier == Tier::DServers {
            // OPFS is the durability root and has no health machinery
            // here: ride out transient errors with backoff, and let an
            // outage fail the plan so the runner re-plans it later.
            return match failure.error {
                IoFault::Transient if failure.attempts < self.config.retry_max_attempts => {
                    self.metrics.retries += 1;
                    ErrorDirective::Retry {
                        delay: self.retry_backoff(failure.attempts),
                    }
                }
                _ => ErrorDirective::GiveUp,
            };
        }
        self.ensure_health(cluster);
        match failure.error {
            IoFault::Offline => {
                // An offline CServer is a crash window: its stores are
                // gone. Quarantine it and invalidate every extent it held
                // before anything re-plans against the stale mapping.
                self.handle_crash(cluster, failure.server, now);
                ErrorDirective::GiveUp
            }
            IoFault::NoSpace => {
                // The server is healthy, its SSD is just full: retrying
                // cannot help within this request's lifetime. Give up so
                // the runner re-plans; admission control degrades new
                // writes to OPFS while the exhaustion lasts.
                self.metrics.nospace_failures += 1;
                ErrorDirective::GiveUp
            }
            IoFault::Media => {
                // A media error is permanent for the sector: retrying the
                // same range is futile, and a device developing bad
                // sectors is suspect — count it against the server's
                // health so repeats quarantine it.
                self.metrics.media_failures += 1;
                if self.health.record_failure(
                    failure.server,
                    now,
                    self.config.quarantine_after,
                    self.config.quarantine_duration,
                ) {
                    self.metrics.quarantines += 1;
                }
                ErrorDirective::GiveUp
            }
            IoFault::Transient => {
                if self.health.record_failure(
                    failure.server,
                    now,
                    self.config.quarantine_after,
                    self.config.quarantine_duration,
                ) {
                    self.metrics.quarantines += 1;
                }
                if self.health.is_unhealthy(failure.server, now)
                    || failure.attempts >= self.config.retry_max_attempts
                {
                    ErrorDirective::GiveUp
                } else {
                    self.metrics.retries += 1;
                    ErrorDirective::Retry {
                        delay: self.retry_backoff(failure.attempts),
                    }
                }
            }
        }
    }
}
