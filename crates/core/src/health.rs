//! Per-CServer health tracking: failure counting and the quarantine state
//! machine.
//!
//! The paper assumes a healthy SSD tier; a real deployment must notice
//! when a CServer stops being one. The monitor ingests one signal the
//! middleware already sees for free — per-sub-request I/O errors, plus
//! the successes that clear them — and condenses it into a per-server
//! answer to one question: *should new work be sent there?*
//!
//! State machine per server:
//!
//! ```text
//!             K consecutive failures / any Offline error
//!   Healthy ────────────────────────────────────────────▶ Quarantined{until}
//!      ▲                                                       │
//!      │ a success during probation                            │ `until` passes
//!      └──────────────────────────── Probation ◀───────────────┘
//!            (routing resumes; a failure re-quarantines)
//! ```

use s4d_sim::SimTime;

/// Cap on the quarantine-backoff exponent: repeated probation failures
/// double the quarantine up to `2^MAX_BACKOFF_EXP ×` the configured
/// duration, so a flapping server cannot push the window to infinity.
const MAX_BACKOFF_EXP: u32 = 6;

/// Health of one server.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerHealth {
    /// Consecutive failed sub-requests (reset on any success).
    pub consecutive_failures: u32,
    /// End of the current quarantine, if any. Once it passes the server
    /// is on probation: routing resumes, but the next failure
    /// re-quarantines immediately.
    pub quarantined_until: Option<SimTime>,
    /// Set once a crash's data loss has been applied to the DMT, so a
    /// single outage is not invalidated twice. Reset on recovery.
    pub crash_handled: bool,
    /// Quarantine-backoff exponent: each quarantine re-entered *from
    /// probation* doubles the next window (capped at
    /// `2^MAX_BACKOFF_EXP`), so a server that keeps failing its probation
    /// is benched for exponentially longer. Reset by any success.
    pub backoff_exp: u32,
}

impl ServerHealth {
    /// True while the quarantine window covers `now`.
    pub fn is_quarantined(&self, now: SimTime) -> bool {
        matches!(self.quarantined_until, Some(until) if now < until)
    }
}

/// Health state of every CServer.
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    servers: Vec<ServerHealth>,
}

impl HealthMonitor {
    /// A monitor for `n` servers, all healthy.
    pub fn new(n: usize) -> Self {
        HealthMonitor {
            servers: vec![ServerHealth::default(); n],
        }
    }

    /// Grows the monitor to cover at least `n` servers (idempotent).
    pub fn ensure_servers(&mut self, n: usize) {
        if self.servers.len() < n {
            self.servers.resize(n, ServerHealth::default());
        }
    }

    /// Number of tracked servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Health of one server, or `None` for an out-of-range index.
    pub fn server(&self, index: usize) -> Option<&ServerHealth> {
        self.servers.get(index)
    }

    /// Records a successful operation. Ends any quarantine (the server
    /// proved itself), clears the crash marker and resets the backoff.
    pub fn record_success(&mut self, index: usize) {
        let Some(s) = self.servers.get_mut(index) else {
            return; // unknown server: nothing to record
        };
        s.consecutive_failures = 0;
        s.quarantined_until = None;
        s.crash_handled = false;
        s.backoff_exp = 0;
    }

    /// Records a failed operation. Quarantines the server until
    /// `now + duration` once `threshold` consecutive failures accumulate
    /// (or immediately when already on probation); returns `true` if a
    /// new quarantine started.
    ///
    /// A quarantine entered *from probation* doubles the window relative
    /// to the previous one (capped at `2^MAX_BACKOFF_EXP × duration`):
    /// a server that keeps failing the moment routing resumes is benched
    /// for exponentially longer, and only a success resets the backoff.
    pub fn record_failure(
        &mut self,
        index: usize,
        now: SimTime,
        threshold: u32,
        duration: s4d_sim::SimDuration,
    ) -> bool {
        let Some(s) = self.servers.get_mut(index) else {
            return false; // unknown server: nothing to record
        };
        s.consecutive_failures += 1;
        if s.is_quarantined(now) {
            return false;
        }
        let on_probation = s.quarantined_until.is_some();
        if s.consecutive_failures >= threshold.max(1) || on_probation {
            if on_probation {
                s.backoff_exp = (s.backoff_exp + 1).min(MAX_BACKOFF_EXP);
            }
            let scale = (1u64 << s.backoff_exp) as f64;
            let scaled = s4d_sim::SimDuration::from_secs_f64(duration.as_secs_f64() * scale);
            s.quarantined_until = Some(now + scaled);
            true
        } else {
            false
        }
    }

    /// Quarantines a server outright (crash detected) until `until`.
    /// Returns `true` if it was not already quarantined.
    pub fn quarantine(&mut self, index: usize, now: SimTime, until: SimTime) -> bool {
        let Some(s) = self.servers.get_mut(index) else {
            return false; // unknown server: nothing to quarantine
        };
        let newly = !s.is_quarantined(now);
        let prev = s.quarantined_until.unwrap_or(SimTime::ZERO);
        s.quarantined_until = Some(prev.max(until));
        newly
    }

    /// Marks a crash's data-loss handling as done; returns `false` if it
    /// was already marked (the same outage was handled before).
    pub fn claim_crash_handling(&mut self, index: usize) -> bool {
        let Some(s) = self.servers.get_mut(index) else {
            return false; // unknown server: nothing to claim
        };
        if s.crash_handled {
            false
        } else {
            s.crash_handled = true;
            true
        }
    }

    /// True if this server should not receive new work at `now`.
    pub fn is_unhealthy(&self, index: usize, now: SimTime) -> bool {
        self.servers
            .get(index)
            .is_some_and(|s| s.is_quarantined(now))
    }

    /// True if any tracked server is quarantined at `now`.
    pub fn any_unhealthy(&self, now: SimTime) -> bool {
        self.servers.iter().any(|s| s.is_quarantined(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4d_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    const Q: SimDuration = SimDuration::from_secs(10);

    #[test]
    fn failures_accumulate_to_quarantine() {
        let mut m = HealthMonitor::new(2);
        assert!(!m.record_failure(0, t(1), 3, Q));
        assert!(!m.record_failure(0, t(2), 3, Q));
        assert!(!m.any_unhealthy(t(2)));
        assert!(m.record_failure(0, t(3), 3, Q), "third strike quarantines");
        assert!(m.is_unhealthy(0, t(3)));
        assert!(!m.is_unhealthy(1, t(3)), "other servers unaffected");
        // Further failures while quarantined don't start a new quarantine.
        assert!(!m.record_failure(0, t(4), 3, Q));
        // Quarantine expires into probation.
        assert!(!m.is_unhealthy(0, t(13)));
        // A failure on probation re-quarantines immediately.
        assert!(m.record_failure(0, t(14), 3, Q));
        assert!(m.is_unhealthy(0, t(14)));
    }

    #[test]
    fn success_clears_everything() {
        let mut m = HealthMonitor::new(1);
        for i in 0..3 {
            m.record_failure(0, t(i), 3, Q);
        }
        assert!(m.is_unhealthy(0, t(3)));
        m.record_success(0);
        assert!(!m.is_unhealthy(0, t(3)));
        assert_eq!(m.server(0).unwrap().consecutive_failures, 0);
        // Counter restarts from scratch.
        assert!(!m.record_failure(0, t(5), 3, Q));
    }

    #[test]
    fn crash_quarantine_and_claim() {
        let mut m = HealthMonitor::new(2);
        assert!(m.quarantine(1, t(5), t(15)));
        assert!(!m.quarantine(1, t(6), t(12)), "already quarantined");
        assert!(m.is_unhealthy(1, t(6)));
        // Claim is once per outage.
        assert!(m.claim_crash_handling(1));
        assert!(!m.claim_crash_handling(1));
        // Recovery (a success) re-arms the claim for a future crash.
        m.record_success(1);
        assert!(m.claim_crash_handling(1));
        // Extending never shortens.
        m.quarantine(0, t(0), t(20));
        m.quarantine(0, t(1), t(10));
        assert!(m.is_unhealthy(0, t(15)));
    }

    #[test]
    fn ensure_servers_grows_only() {
        let mut m = HealthMonitor::default();
        m.ensure_servers(3);
        assert_eq!(m.server_count(), 3);
        m.record_failure(2, t(0), 1, Q);
        m.ensure_servers(2);
        assert_eq!(m.server_count(), 3, "never shrinks");
        m.ensure_servers(4);
        assert!(m.is_unhealthy(2, t(0)), "quarantine survives growth");
        assert_eq!(m.server(3), Some(&ServerHealth::default()));
    }

    #[test]
    fn probation_reentry_doubles_backoff_capped() {
        let mut m = HealthMonitor::new(1);
        // First quarantine: the configured window, unscaled.
        assert!(m.record_failure(0, t(0), 1, Q));
        assert!(m.is_unhealthy(0, t(9)));
        assert!(!m.is_unhealthy(0, t(10)), "probation after 10s");
        // Failing on probation doubles the window: 20s.
        assert!(m.record_failure(0, t(10), 1, Q));
        assert!(m.is_unhealthy(0, t(29)));
        assert!(!m.is_unhealthy(0, t(30)));
        // Again: 40s.
        assert!(m.record_failure(0, t(30), 1, Q));
        assert!(m.is_unhealthy(0, t(69)));
        assert!(!m.is_unhealthy(0, t(70)));
        // Keep failing every probation: the scale caps at 2^6 = 64×.
        let mut start = SimTime::from_secs(70);
        for _ in 0..10 {
            assert!(m.record_failure(0, start, 1, Q));
            let until = m.server(0).unwrap().quarantined_until.unwrap();
            assert!(until - start <= Q * 64, "backoff never exceeds the cap");
            start = until;
        }
        assert_eq!(m.server(0).unwrap().backoff_exp, 6);
        assert!(m.record_failure(0, start, 1, Q));
        let until = m.server(0).unwrap().quarantined_until.unwrap();
        assert_eq!(until - start, Q * 64, "capped at 64×");
        // A success resets the ladder: the next quarantine is 10s again.
        m.record_success(0);
        assert!(m.record_failure(0, t(1000), 1, Q));
        let s = m.server(0).unwrap();
        assert_eq!(s.quarantined_until, Some(t(1010)));
        assert_eq!(s.backoff_exp, 0);
    }
}
