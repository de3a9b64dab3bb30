//! Scriptable server-level fault injection.
//!
//! The workspace's one fault vocabulary: every injected failure is a
//! [`ServerFault`] scripted on the simulation clock — a hard crash that
//! loses all stored data, a window of transient (retryable) errors,
//! slowdown windows (whole-server or per-op-class, steady or heavy
//! tails), space exhaustion, a seeded bad-sector map, or a stall that
//! parks operations in the service slot without completing *or* erring.
//! A [`FaultPlan`] is installed on a [`FileServer`](crate::FileServer)
//! and queried as simulated time advances; the middleware above observes
//! the resulting [`IoFault`]s on completed sub-requests and reacts
//! (retry, quarantine, fall back to the other tier), while fail-slow
//! modes are only visible as latency — detecting those is the
//! gray-failure layer's job (deadlines, hedging).

use s4d_sim::{SimRng, SimTime};
use s4d_storage::IoKind;

/// Ceiling on any composed service-time multiplier. Overlapping slowdown
/// windows compose multiplicatively and then clamp into
/// `[1, MAX_SLOWDOWN]`, so a stack of slow windows can never
/// overflow a service time into nonsense; a genuinely unbounded delay is
/// modeled by [`ServerFault::Stall`] instead.
pub(crate) const MAX_SLOWDOWN: f64 = 1e6;

/// The error a faulted server attaches to a completed sub-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The server is offline (crashed); its stored data is lost. Not
    /// retryable against the same server until it recovers.
    Offline,
    /// A transient I/O error (controller hiccup, dropped RPC). The
    /// operation had no effect and may be retried.
    Transient,
    /// The server's store is full (`ENOSPC`): the write had no effect.
    /// Not retryable against the same server until space frees; reads are
    /// unaffected.
    NoSpace,
    /// A media error (`EIO`): the addressed device range hit a bad
    /// sector. The operation had no effect, and retrying the same range
    /// against the same server fails the same way — the data there is
    /// gone (reads) or unwritable (writes).
    Media,
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFault::Offline => write!(f, "server offline"),
            IoFault::Transient => write!(f, "transient i/o error"),
            IoFault::NoSpace => write!(f, "no space on device"),
            IoFault::Media => write!(f, "media error"),
        }
    }
}

/// One scripted server fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerFault {
    /// The server hard-crashes at `at`, losing every stored byte, and
    /// comes back (empty) at `recover_at`. While down, every sub-request
    /// completes with [`IoFault::Offline`].
    Crash {
        /// Crash instant.
        at: SimTime,
        /// First instant the server is reachable again.
        recover_at: SimTime,
    },
    /// In `[from, until)` each sub-request fails with probability
    /// `error_rate`, completing with [`IoFault::Transient`] and no store
    /// effect.
    TransientErrors {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Per-operation failure probability in `(0, 1]`.
        error_rate: f64,
    },
    /// In `[from, until)` the server is slower: each operation of `class`
    /// (every operation when `None`) has its service time multiplied by
    /// `factor` with `probability`. At `probability == 1.0` this is a
    /// steady slowdown — a degrading server, or one whose writes limp
    /// while reads stay healthy (firmware GC stalls, write-cache
    /// exhaustion). Below 1 it is a heavy latency tail: each operation
    /// makes one Bernoulli draw from the server's own forked
    /// [`SimRng`](s4d_sim::SimRng) stream, so a given seed always tails
    /// the same ops. Overlapping windows compose multiply-then-clamp.
    Slow {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// The operation class that slows, or `None` for every class.
        class: Option<OpClass>,
        /// Per-operation probability in `(0, 1]`; `1.0` slows every op.
        probability: f64,
        /// Service-time multiplier (must be ≥ 1).
        factor: f64,
    },
    /// In `[from, until)` the server's store is full: every write
    /// sub-request completes with [`IoFault::NoSpace`] and no store
    /// effect, while reads stay healthy. Models an SSD cache tier at
    /// capacity (ECI-Cache's steady-state regime) — the layer above must
    /// degrade (admit to OPFS, stall the journal) rather than fail.
    SpaceExhausted {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive; `SimTime::MAX` for "never frees").
        until: SimTime,
    },
    /// From `from` onward, a deterministic set of device sectors is bad:
    /// any sub-request touching one completes with [`IoFault::Media`] and
    /// no store effect. The bad-sector map is a pure function of
    /// `(seed, bad_ppm)` via
    /// [`s4d_storage::sector_is_bad`],
    /// so the same seed always corrupts the same ranges. Unlike
    /// [`ServerFault::Crash`], stored data outside bad sectors survives.
    MediaErrors {
        /// Onset instant (bad sectors exist from here on).
        from: SimTime,
        /// Seed of the deterministic bad-sector map.
        seed: u64,
        /// Bad-sector density in parts per million, in `(0, 1_000_000]`.
        bad_ppm: u32,
    },
    /// From `since`, operations that *start* do not complete: they park in
    /// the service slot (occupying it, backing up the queue) until
    /// `release`, or forever when `release` is `None`. A parked op is not
    /// an error — the server looks "up" while serving nothing, the
    /// canonical gray failure. An op already in service when the stall
    /// begins is unaffected.
    Stall {
        /// First instant at which newly started ops park.
        since: SimTime,
        /// Instant parked ops resume service, or `None` to park forever
        /// (the op can only be freed by [`FileServer::abandon`]).
        ///
        /// [`FileServer::abandon`]: crate::FileServer::abandon
        release: Option<SimTime>,
    },
}

/// The operation class a [`ServerFault::Slow`] window applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Read sub-requests.
    Read,
    /// Write sub-requests.
    Write,
}

impl OpClass {
    /// True if `kind` belongs to this class.
    pub(crate) fn matches(self, kind: IoKind) -> bool {
        match self {
            OpClass::Read => kind == IoKind::Read,
            OpClass::Write => kind.is_write(),
        }
    }
}

/// Stall status of a server at one instant (see [`FaultPlan::stall_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallState {
    /// No stall window covers the instant.
    Clear,
    /// Newly started ops park and resume service at the given instant
    /// (the latest release over overlapping windows).
    Until(SimTime),
    /// Newly started ops park with no scheduled release.
    Forever,
}

/// A schedule of [`ServerFault`]s for one server, driven by the sim clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<ServerFault>,
}

impl FaultPlan {
    /// An empty (always-healthy) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to the schedule.
    ///
    /// # Panics
    ///
    /// Panics on an empty or inverted window, an error rate outside
    /// `(0, 1]`, or a slowdown factor below 1.
    pub fn with(mut self, fault: ServerFault) -> Self {
        match fault {
            ServerFault::Crash { at, recover_at } => {
                assert!(recover_at > at, "crash must recover after it happens");
            }
            ServerFault::TransientErrors {
                from,
                until,
                error_rate,
            } => {
                assert!(until > from, "error window must be non-empty");
                assert!(
                    error_rate > 0.0 && error_rate <= 1.0,
                    "error rate must be in (0, 1]"
                );
            }
            ServerFault::Slow {
                from,
                until,
                probability,
                factor,
                ..
            } => {
                assert!(until > from, "slow window must be non-empty");
                assert!(
                    probability > 0.0 && probability <= 1.0,
                    "slowdown probability must be in (0, 1]"
                );
                assert!(
                    factor.is_finite() && factor >= 1.0,
                    "slowdown factor must be >= 1"
                );
            }
            ServerFault::SpaceExhausted { from, until } => {
                assert!(until > from, "space-exhaustion window must be non-empty");
            }
            ServerFault::MediaErrors { bad_ppm, .. } => {
                assert!(
                    bad_ppm > 0 && bad_ppm <= 1_000_000,
                    "bad_ppm must be in (0, 1_000_000]"
                );
            }
            ServerFault::Stall { since, release } => {
                if let Some(release) = release {
                    assert!(release > since, "stall must release after it begins");
                }
            }
        }
        self.faults.push(fault);
        self
    }

    /// True if a crash window covers `now`.
    pub(crate) fn offline_at(&self, now: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, ServerFault::Crash { at, recover_at }
                if *at <= now && now < *recover_at)
        })
    }

    /// Transient-error probability at `now` (0 outside every window; the
    /// maximum over overlapping windows).
    pub(crate) fn error_rate_at(&self, now: SimTime) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                ServerFault::TransientErrors {
                    from,
                    until,
                    error_rate,
                } if *from <= now && now < *until => Some(*error_rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Service-time multiplier for one operation of `kind` starting at
    /// `now` (1 when healthy). Every active [`ServerFault::Slow`] window
    /// whose class matches contributes its factor: outright at
    /// `probability == 1.0`, else on one Bernoulli draw from `rng` — so
    /// only probabilistic windows consume draws, taken in a canonical
    /// window order. The hits compose by **multiply-then-clamp**: sorted
    /// into a canonical order, multiplied, and the product clamped into
    /// `[1, MAX_SLOWDOWN]`. Both sorts make the result (and the draws) a
    /// pure function of the set of active windows, independent of the
    /// order faults were inserted into the plan (floating-point products
    /// are not associative, so an unsorted product would differ in the
    /// last ulp between insertion orders).
    pub(crate) fn slowdown(&self, now: SimTime, kind: IoKind, rng: &mut SimRng) -> f64 {
        let mut active: Vec<(SimTime, SimTime, f64, f64)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                ServerFault::Slow {
                    from,
                    until,
                    class,
                    probability,
                    factor,
                } if *from <= now && now < *until && class.is_none_or(|c| c.matches(kind)) => {
                    Some((*from, *until, *probability, *factor))
                }
                _ => None,
            })
            .collect();
        active.sort_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.total_cmp(&b.2))
                .then(a.3.total_cmp(&b.3))
        });
        active.retain(|&(_, _, p, _)| p >= 1.0 || rng.chance(p));
        active.sort_by(|a, b| a.3.total_cmp(&b.3));
        active
            .iter()
            .map(|&(.., factor)| factor)
            .product::<f64>()
            .clamp(1.0, MAX_SLOWDOWN)
    }

    /// Stall status for an operation starting at `now`. Overlapping stall
    /// windows compose to the most severe: any forever-stall wins, else
    /// the latest release.
    pub(crate) fn stall_at(&self, now: SimTime) -> StallState {
        let mut state = StallState::Clear;
        for f in &self.faults {
            let ServerFault::Stall { since, release } = f else {
                continue;
            };
            if *since > now {
                continue;
            }
            match (*release, state) {
                (None, _) => return StallState::Forever,
                (Some(r), _) if r <= now => {}
                (Some(r), StallState::Until(prev)) => state = StallState::Until(prev.max(r)),
                (Some(r), _) => state = StallState::Until(r),
            }
        }
        state
    }

    /// True if a space-exhaustion window covers `now`: writes fail with
    /// [`IoFault::NoSpace`], reads are unaffected.
    pub(crate) fn no_space_at(&self, now: SimTime) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, ServerFault::SpaceExhausted { from, until }
                if *from <= now && now < *until)
        })
    }

    /// The active media-error map at `now`, if any: `(seed, bad_ppm)` of
    /// the earliest-onset [`ServerFault::MediaErrors`] whose `from` has
    /// passed (media damage is permanent, so there is no window end; the
    /// earliest onset wins so overlapping scripts stay deterministic).
    pub(crate) fn media_map_at(&self, now: SimTime) -> Option<(u64, u32)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                ServerFault::MediaErrors {
                    from,
                    seed,
                    bad_ppm,
                } if *from <= now => Some((*from, *seed, *bad_ppm)),
                _ => None,
            })
            .min_by_key(|&(from, seed, ppm)| (from, seed, ppm))
            .map(|(_, seed, ppm)| (seed, ppm))
    }

    /// True if any crash instant lies in `(since, now]` — the caller must
    /// wipe the server's stores.
    pub(crate) fn crash_due(&self, since: SimTime, now: SimTime) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, ServerFault::Crash { at, .. } if *at > since && *at <= now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn slow(
        from: u64,
        until: u64,
        class: Option<OpClass>,
        probability: f64,
        factor: f64,
    ) -> ServerFault {
        ServerFault::Slow {
            from: t(from),
            until: t(until),
            class,
            probability,
            factor,
        }
    }

    /// The next value `rng` would produce, without advancing it.
    fn peek(rng: &SimRng) -> u64 {
        rng.clone().next_u64()
    }

    #[test]
    fn empty_plan_is_healthy() {
        let p = FaultPlan::new();
        assert!(!p.offline_at(t(5)));
        assert_eq!(p.error_rate_at(t(5)), 0.0);
        assert_eq!(p.slowdown(t(5), IoKind::Read, &mut SimRng::seed(1)), 1.0);
        assert!(!p.crash_due(SimTime::ZERO, t(100)));
    }

    #[test]
    fn crash_window_and_due() {
        let p = FaultPlan::new().with(ServerFault::Crash {
            at: t(10),
            recover_at: t(20),
        });
        assert!(!p.offline_at(t(9)));
        assert!(p.offline_at(t(10)));
        assert!(p.offline_at(t(19)));
        assert!(!p.offline_at(t(20)));
        assert!(!p.crash_due(SimTime::ZERO, t(9)));
        assert!(p.crash_due(t(9), t(10)));
        assert!(p.crash_due(SimTime::ZERO, t(100)));
        assert!(!p.crash_due(t(10), t(100)), "crash at 10 already applied");
    }

    #[test]
    fn transient_window_takes_max_rate() {
        let p = FaultPlan::new()
            .with(ServerFault::TransientErrors {
                from: t(1),
                until: t(10),
                error_rate: 0.25,
            })
            .with(ServerFault::TransientErrors {
                from: t(5),
                until: t(8),
                error_rate: 0.75,
            });
        assert_eq!(p.error_rate_at(t(0)), 0.0);
        assert_eq!(p.error_rate_at(t(2)), 0.25);
        assert_eq!(p.error_rate_at(t(6)), 0.75);
        assert_eq!(p.error_rate_at(t(10)), 0.0);
    }

    #[test]
    #[should_panic(expected = "recover after")]
    fn rejects_inverted_crash() {
        FaultPlan::new().with(ServerFault::Crash {
            at: t(5),
            recover_at: t(5),
        });
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn rejects_bad_rate() {
        FaultPlan::new().with(ServerFault::TransientErrors {
            from: t(0),
            until: t(1),
            error_rate: 1.5,
        });
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn rejects_speedup() {
        FaultPlan::new().with(slow(0, 1, None, 1.0, 0.5));
    }

    #[test]
    fn steady_windows_stack_per_class_without_drawing() {
        let p = FaultPlan::new()
            .with(slow(0, 10, None, 1.0, 2.0))
            .with(slow(5, 10, None, 1.0, 3.0))
            .with(slow(0, 10, Some(OpClass::Write), 1.0, 4.0));
        let mut rng = SimRng::seed(7);
        let before = peek(&rng);
        assert_eq!(p.slowdown(t(1), IoKind::Read, &mut rng), 2.0);
        assert_eq!(p.slowdown(t(6), IoKind::Read, &mut rng), 6.0);
        assert_eq!(p.slowdown(t(6), IoKind::Write, &mut rng), 24.0);
        assert_eq!(p.slowdown(t(11), IoKind::Write, &mut rng), 1.0);
        assert_eq!(peek(&rng), before, "probability-1 windows never draw");
    }

    #[test]
    fn probabilistic_windows_draw_once_per_op_of_their_class() {
        let p = FaultPlan::new().with(slow(1, 10, Some(OpClass::Write), 0.5, 50.0));
        let mut rng = SimRng::seed(7);
        let before = peek(&rng);
        assert_eq!(p.slowdown(t(0), IoKind::Write, &mut rng), 1.0);
        assert_eq!(p.slowdown(t(5), IoKind::Read, &mut rng), 1.0);
        assert_eq!(peek(&rng), before, "no draw outside the window or class");
        let mut drawn = rng.clone();
        drawn.f64();
        p.slowdown(t(5), IoKind::Write, &mut rng);
        assert_eq!(peek(&rng), peek(&drawn), "one draw per write in the window");
        // Same seed, same hit pattern.
        let draws = |seed| {
            let mut rng = SimRng::seed(seed);
            (0..64)
                .map(|_| p.slowdown(t(5), IoKind::Write, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = draws(11);
        assert_eq!(a, draws(11));
        assert!(a.contains(&50.0), "some ops draw the tail");
        assert!(a.contains(&1.0), "some ops stay fast");
    }

    #[test]
    fn slowdown_is_insertion_order_independent() {
        // Steady factors chosen so the unsorted product differs in the
        // last ulp between orders, mixed with probabilistic windows whose
        // draws must also happen in one canonical order.
        let windows = [
            (1.0, 1.1),
            (0.5, 7.0),
            (1.0, 3.7),
            (1.0, 2.3),
            (0.3, 1.7),
            (1.0, 1.9),
            (0.7, 2.9),
            (1.0, 5.3),
        ];
        let plan = |order: &mut dyn Iterator<Item = &(f64, f64)>| {
            order.fold(FaultPlan::new(), |p, &(probability, factor)| {
                p.with(slow(0, 10, None, probability, factor))
            })
        };
        let forward = plan(&mut windows.iter());
        let reverse = plan(&mut windows.iter().rev());
        let run = |p: &FaultPlan| {
            let mut rng = SimRng::seed(3);
            let bits: Vec<u64> = (0..64)
                .map(|_| p.slowdown(t(5), IoKind::Read, &mut rng).to_bits())
                .collect();
            (bits, peek(&rng))
        };
        assert_eq!(
            run(&forward),
            run(&reverse),
            "multiply-then-clamp and the draws must be a pure function of the window set"
        );
    }

    #[test]
    fn slowdown_clamps_at_max() {
        let p = (0..8).fold(FaultPlan::new(), |p, _| {
            p.with(slow(0, 10, None, 1.0, 100.0))
        });
        let mut rng = SimRng::seed(1);
        assert_eq!(p.slowdown(t(5), IoKind::Read, &mut rng), MAX_SLOWDOWN);
    }

    #[test]
    fn stall_states_compose_to_most_severe() {
        let p = FaultPlan::new().with(ServerFault::Stall {
            since: t(10),
            release: Some(t(20)),
        });
        assert_eq!(p.stall_at(t(9)), StallState::Clear);
        assert_eq!(p.stall_at(t(10)), StallState::Until(t(20)));
        assert_eq!(p.stall_at(t(19)), StallState::Until(t(20)));
        assert_eq!(p.stall_at(t(20)), StallState::Clear, "release is exclusive");

        let overlapping = p.clone().with(ServerFault::Stall {
            since: t(15),
            release: Some(t(30)),
        });
        assert_eq!(overlapping.stall_at(t(16)), StallState::Until(t(30)));
        assert_eq!(overlapping.stall_at(t(12)), StallState::Until(t(20)));

        let forever = overlapping.with(ServerFault::Stall {
            since: t(18),
            release: None,
        });
        assert_eq!(forever.stall_at(t(19)), StallState::Forever);
        assert_eq!(forever.stall_at(t(16)), StallState::Until(t(30)));
    }

    #[test]
    fn space_exhaustion_is_windowed() {
        let p = FaultPlan::new().with(ServerFault::SpaceExhausted {
            from: t(5),
            until: t(10),
        });
        assert!(!p.no_space_at(t(4)));
        assert!(p.no_space_at(t(5)));
        assert!(p.no_space_at(t(9)));
        assert!(!p.no_space_at(t(10)), "window end is exclusive");
    }

    #[test]
    fn media_map_onset_is_permanent_and_earliest_wins() {
        let p = FaultPlan::new()
            .with(ServerFault::MediaErrors {
                from: t(8),
                seed: 99,
                bad_ppm: 100,
            })
            .with(ServerFault::MediaErrors {
                from: t(3),
                seed: 7,
                bad_ppm: 1000,
            });
        assert_eq!(p.media_map_at(t(2)), None);
        assert_eq!(p.media_map_at(t(3)), Some((7, 1000)));
        assert_eq!(p.media_map_at(t(100)), Some((7, 1000)), "earliest onset");
    }

    #[test]
    #[should_panic(expected = "space-exhaustion window")]
    fn rejects_empty_space_window() {
        FaultPlan::new().with(ServerFault::SpaceExhausted {
            from: t(5),
            until: t(5),
        });
    }

    #[test]
    #[should_panic(expected = "bad_ppm")]
    fn rejects_zero_media_density() {
        FaultPlan::new().with(ServerFault::MediaErrors {
            from: t(0),
            seed: 1,
            bad_ppm: 0,
        });
    }

    #[test]
    #[should_panic(expected = "stall must release")]
    fn rejects_inverted_stall() {
        FaultPlan::new().with(ServerFault::Stall {
            since: t(5),
            release: Some(t(5)),
        });
    }

    #[test]
    #[should_panic(expected = "slowdown probability")]
    fn rejects_bad_slow_probability() {
        FaultPlan::new().with(slow(0, 1, None, 0.0, 2.0));
    }
}
