//! The discrete-event execution engine.
//!
//! The [`Runner`] owns the [`Cluster`], a [`Middleware`] implementation and
//! one [`ProcessScript`] per simulated MPI process. It drives everything
//! by popping one `s4d-sim` [`EventQueue`] in time order:
//!
//! * a process executes its script; opens/closes are instantaneous control
//!   operations, reads/writes become middleware [`Plan`]s;
//! * a plan's `ops` run first and its `then` ops once they all completed;
//!   the ops of a phase are decomposed into per-server sub-requests and
//!   submitted concurrently;
//! * file servers service one sub-request at a time (foreground before
//!   background) — each completion is an event;
//! * the middleware's background hook (the Rebuilder) is polled on the
//!   schedule it requests.
//!
//! This module is the wiring: the shared [`State`], the event alphabet,
//! and the public `Runner` surface. The machinery lives in the
//! submodules — [`exec`] (script advancement and plan execution),
//! [`retry`] (sub-request retries and request re-planning), [`drain`]
//! (background polling and draining), [`hedge`] (deadline budgets),
//! and [`observe`] (tracing hooks and report accounting). The tables of
//! in-flight sub-requests, plans and retries are [`Slab`]s keyed by the
//! ids the servers and events carry.

mod drain;
mod exec;
mod hedge;
mod observe;
mod retry;

use s4d_pfs::{Started, SubReqId};
use s4d_sim::{EventQueue, IdMap, OneOrMany, SimTime, Slab, SlabKey};

use crate::cluster::Cluster;
use crate::middleware::Middleware;
use crate::report::RunReport;
use crate::script::ProcessScript;
use crate::types::{Plan, PlannedIo, Rank, Tier};

use exec::{PlanExec, PlanOwner, Proc, ProcStatus, SubMeta};
use retry::PendingRetry;

pub use observe::IoObserver;

/// A launched plan's key in the runner's plan table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanId(u64);

impl SlabKey for PlanId {
    fn from_raw(raw: u64) -> Self {
        PlanId(raw)
    }

    fn raw(self) -> u64 {
        self.0
    }
}

/// A sub-request waiting out its retry backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetryId(u64);

impl SlabKey for RetryId {
    fn from_raw(raw: u64) -> Self {
        RetryId(raw)
    }

    fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    ProcessWake(usize),
    ServerDone {
        tier: Tier,
        server: usize,
    },
    PlanStart(PlanId),
    BackgroundWake,
    /// Resubmit a sub-request after a retry backoff.
    Retry(RetryId),
    /// Re-plan process `i`'s in-flight request after a plan failure.
    Replan(usize),
    /// A sub-request's deadline budget lapsed. The key pins the timer to
    /// one attempt: a retry runs under a fresh key with a fresh deadline,
    /// and the stale timer for the failed attempt misses.
    Deadline(SubReqId),
}

/// Queues `server`'s completion event if a submit, completion or
/// abandon just started an op there. Not generic, so only `#[inline]`
/// lets the runner's instances in other crates inline it.
#[inline]
fn server_started(q: &mut EventQueue<Event>, tier: Tier, server: usize, started: Option<Started>) {
    if let Some(s) = started {
        q.push(s.completes_at, Event::ServerDone { tier, server });
    }
}

struct State<M: Middleware> {
    cluster: Cluster,
    middleware: M,
    procs: Vec<Proc>,
    /// Launched plans; the slab's key is the id `PlanStart` names.
    plans: Slab<PlanId, PlanExec>,
    /// The `ops` of launched plans that have not started: a plan's first
    /// phase waits here out of its lead-in, so the entries of `plans`
    /// carry one phase, not two.
    first_phases: IdMap<PlanId, OneOrMany<PlannedIo>>,
    /// In-flight sub-requests; the slab's key is the id the servers echo.
    subs: Slab<SubReqId, SubMeta>,
    /// Failed sub-requests waiting out their backoff, keyed by the id
    /// `Retry` names.
    retries: Slab<RetryId, PendingRetry>,
    barrier_waiting: usize,
    finished: usize,
    background_armed: bool,
    drain_mode: bool,
    report: RunReport,
    observers: Vec<Box<dyn IoObserver>>,
}

/// Drives one simulated run to completion.
///
/// See the crate-level example. After [`Runner::run`], recover the pieces
/// with [`Runner::into_parts`] to inspect middleware state or reuse the
/// cluster for a second run (the paper's "second run" read experiments).
pub struct Runner<M: Middleware> {
    state: State<M>,
}

impl<M: Middleware> Runner<M> {
    /// Creates a runner over `scripts.len()` processes.
    ///
    /// `seed` is reserved for future stochastic components of the runner
    /// itself; determinism currently comes from the cluster and scripts.
    pub fn new(
        cluster: Cluster,
        middleware: M,
        scripts: Vec<impl ProcessScript + 'static>,
        seed: u64,
    ) -> Self {
        let _ = seed;
        let procs = scripts
            .into_iter()
            .enumerate()
            .map(|(i, s)| Proc {
                rank: Rank(i as u32),
                script: Box::new(s) as Box<dyn ProcessScript>,
                handles: Vec::new(),
                cursors: Vec::new(),
                status: ProcStatus::Running,
                request: None,
            })
            .collect::<Vec<_>>();
        // Sized for one waiting plan per process plus the one starting, so
        // the table does not grow during a run; a middleware that gives
        // background plans a lead-in only makes it grow.
        let first_phases = IdMap::with_capacity_and_hasher(procs.len() + 1, Default::default());
        Runner {
            state: State {
                cluster,
                middleware,
                procs,
                plans: Slab::new(),
                first_phases,
                subs: Slab::new(),
                retries: Slab::new(),
                barrier_waiting: 0,
                finished: 0,
                background_armed: false,
                drain_mode: false,
                report: RunReport::default(),
                observers: Vec::new(),
            },
        }
    }

    /// Registers a tracing observer.
    pub fn add_observer(&mut self, obs: Box<dyn IoObserver>) {
        self.state.observers.push(obs);
    }

    /// Runs every process script to completion (plus in-flight background
    /// work) and returns the report.
    pub fn run(&mut self) -> RunReport {
        let mut q = EventQueue::new();
        for i in 0..self.state.procs.len() {
            q.push(SimTime::ZERO, Event::ProcessWake(i));
        }
        q.push(SimTime::ZERO, Event::BackgroundWake);
        self.state.background_armed = true;
        self.state.drain_mode = false;
        let (end, events) = self.state.deliver_all(q);
        self.state.report.end_time = end;
        self.state.report.events = events;
        self.state.report.durability = self.state.middleware.durability();
        self.state.report.gray.shed_admissions = self.state.middleware.shed_admissions();
        self.state.report.clone()
    }

    /// Runs only background (Rebuilder) work until the middleware reports
    /// none left. Used between a workload's first and second run.
    pub fn drain_background(&mut self, start: SimTime) -> SimTime {
        let mut q = EventQueue::new();
        q.push(start, Event::BackgroundWake);
        self.state.background_armed = true;
        self.state.drain_mode = true;
        let (end, _) = self.state.deliver_all(q);
        self.state.drain_mode = false;
        end
    }

    /// Takes the runner apart: cluster, middleware, and the latest report.
    pub fn into_parts(self) -> (Cluster, M, RunReport) {
        (self.state.cluster, self.state.middleware, self.state.report)
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &RunReport {
        &self.state.report
    }

    /// The middleware (e.g. to inspect cache state after running).
    pub fn middleware(&self) -> &M {
        &self.state.middleware
    }
}

impl<M: Middleware> State<M> {
    /// The event loop: delivers `q`'s events in time order until it
    /// drains. Returns the instant of the last event and how many were
    /// delivered.
    fn deliver_all(&mut self, mut q: EventQueue<Event>) -> (SimTime, u64) {
        let (mut end, mut delivered) = (SimTime::ZERO, 0);
        while let Some((now, ev)) = q.pop() {
            end = now;
            delivered += 1;
            // Scripted crash effects become visible the moment time
            // reaches them, never later — direct store reads (Rebuilder
            // copies) must not observe destroyed data.
            self.cluster.advance_faults(now);
            match ev {
                Event::ProcessWake(i) => self.advance_process(now, i, &mut q),
                Event::ServerDone { tier, server } => self.server_done(now, tier, server, &mut q),
                Event::PlanStart(id) => self.advance_plan(now, id, &mut q),
                Event::BackgroundWake => self.background_wake(now, &mut q),
                Event::Retry(token) => self.fire_retry(now, token, &mut q),
                Event::Replan(i) => self.plan_request(now, i, &mut q),
                Event::Deadline(sub) => self.fire_deadline(now, sub, &mut q),
            }
        }
        (end, delivered)
    }

    /// Process state for an event- or owner-carried index. Indices are
    /// minted from `procs` at construction and the vector never shrinks.
    #[expect(clippy::expect_used, reason = "see above: a miss is queue corruption")]
    fn proc(&self, i: usize) -> &Proc {
        self.procs
            .get(i)
            .expect("event names a constructed process")
    }

    /// Mutable variant of [`State::proc`].
    #[expect(clippy::expect_used, reason = "see above: a miss is queue corruption")]
    fn proc_mut(&mut self, i: usize) -> &mut Proc {
        self.procs
            .get_mut(i)
            .expect("event names a constructed process")
    }

    /// Launches a plan: charges its decision lead-in, then starts `ops`.
    fn launch_plan(
        &mut self,
        now: SimTime,
        plan: Plan,
        owner: PlanOwner,
        q: &mut EventQueue<Event>,
    ) {
        let Plan {
            tag,
            lead_in,
            ops,
            then,
            deadline,
        } = plan;
        // The plan stays in the table until it completes or fails; every
        // step in between updates it in place.
        let plan_id = self.plans.insert(PlanExec::new(tag, deadline, then, owner));
        self.first_phases.insert(plan_id, ops);
        if lead_in.is_zero() {
            self.advance_plan(now, plan_id, q);
        } else {
            // Charge the middleware's decision time before any I/O starts.
            q.push(now + lead_in, Event::PlanStart(plan_id));
        }
    }
}
