//! The staged request pipeline: identify → redirect → admit.
//!
//! Every foreground request flows through three stages that mirror the
//! paper's components, each consuming a typed input and emitting a typed
//! decision:
//!
//! 1. [`identify`] — the Data Identifier (§III.C): cost-model
//!    classification and CDT insertion, emitting a [`RequestCtx`].
//! 2. [`redirect`] — the Redirector (§III.D): DMT lookup and
//!    health-aware tier choice, emitting a [`WriteRoute`] for writes and
//!    a complete plan for reads.
//! 3. [`admit`] — space claim and the atomic admission protocol
//!    (DESIGN.md §9): eviction via [`make_room`], extent insertion, and
//!    the data-before-metadata journal phase, consuming the
//!    [`WriteRoute`] and emitting the final plan.
//!
//! [`crate::S4dCache`]'s `Middleware::plan_io` is a thin driver over
//! these stages.
//!
//! [`make_room`]: crate::S4dCache::make_room

pub(crate) mod admit;
pub(crate) mod identify;
pub(crate) mod redirect;

use s4d_mpiio::PlannedIo;
use s4d_pfs::FileId;
use s4d_sim::{OneOrMany, SimDuration};

/// Simulated CPU cost of the per-request decision path (cost-model
/// evaluation + CDT/DMT lookups), charged before a request's plan
/// starts. The paper measures this overhead to be negligible (§V.E.2).
pub(crate) const DECISION_OVERHEAD: SimDuration = SimDuration::from_micros(2);

/// Typed decision of the identify stage: what the Data Identifier
/// concluded about one request, consumed by redirect and admit.
#[derive(Debug)]
pub(crate) struct RequestCtx {
    /// Cost-model verdict (Eq. 7 / the configured admission policy):
    /// redirecting this request to the cache tier is predicted to win.
    pub(crate) critical: bool,
    /// The request's cache file, if its original file was opened through
    /// the middleware; `None` routes straight to DServers.
    pub(crate) cache: Option<FileId>,
    /// The slower of the two predicted access times, seconds — the basis
    /// of the request's deadline budget (whichever tier the plan picks,
    /// the budget covers it).
    pub(crate) predicted_secs: f64,
}

/// Typed decision of the redirect stage for a write: where the mapped
/// parts already go, and what is left for the admit stage to place.
#[derive(Debug)]
pub(crate) struct WriteRoute {
    /// Ops covering the already-mapped pieces (re-dirtied cache writes).
    pub(crate) ops: OneOrMany<PlannedIo>,
    /// Whether any piece was routed to the cache tier.
    pub(crate) used_cache: bool,
    /// Total bytes of the unmapped gaps the admit stage decides on (the
    /// size of the admission ask; the gaps themselves stay in the
    /// request's scratch view).
    pub(crate) gap_total: u64,
    /// Tier health verdict at routing time: new admissions stripe over
    /// every CServer, so one quarantined server vetoes admission.
    pub(crate) healthy: bool,
}
