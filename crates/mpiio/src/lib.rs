//! # s4d-mpiio — the middleware layer and simulation runner
//!
//! The paper integrates S4D-Cache into the MPI-IO library: every
//! `MPI_File_open/read/write/close` is intercepted and may be redirected.
//! This crate provides the equivalent seam for the simulated stack:
//!
//! * [`AppOp`] — the operations an application process issues
//!   (open / read / write / close / barrier / think);
//! * [`Middleware`] — the plug-in interface: given an application request,
//!   produce an execution [`Plan`] of per-tier I/O, plus hooks for
//!   background work (the Rebuilder) and completion callbacks;
//! * [`StockMiddleware`] — the baseline: every request passes straight
//!   through to the original (HDD) parallel file system, exactly like
//!   unmodified MPI-IO over PVFS2;
//! * [`Cluster`] — the two parallel file systems (OPFS over DServers,
//!   CPFS over CServers) as one addressable unit;
//! * [`Runner`] — the discrete-event execution engine that drives
//!   application processes, middleware plans, and file-server state
//!   machines to completion and produces a [`RunReport`].
//!
//! ```
//! use s4d_mpiio::{AppOp, Cluster, Runner, StockMiddleware, script};
//! use s4d_storage::IoKind;
//!
//! let cluster = Cluster::paper_testbed_small(42);
//! let scripts = vec![
//!     script()
//!         .open("shared.dat")
//!         .write(0, 0, 64 * 1024)
//!         .read(0, 0, 64 * 1024)
//!         .close(0)
//!         .build(),
//! ];
//! let mut runner = Runner::new(cluster, StockMiddleware::new(), scripts, 7);
//! let report = runner.run();
//! assert_eq!(report.app_ops(IoKind::Write), 1);
//! assert_eq!(report.app_ops(IoKind::Read), 1);
//! ```

mod cluster;
mod middleware;
mod report;
mod runner;
mod script;
mod types;

pub use cluster::Cluster;
pub use middleware::{BackgroundPoll, Middleware, StockMiddleware};
pub use report::{
    DegradedCounts, DurabilityCounts, GrayFailureCounts, KindReport, RunReport, TierCounts,
};
pub use runner::{IoObserver, Runner};
pub use script::{script, ProcessScript, ScriptBuilder, VecScript};
pub use types::{
    AppOffset, AppOp, AppRequest, ErrorDirective, FileHandle, HedgeDirective, MiddlewareError,
    Plan, PlannedIo, Rank, StragglerCtx, SubIoFailure, Tier,
};
