//! # speedbal-trace
//!
//! Structured event tracing for the speedbal simulator and the native
//! balancer. The design goal is *zero cost when disabled*: the scheduler
//! holds an `Option<Box<TraceBuffer>>` and every instrumentation site is a
//! single `if let Some(..)` on it; recording never feeds back into
//! scheduling decisions, so a traced run is bit-identical to an untraced
//! one (enforced by a property test in the workspace root).
//!
//! Three layers:
//!
//! 1. [`TraceEvent`]/[`TraceRecord`] ([`event`]) — the typed schema:
//!    context switches, preemptions, wakes/sleeps, migrations (with the
//!    *reason* for the pull: speed deltas, blocked intervals, kernel
//!    balancing tier), per-interval speed samples, balancer activations
//!    (with jitter draws), and barrier arrive/release episodes.
//! 2. [`TraceBuffer`] ([`sink`]) — a bounded ring of records plus
//!    aggregates maintained at record time (counters, migration
//!    histograms by cache/NUMA tier and by reason, per-task
//!    time-in-state, per-core/per-task speed series statistics), so the
//!    summary survives ring wraparound.
//! 3. Exporters — [`export_chrome_to`] streams Chrome trace-event JSON
//!    loadable in Perfetto/`chrome://tracing` (one track per core, async
//!    spans for barrier epochs, counter tracks for speeds) through a
//!    buffered writer, so multi-gigabyte server traces export without
//!    materializing the document; [`export_chrome`] collects the same
//!    bytes into a `String`; [`render_summary`] renders a plain-text
//!    report.

#![warn(missing_docs)]

pub mod chrome;
mod compact;
pub mod event;
pub mod sink;
pub mod summary;

pub use chrome::{export_chrome, export_chrome_to};
pub use event::{
    ActivationOutcome, MigrationReason, ProcFaultKind, ProcOp, RequestDropReason, TraceEvent,
    TraceRecord,
};
pub use sink::{SeriesStats, StateTimes, TaskName, TraceBuffer, TraceConfig, TraceCounters};
pub use summary::render_summary;
