//! # toto-trace — deterministic structured tracing for the Toto simulator
//!
//! The paper's use case (c) is debugging ("repro") problems from
//! production clusters; this crate makes the simulator's internal
//! decisions — placements, anneal passes, violation fixes, failovers,
//! metric reports, admission redirects — observable as a structured event
//! stream without giving up the determinism contract.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** Events carry simulated time and a monotonic
//!    per-session sequence number only — never a wall clock — so two runs
//!    of the same `(spec, seed)` pair produce byte-identical trace files.
//!    `trace_tool diff` then turns any contract violation into a
//!    pinpointed first-divergent-event diagnosis.
//! 2. **Zero cost when disabled.** Emit callsites take a closure; with no
//!    session installed (or a [`NullSink`]), the closure never runs and
//!    the callsite is one thread-local flag load.
//! 3. **No API churn.** The session is thread-local ([`install`] /
//!    [`emit`] / [`set_now_secs`]), so instrumentation does not thread a
//!    sink through every simulator signature. One sink per thread also
//!    matches the fleet executor's job-per-worker model.
//!
//! The event vocabulary — every kind with its on-disk id, schema name
//! and typed fields — is declared once, in one table in [`event`];
//! [`EventKind`], [`EventBody`] and the per-kind schema embedded in every
//! trace file are all expanded from it. A new kind is one table entry
//! with the next id; entries are append-only.
//!
//! Sinks: [`NullSink`] (disabled), [`RingSink`] (bounded in-memory flight
//! recorder), [`BufferSink`] (full trace in the compact self-describing
//! binary format of [`codec`]). Wrap a sink in
//! [`Shared`] to keep a handle for inspection while it is installed.

pub mod codec;
pub mod diff;
pub mod event;
pub mod report;
pub mod session;
pub mod sink;

pub use event::{mask, EventBody, EventKind, TraceEvent, Value, ALL_KINDS, KIND_COUNT};
pub use session::{emit, install, is_active, set_now_secs, uninstall, SessionGuard};
pub use sink::{BufferSink, NullSink, RingSink, Shared, TraceSink};
