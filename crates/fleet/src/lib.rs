//! `toto-fleet`: deterministic parallel experiment execution with a
//! persistent run-artifact store.
//!
//! The paper's evaluation is embarrassingly parallel — four independent
//! 6-day density experiments (§5.2), Figure 8's 100-run create/drop
//! simulation, Figure 13's repeat study with varied PLB seeds — yet the
//! seed drivers ran them as serial loops and printed throwaway text
//! tables. This crate is the subsystem that fixes both halves:
//!
//! * **Job model** ([`job`]): a [`FleetJob`] pairs a scenario with
//!   overrides, a label, and a per-job seed derived from the fleet's
//!   root seed via the SplitMix64 [`SeedTree`](toto_simcore::rng::SeedTree)
//!   scheme. Each job is a pure function of its descriptor, so a fleet
//!   of N jobs is **bit-identical whether run on 1 thread or 16** — the
//!   paper's fixed-seed discipline (§5.2), scaled out.
//! * **Executor** ([`executor`]): a channel-fed worker pool (vendored
//!   crossbeam MPMC channel, parking_lot-guarded registry) with per-job
//!   panic isolation — a panicking job is recorded as `Failed`, never a
//!   fleet abort — cancellation, and a [`FleetObserver`] progress hook
//!   with jobs-per-second and ETA reporting.
//! * **Run-artifact store** ([`store`]): schema-versioned JSON run
//!   records (fleet manifest, per-job KPI summaries, seeds, wall-clock
//!   timings) under `results/runs/`.
//!
//! [`FleetJob`]: job::FleetJob
//! [`FleetObserver`]: executor::FleetObserver

pub mod executor;
pub mod job;
pub mod json;
pub mod store;

pub use executor::{
    CancelToken, FleetExecutor, FleetObserver, FleetReport, JobOutcome, JobProgress, JobReport,
    NullObserver, StderrProgress,
};
pub use job::{density_fleet, FleetJob, FleetPlan, FleetTask, JobOutput};
pub use json::Json;
pub use store::{
    kpis_from_json, kpis_to_json, revenue_from_json, revenue_to_json, FleetManifest, ManifestJob,
    RunRecord, RunStore, RUN_SCHEMA_VERSION,
};
