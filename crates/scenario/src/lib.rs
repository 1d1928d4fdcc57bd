//! toto-scenario: the data-driven scenario DSL.
//!
//! Every hard-coded study in this workspace — the density sweep, the
//! chaos storms, the mixed-density region, the elastic-pool packing run —
//! is a particular configuration of machinery that already exists:
//! `ExperimentOverrides`, `FleetPlan`, `RegionSpec`, `ChaosPlan`, and the
//! `toto-telemetry` synthesizers. This crate makes those configurations
//! *data*: a scenario is a small TOML-subset file declaring the
//! population mix, the density/node schedule, a chaos plan, workload
//! shape overrides, compiled onto the existing types so
//! a new workload study needs zero new Rust.
//!
//! The pipeline is strictly staged, every stage typed:
//!
//! 1. [`toto_spec::toml::RawDoc`] — generic well-formedness (syntax,
//!    duplicate keys). Errors are [`ScenarioError::Parse`] with a line
//!    number.
//! 2. [`ScenarioDoc`] — the validated grammar: unknown sections/keys and
//!    out-of-domain values are [`ScenarioError::Invalid`].
//! 3. [`compile::compile`] — lowering onto `FleetPlan` / `RegionSpec` /
//!    the pools study, plus fitting any synthesized workload into an
//!    `HourlyTable` population model. Fitting scores every synthesized
//!    stream family with the K-S machinery and records the verdicts in a
//!    [`KsOracle`].
//! 4. [`runner::run`] — checks the oracle *first* (a mis-fit workload
//!    aborts with [`ScenarioError::Oracle`] before any simulation runs,
//!    mirroring the chaos invariant-oracle discipline), then executes
//!    through `toto-fleet` and writes artifacts under `results/runs/`.
//!
//! [`cli`] is the `toto` command line, the one front end: `toto run`
//! takes a built-in name or a scenario file.
//!
//! Determinism contract: byte-identical artifacts at any worker count,
//! and `toto run density_sweep` reproduces the pinned §5.2 records under
//! `results/runs/fleet_runner/` byte-for-byte.

pub mod builtin;
pub mod cli;
pub mod compile;
pub mod doc;
pub mod error;
pub mod oracle;
pub mod runner;
pub mod workload;

pub use builtin::{builtin, NAMED_SCENARIOS};
pub use compile::{compile, CompiledFleet, CompiledPools, CompiledRegion, CompiledScenario};
pub use doc::{
    ChaosConfig, OracleConfig, PoolsConfig, RegionConfig, ScenarioDoc, ScenarioKind,
    ScheduleConfig, WorkloadConfig,
};
pub use error::{OracleFailure, ScenarioError};
pub use oracle::{record_family, FamilyFit, KsOracle};
pub use runner::{run, RunOptions, RunSummary};
pub use toto_region::{RegionRunner, RegionSpec};
