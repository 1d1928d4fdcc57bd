//! Declarative specifications for Toto benchmarks.
//!
//! The paper stresses that Toto "consumes declaratively specified models
//! and parameters, allowing us to easily (re)specify a benchmark scenario
//! of arbitrary scale, complexity, and time-length" (§1) and that the
//! models "are serialized into XML format and written into Service Fabric's
//! Naming Service" (§3.3.1), then re-read by every RgManager instance every
//! 15 minutes. This crate is that declarative layer:
//!
//! * [`xml`] — a small, dependency-free XML writer/parser (the paper's
//!   blobs are XML; keeping the format means a spec stored in the simulated
//!   Naming Service is a human-readable, editable string).
//! * [`toml`] — the workspace's one TOML-subset reader (scenario files
//!   and `lint.toml`), generic below each caller's typed layer.
//! * [`edition`] / [`resource`] — the shared vocabulary: database editions
//!   (remote-store Standard/GP vs. local-store Premium/BC) and governed
//!   resources (CPU, memory, disk).
//! * [`model`] — metric-model specs: which resource, which sub-population,
//!   report periodicity, persistence flag, and the statistical parameters
//!   of the steady-state / initial-creation / rapid-growth patterns.
//! * [`population`] — Population Manager specs: hourly create/drop model
//!   parameters, SLO mix, and initial metric loads (a plain struct, not
//!   an XML blob).
//! * [`scenario`] — whole-benchmark scenarios: cluster shape, density
//!   level, duration, seeds and bootstrap population.

pub mod edition;
pub mod model;
pub mod population;
pub mod resource;
pub mod scenario;
pub mod toml;
pub mod xml;

pub use edition::EditionKind;
pub use model::{
    GrowthStateSpec, HourlyTable, InitialCreationSpec, MetricModelSpec, ModelSetSpec,
    RapidGrowthSpec, SteadyStateSpec, TargetPopulation,
};
pub use population::{PopulationModelSpec, SloMixEntry};
pub use resource::ResourceKind;
pub use scenario::ScenarioSpec;
pub use xml::{ParseError, XmlElement};
