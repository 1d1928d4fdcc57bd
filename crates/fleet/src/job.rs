//! The fleet job model.
//!
//! A [`FleetJob`] is a complete, self-contained description of one
//! density experiment: scenario, overrides, label, and the job's seed.
//! Jobs are **pure functions of their descriptor** — running a job
//! touches no shared mutable state — which is what lets the executor
//! schedule them on any number of threads and still produce bit-identical
//! results (the paper's fixed-seed discipline of §5.2, scaled out).
//!
//! Seeds are derived, not invented: a [`FleetPlan`] owns a root seed and
//! hands each job a child seed via the workspace-wide SplitMix64
//! [`SeedTree`] scheme, keyed by the job's label and position. Two plans
//! built from the same root seed in the same order are identical, no
//! matter who executes them or how.

use toto::experiment::{DensityExperiment, ExperimentOverrides, ExperimentResult};
use toto_simcore::rng::SeedTree;
use toto_spec::ScenarioSpec;

/// Anything the fleet executor can run: a label for progress reporting
/// and a side-effect-free unit of work.
///
/// Implementations must be deterministic given their own state — the
/// executor guarantees nothing about scheduling order.
pub trait FleetTask: Send + Sync {
    /// What the task produces.
    type Output: Send;

    /// Label shown by progress observers and recorded in manifests.
    fn label(&self) -> String;

    /// The seed this task runs under, for manifests (0 if unseeded).
    fn seed(&self) -> u64 {
        0
    }

    /// Do the work. May panic: the executor isolates panics and records
    /// the job as failed without aborting the fleet.
    fn run(&self) -> Self::Output;
}

/// One density experiment in a fleet.
#[derive(Clone, Debug)]
pub struct FleetJob {
    /// Unique-within-the-fleet name, e.g. `"density-120"`. Used as the
    /// run-record file stem.
    pub label: String,
    /// This job's seed (already folded into the scenario's three
    /// component seeds — recorded so artifacts are self-describing).
    pub seed: u64,
    /// The fully-seeded scenario to run.
    pub scenario: ScenarioSpec,
    /// Experiment knobs.
    pub overrides: ExperimentOverrides,
    /// Record a full structured trace of the run (opt-in: traces are
    /// orders of magnitude larger than run records). The encoded bytes
    /// come back in [`JobOutput::trace`] and are stored as a
    /// `<label>.trace` sidecar next to the run record.
    pub trace: bool,
}

/// What one fleet job produces: the experiment result plus, when the job
/// opted in via [`FleetJob::trace`], the encoded `toto-trace` stream.
#[derive(Debug)]
pub struct JobOutput {
    /// The experiment's full result.
    pub result: ExperimentResult,
    /// Encoded trace bytes (the `trace_tool` file format), if requested.
    pub trace: Option<Vec<u8>>,
}

impl FleetJob {
    /// Run the experiment this job describes, without tracing.
    pub fn execute(&self) -> ExperimentResult {
        DensityExperiment::new(self.scenario.clone(), self.overrides.clone()).run()
    }
}

impl FleetTask for FleetJob {
    type Output = JobOutput;

    fn label(&self) -> String {
        self.label.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run(&self) -> JobOutput {
        if !self.trace {
            return JobOutput {
                result: self.execute(),
                trace: None,
            };
        }
        // Each worker thread installs its own session, so per-job traces
        // stay isolated no matter how jobs are scheduled; the trace is a
        // pure function of (scenario, seeds), exactly like the record.
        let sink = toto_trace::Shared::new(toto_trace::BufferSink::new());
        let guard = toto_trace::SessionGuard::install(Box::new(sink.clone()));
        let result = self.execute();
        drop(guard);
        JobOutput {
            result,
            trace: Some(sink.with(|b| b.bytes().to_vec())),
        }
    }
}

/// Builds a fleet of jobs with deterministic per-job seeds.
#[derive(Clone, Debug)]
pub struct FleetPlan {
    root_seed: u64,
    jobs: Vec<FleetJob>,
}

impl FleetPlan {
    /// Start a plan rooted at `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        FleetPlan {
            root_seed,
            jobs: Vec::new(),
        }
    }

    /// The root seed every job seed is derived from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Add a job. The job's seed is derived from the plan's root seed,
    /// the label, and the job's position, then folded into the
    /// scenario's population / model / PLB seeds — so the caller's
    /// scenario seeds are *replaced*, and the whole fleet is a pure
    /// function of `(root_seed, labels, order)`.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        mut scenario: ScenarioSpec,
        overrides: ExperimentOverrides,
    ) -> &mut Self {
        let label = label.into();
        let index = self.jobs.len() as u64;
        let seed = SeedTree::new(self.root_seed).child(&label, index).seed();
        scenario.population_seed = SeedTree::new(seed).child("population", 0).seed();
        scenario.model_seed = SeedTree::new(seed).child("model", 0).seed();
        scenario.plb_seed = SeedTree::new(seed).child("plb", 0).seed();
        self.jobs.push(FleetJob {
            label,
            seed,
            scenario,
            overrides,
            trace: false,
        });
        self
    }

    /// Add a job whose scenario seeds are already pinned by the caller
    /// (repeat studies that vary exactly one seed, like Figure 13's PLB
    /// repeats, need this). The recorded job seed is derived the same
    /// way so manifests stay self-describing.
    pub fn add_pinned(
        &mut self,
        label: impl Into<String>,
        scenario: ScenarioSpec,
        overrides: ExperimentOverrides,
    ) -> &mut Self {
        let label = label.into();
        let index = self.jobs.len() as u64;
        let seed = SeedTree::new(self.root_seed).child(&label, index).seed();
        self.jobs.push(FleetJob {
            label,
            seed,
            scenario,
            overrides,
            trace: false,
        });
        self
    }

    /// Enable trace recording on every job added so far.
    pub fn trace_all(&mut self) -> &mut Self {
        for job in &mut self.jobs {
            job.trace = true;
        }
        self
    }

    /// The planned jobs, in insertion order.
    pub fn jobs(&self) -> &[FleetJob] {
        &self.jobs
    }

    /// Consume the plan.
    pub fn into_jobs(self) -> Vec<FleetJob> {
        self.jobs
    }
}

/// The paper's §5.2 study as a fleet: one job per density level, each a
/// gen5 stage-ring experiment of `duration_hours`, seeds derived from
/// `root_seed`.
pub fn density_fleet(root_seed: u64, densities: &[u32], duration_hours: u64) -> FleetPlan {
    let mut plan = FleetPlan::new(root_seed);
    for &density in densities {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(density);
        scenario.duration_hours = duration_hours;
        plan.add(
            format!("density-{density}"),
            scenario,
            ExperimentOverrides::default(),
        );
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_seeds_are_deterministic_and_distinct() {
        let a = density_fleet(42, &[100, 110, 120, 140], 6);
        let b = density_fleet(42, &[100, 110, 120, 140], 6);
        for (ja, jb) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(ja.seed, jb.seed);
            assert_eq!(ja.scenario.population_seed, jb.scenario.population_seed);
            assert_eq!(ja.scenario.plb_seed, jb.scenario.plb_seed);
        }
        let seeds: std::collections::BTreeSet<u64> = a.jobs().iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), 4, "per-job seeds must be distinct");
    }

    #[test]
    fn different_root_seed_changes_every_job() {
        let a = density_fleet(1, &[100, 110], 6);
        let b = density_fleet(2, &[100, 110], 6);
        for (ja, jb) in a.jobs().iter().zip(b.jobs()) {
            assert_ne!(ja.seed, jb.seed);
            assert_ne!(ja.scenario.population_seed, jb.scenario.population_seed);
        }
    }

    #[test]
    fn pinned_jobs_keep_scenario_seeds() {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(110);
        scenario.plb_seed = 777;
        let mut plan = FleetPlan::new(9);
        plan.add_pinned("repeat-0", scenario.clone(), ExperimentOverrides::default());
        assert_eq!(plan.jobs()[0].scenario.plb_seed, 777);
        assert_ne!(plan.jobs()[0].seed, 0);
    }
}
