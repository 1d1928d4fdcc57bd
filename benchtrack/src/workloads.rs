//! The four workloads, and one pass of a workload through the path a
//! user's scenario takes: TOML → `compile` → K-S gate →
//! `FleetExecutor` → `RunStore`.
//!
//! Each fleet job runs inside [`PhasedJob`], a bench-side `FleetTask`
//! that installs one of the [`crate::layer`] sinks and then calls the
//! product's own `FleetJob::execute`. Nothing inside the simulator
//! changes and no clock is read there.

use crate::layer::{JobSink, KindCounter, LayerClock, PhaseMarks, Probe, Slot};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use toto_fleet::{
    FleetExecutor, FleetJob, FleetManifest, FleetTask, JobOutcome, JobOutput, ManifestJob,
    NullObserver, RunRecord, RunStore, RUN_SCHEMA_VERSION,
};
use toto_scenario::runner::sweep_seed;
use toto_scenario::{compile, CompiledScenario, ScenarioDoc};
use toto_trace::{BufferSink, SessionGuard, Shared};

/// One benchmark workload: a fleet scenario plus how it is run. The
/// reasons each exists are in `BENCHMARK.json` and the README.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in results.
    pub name: &'static str,
    /// The scenario's `[schedule]` section.
    pub schedule: &'static str,
    /// The named chaos plan, if any.
    pub chaos: Option<&'static str>,
    /// Simulated hours per job.
    pub hours: u64,
    /// Seed replicas, as `scenario_runner --seeds` runs them.
    pub replicas: u64,
    /// Fleet worker threads.
    pub workers: usize,
    /// Whether jobs record the product's trace.
    pub trace: bool,
}

/// The paper's gen5 14-node stage ring at its four densities (§5.2).
const GEN5_LADDER: &str = "[schedule]\ndensities = [100, 110, 120, 140]\n";

/// The built-in `hyperscale_smoke` ring: 100 nodes, 10k databases.
const SMOKE_RING: &str = "[schedule]\ndensities = [140]\nnode_count = 100\n\
    bootstrap_gp = 8500\nbootstrap_bc = 1500\ncores_per_node = 672\nmemory_per_node_gb = 4096\n";

/// The built-in `hyperscale` ring: 1,000 nodes, 100k databases.
const HYPERSCALE_RING: &str = "[schedule]\ndensities = [140]\nnode_count = 1000\n\
    bootstrap_gp = 85000\nbootstrap_bc = 15000\ncores_per_node = 672\nmemory_per_node_gb = 4096\n";

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ladder",
        schedule: GEN5_LADDER,
        chaos: None,
        hours: 144,
        replicas: 4,
        workers: 1,
        trace: false,
    },
    Workload {
        name: "smoke_traced",
        schedule: SMOKE_RING,
        chaos: None,
        hours: 24,
        replicas: 1,
        workers: 1,
        trace: true,
    },
    Workload {
        name: "boot_1k",
        schedule: HYPERSCALE_RING,
        chaos: None,
        hours: 2,
        replicas: 1,
        workers: 1,
        trace: false,
    },
    Workload {
        name: "storm_smoke",
        schedule: SMOKE_RING,
        chaos: Some("storm"),
        hours: 24,
        replicas: 1,
        workers: 1,
        trace: false,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario source for root seed `seed`, as a user would write it.
    pub fn source(&self, seed: u64) -> String {
        let chaos = self
            .chaos
            .map(|plan| format!("\n[chaos]\nplan = \"{plan}\"\n"))
            .unwrap_or_default();
        format!(
            "[scenario]\nname = \"{}\"\nkind = \"fleet\"\nseed = {seed}\nhours = {}\ntrace = {}\n\n{}{chaos}",
            self.name, self.hours, self.trace, self.schedule
        )
    }
}

/// Which sink each job of a pass installs.
pub enum Pass {
    /// [`PhaseMarks`]: end-to-end timing.
    Measure,
    /// [`KindCounter`]: event counts and dispatch classes.
    Count,
    /// [`LayerClock`], with each job's dispatch classes by job index.
    Time(Vec<Arc<[Slot]>>),
}

/// A fleet job run under a bench sink.
struct PhasedJob<'a> {
    job: &'a FleetJob,
    index: usize,
    pass: &'a Pass,
}

/// What one [`PhasedJob`] returns.
pub struct JobRun {
    /// The product's output: result and, if the job traces, its bytes.
    pub output: JobOutput,
    /// Host time the job started.
    pub start: Instant,
    /// What the installed sink measured.
    pub probe: Probe,
}

impl FleetTask for PhasedJob<'_> {
    type Output = JobRun;

    fn label(&self) -> String {
        self.job.label.clone()
    }

    fn seed(&self) -> u64 {
        self.job.seed
    }

    fn run(&self) -> JobRun {
        let trace = self.job.trace.then(BufferSink::new);
        let start = Instant::now();
        match self.pass {
            Pass::Measure => execute(self.job, start, PhaseMarks::new(trace)),
            Pass::Count => execute(self.job, start, KindCounter::new(trace)),
            Pass::Time(classes) => {
                let classes = classes.get(self.index).cloned().unwrap_or_default();
                execute(self.job, start, LayerClock::new(trace, classes, start))
            }
        }
    }
}

fn execute(job: &FleetJob, start: Instant, sink: impl JobSink) -> JobRun {
    let sink = Shared::new(sink);
    let guard = SessionGuard::install(Box::new(sink.clone()));
    let result = job.execute();
    drop(guard);
    let (probe, trace) = sink.with(|s| s.finish(Instant::now()));
    JobRun {
        output: JobOutput { result, trace },
        start,
        probe,
    }
}

/// One completed job of an [`Iteration`].
pub struct JobResult {
    /// Position in the fleet (the index [`Pass::Time`] classes use).
    pub index: usize,
    /// Job label.
    pub label: String,
    /// Wall-clock the executor measured around the job.
    pub wall: Duration,
    /// The sink's measurement.
    pub probe: Probe,
    /// Job start, as the sink saw it.
    pub start: Instant,
    /// The job's rendered run record, as `RunStore` writes it.
    pub record: String,
    /// Length and digest of the product's trace, if the job traces.
    pub trace: Option<(usize, u64)>,
    /// Chaos oracle checks and violations, if the job ran a chaos plan.
    pub chaos: Option<(u64, u64)>,
}

/// One pass of a workload, timed around each step.
pub struct Iteration {
    /// Fleet worker threads.
    pub workers: usize,
    /// From the first compile to the last store write.
    pub wall: Duration,
    /// `compile`, over every seed replica.
    pub compile: Duration,
    /// The K-S gate (`oracle().check()`), over every seed replica.
    pub ks_gate: Duration,
    /// `FleetExecutor::run`.
    pub exec: Duration,
    /// Building and writing records, traces, chaos reports and the
    /// scenario artifacts.
    pub store: Duration,
    /// Process CPU time over `wall`, seconds.
    pub cpu: f64,
    /// Jobs planned.
    pub planned: usize,
    /// Completed jobs, in submission order.
    pub jobs: Vec<JobResult>,
    /// Jobs that failed or were cancelled, with their status.
    pub failed: Vec<String>,
}

/// FNV-1a over `bytes`: the hash `toto_simcore::rng::stable_id` applies
/// to a string, usable on the binary trace.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Run workload `w` once at root seed `seed`, writing artifacts under
/// `root` and deleting them afterwards.
pub fn run_iteration(
    w: &Workload,
    seed: u64,
    pass: &Pass,
    root: &Path,
) -> Result<Iteration, String> {
    let source = w.source(seed);
    let cpu_before = crate::cpu_seconds();
    let started = Instant::now();

    let base = ScenarioDoc::parse(&source).map_err(|e| e.to_string())?;
    let mut compile_time = Duration::ZERO;
    let mut ks_gate = Duration::ZERO;
    let mut jobs: Vec<FleetJob> = Vec::new();
    let mut first = None;
    for k in 0..w.replicas.max(1) {
        let mut doc = base.clone();
        if k > 0 {
            doc.seed = Some(sweep_seed(seed, k));
        }
        let t = Instant::now();
        let compiled = compile(&doc).map_err(|e| e.to_string())?;
        compile_time += t.elapsed();
        let CompiledScenario::Fleet(fleet) = compiled else {
            return Err(format!("workload {} is not a fleet scenario", w.name));
        };
        let t = Instant::now();
        fleet.oracle.check().map_err(|e| e.to_string())?;
        ks_gate += t.elapsed();
        for mut job in fleet.jobs.iter().cloned() {
            if k > 0 {
                job.label = format!("s{k}-{}", job.label);
            }
            jobs.push(job);
        }
        first.get_or_insert(fleet);
    }
    let fleet = first.expect("at least one replica compiles");

    let tasks: Vec<PhasedJob> = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| PhasedJob { job, index, pass })
        .collect();
    let t = Instant::now();
    let report = FleetExecutor::new(w.workers).run(&tasks, &NullObserver);
    let exec = t.elapsed();

    let t = Instant::now();
    let io = |e: std::io::Error| format!("writing artifacts under {}: {e}", root.display());
    let store = RunStore::new(root);
    let records: Vec<RunRecord> = report
        .completed()
        .map(|(job, out)| RunRecord::from_result(&job.label, job.seed, &out.output.result))
        .collect();
    let manifest = FleetManifest {
        schema_version: RUN_SCHEMA_VERSION,
        fleet: fleet.fleet_name.clone(),
        root_seed: fleet.root_seed,
        threads: report.threads as u64,
        wall_secs: report.wall_secs,
        jobs: report
            .jobs
            .iter()
            .map(|j| ManifestJob {
                label: j.label.clone(),
                seed: j.seed,
                status: j.outcome.status().to_string(),
                wall_secs: j.wall_secs,
            })
            .collect(),
    };
    store.save_fleet(&manifest, &records).map_err(io)?;
    for (job, out) in report.completed() {
        if let Some(trace) = &out.output.trace {
            store
                .save_trace(&fleet.fleet_name, &job.label, trace)
                .map_err(io)?;
        }
        if let Some(chaos) = &out.output.result.chaos {
            store
                .save_chaos(&fleet.fleet_name, &job.label, &chaos.to_json())
                .map_err(io)?;
        }
    }
    let scenario_file = format!("{}.scenario.toml", fleet.fleet_name);
    store
        .save_artifact(&fleet.fleet_name, &scenario_file, source.as_bytes())
        .map_err(io)?;
    store
        .save_artifact(
            &fleet.fleet_name,
            "oracle.json",
            fleet.oracle.to_json().render().as_bytes(),
        )
        .map_err(io)?;
    let store_time = t.elapsed();
    let wall = started.elapsed();
    let cpu = crate::cpu_seconds() - cpu_before;
    std::fs::remove_dir_all(root).map_err(io)?;

    let mut done = Vec::new();
    let mut failed = Vec::new();
    let mut records = records.into_iter();
    for job in report.jobs {
        let run = match job.outcome {
            JobOutcome::Completed(run) => run,
            JobOutcome::Failed(message) => {
                failed.push(format!("job {} failed: {message}", job.label));
                continue;
            }
            JobOutcome::Cancelled => {
                failed.push(format!("job {} was cancelled", job.label));
                continue;
            }
        };
        let record = records.next().expect("one record per completed job");
        done.push(JobResult {
            index: job.index,
            label: job.label,
            wall: Duration::from_secs_f64(job.wall_secs),
            probe: run.probe,
            start: run.start,
            record: record.to_json().render(),
            trace: run.output.trace.as_ref().map(|t| (t.len(), digest(t))),
            chaos: run
                .output
                .result
                .chaos
                .as_ref()
                .map(|c| (c.oracle_checks, c.oracle_violations)),
        });
    }
    Ok(Iteration {
        workers: report.threads,
        wall,
        compile: compile_time,
        ks_gate,
        exec,
        store: store_time,
        cpu,
        planned: jobs.len(),
        jobs: done,
        failed,
    })
}
