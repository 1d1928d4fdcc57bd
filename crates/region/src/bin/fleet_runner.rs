//! `fleet_runner` — run a fleet of density experiments, or a whole
//! multi-ring region, in parallel and persist run artifacts.
//!
//! ```text
//! fleet_runner [--jobs N] [--threads T] [--hours H] [--seed S] [--out DIR] [--trace]
//!              [--chaos PLAN[@RING]] [--region SPEC]
//! ```
//!
//! Without `--region`, jobs cycle through the paper's density levels
//! (100, 110, 120, 140 %; §5.2). Each job gets a seed derived from
//! `--seed` via the workspace SplitMix64 scheme, so the artifact set is
//! a pure function of the arguments — re-running with the same arguments
//! reproduces every run record byte-for-byte, regardless of `--threads`.
//!
//! `--region SPEC` runs a region instead: SPEC is a built-in name
//! (`mixed4`, `ci2`, `lifecycle3`) or a path to a `<region>` XML file.
//! Each ring becomes one fleet job replaying the region plan's directed
//! schedule; artifacts land under `runs/region-<name>/` with per-ring
//! run records plus the `region.json` record and `region.trace`
//! control-plane trace.
//!
//! `--chaos PLAN` runs every job under a named fault-injection plan
//! (`toto-chaos`). With `--region`, `--chaos PLAN@RING` restricts the
//! plan to one named ring — and a decommission fault promotes to a
//! ring-lifecycle decommission: the region drains the ring's tenants
//! cross-ring at the fault hour. Chaos fleets write to their own
//! directory (`runs/<fleet>-chaos-<plan>/`) so plain-run artifacts are
//! never touched.

use toto_chaos::ChaosPlan;
use toto_fleet::{
    FleetExecutor, FleetManifest, ManifestJob, RunRecord, RunStore, StderrProgress,
    RUN_SCHEMA_VERSION,
};
use toto_region::{save_region_run, RegionRunner, RegionSpec};

/// The §5.2 density ladder the job list cycles through.
const DENSITIES: [u32; 4] = [100, 110, 120, 140];

struct Args {
    jobs: usize,
    threads: usize,
    hours: Option<u64>,
    seed: Option<u64>,
    out: String,
    trace: bool,
    chaos: Option<String>,
    chaos_ring: Option<String>,
    region: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: DENSITIES.len(),
        threads: std::thread::available_parallelism().map_or(4, usize::from),
        hours: None,
        seed: None,
        out: "results".to_string(),
        trace: false,
        chaos: None,
        chaos_ring: None,
        region: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--jobs" => args.jobs = value("--jobs").parse().expect("--jobs: integer"),
            "--threads" => args.threads = value("--threads").parse().expect("--threads: integer"),
            "--hours" => args.hours = Some(value("--hours").parse().expect("--hours: integer")),
            "--seed" => args.seed = Some(value("--seed").parse().expect("--seed: integer")),
            "--out" => args.out = value("--out"),
            "--trace" => args.trace = true,
            "--chaos" => {
                let spec = value("--chaos");
                match spec.split_once('@') {
                    Some((plan, ring)) => {
                        args.chaos = Some(plan.to_string());
                        args.chaos_ring = Some(ring.to_string());
                    }
                    None => args.chaos = Some(spec),
                }
            }
            "--region" => args.region = Some(value("--region")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: fleet_runner [--jobs N] [--threads T] [--hours H] \
                     [--seed S] [--out DIR] [--trace] [--chaos PLAN[@RING]] [--region SPEC]\n\
                     named chaos plans: {}\n\
                     named regions: {}",
                    ChaosPlan::NAMED.join(", "),
                    RegionSpec::NAMED.join(", ")
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }
    args
}

fn resolve_region(spec: &str) -> RegionSpec {
    if let Some(named) = RegionSpec::named(spec) {
        return named;
    }
    let xml = std::fs::read_to_string(spec).unwrap_or_else(|e| {
        panic!(
            "--region {spec:?} is neither a named region ({}) nor a readable XML file: {e}",
            RegionSpec::NAMED.join(", ")
        )
    });
    RegionSpec::parse(&xml).unwrap_or_else(|e| panic!("--region {spec}: {}", e.message))
}

fn run_region(args: &Args, chaos_plan: Option<ChaosPlan>) {
    let mut spec = resolve_region(args.region.as_deref().unwrap());
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    if let Some(hours) = args.hours {
        spec.duration_hours = hours;
    }
    let fleet_name = match &args.chaos {
        Some(plan) => format!("region-{}-chaos-{plan}", spec.name),
        None => format!("region-{}", spec.name),
    };
    let runner = RegionRunner {
        threads: args.threads,
        trace: args.trace,
        chaos: chaos_plan.unwrap_or_default(),
        chaos_ring: args.chaos_ring.clone(),
    };
    eprintln!(
        "[fleet_runner] region {} ({} rings) on {} threads, {}h, seed {}",
        spec.name,
        spec.rings.len(),
        args.threads,
        spec.duration_hours,
        spec.seed
    );
    let output = runner.run_observed(&spec, &fleet_name, &StderrProgress);
    let store = RunStore::new(&args.out);
    let dir = save_region_run(&store, &output).expect("write region artifacts");

    println!(
        "{:<12} {:>7} {:>6} {:>9} {:>8} {:>8} {:>8} {:>14}",
        "ring", "density", "nodes", "creates", "drops", "red_out", "red_in", "adj_revenue_$"
    );
    for ring in &output.record.rings {
        println!(
            "{:<12} {:>7} {:>6} {:>9} {:>8} {:>8} {:>8} {:>14.2}",
            ring.name,
            ring.density_percent,
            ring.node_count,
            ring.directed_creates,
            ring.directed_drops,
            ring.stats.redirects_out,
            ring.stats.redirects_in,
            ring.revenue.adjusted()
        );
    }
    println!(
        "\nregion {}: adjusted revenue {:.2} $, {} cross-ring redirects, {} out-of-region -> {}",
        output.record.region,
        output.record.region_revenue.adjusted(),
        output.record.cross_ring_redirects,
        output.record.out_of_region,
        dir.display()
    );
    if args.chaos.is_some() {
        println!("chaos oracle violations: {}", output.oracle_violations);
        if output.oracle_violations > 0 {
            std::process::exit(1);
        }
    }
    if !output.all_completed {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let chaos_plan = args.chaos.as_deref().map(|name| {
        ChaosPlan::named(name).unwrap_or_else(|| {
            panic!(
                "unknown chaos plan {name:?}; named plans: {}",
                ChaosPlan::NAMED.join(", ")
            )
        })
    });
    if args.region.is_some() {
        run_region(&args, chaos_plan);
        return;
    }
    if args.chaos_ring.is_some() {
        panic!("--chaos PLAN@RING targets a ring; it requires --region");
    }
    let hours = args.hours.unwrap_or(144);
    let seed = args.seed.unwrap_or(42);
    // Chaos fleets get their own directory so the pinned plain-run
    // artifacts under runs/fleet_runner/ stay byte-identical forever.
    let fleet_name = match &args.chaos {
        Some(name) => format!("fleet_runner-chaos-{name}"),
        None => "fleet_runner".to_string(),
    };
    let overrides = || toto::experiment::ExperimentOverrides {
        chaos: chaos_plan.clone().unwrap_or_default(),
        ..toto::experiment::ExperimentOverrides::default()
    };
    let densities: Vec<u32> = (0..args.jobs)
        .map(|i| DENSITIES[i % DENSITIES.len()])
        .collect();

    // Duplicate densities get distinct labels (and thus distinct seeds)
    // from their position in the ladder. Labels (hence seeds) do not
    // depend on the chaos plan: a chaos run perturbs the same baseline
    // run its plain twin executes.
    let mut plan = toto_fleet::FleetPlan::new(seed);
    if args.jobs == DENSITIES.len() {
        for &density in &densities {
            let mut scenario = toto_spec::ScenarioSpec::gen5_stage_cluster(density);
            scenario.duration_hours = hours;
            plan.add(format!("density-{density}"), scenario, overrides());
        }
    } else {
        for (i, &density) in densities.iter().enumerate() {
            let mut scenario = toto_spec::ScenarioSpec::gen5_stage_cluster(density);
            scenario.duration_hours = hours;
            plan.add(
                format!("job{i:03}-density-{density}"),
                scenario,
                overrides(),
            );
        }
    }

    if args.trace {
        plan.trace_all();
    }

    eprintln!(
        "[fleet_runner] {} jobs on {} threads, {}h each, root seed {}",
        plan.jobs().len(),
        args.threads,
        hours,
        seed
    );

    let executor = FleetExecutor::new(args.threads);
    let report = executor.run(plan.jobs(), &StderrProgress);

    let records: Vec<RunRecord> = report
        .completed()
        .map(|(job, out)| RunRecord::from_result(&job.label, job.seed, &out.result))
        .collect();
    let manifest = FleetManifest {
        schema_version: RUN_SCHEMA_VERSION,
        fleet: fleet_name,
        root_seed: seed,
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
    let store = RunStore::new(&args.out);
    let dir = store
        .save_fleet(&manifest, &records)
        .expect("write run artifacts");
    for (job, out) in report.completed() {
        if let Some(trace) = &out.trace {
            store
                .save_trace(&manifest.fleet, &job.label, trace)
                .expect("write trace sidecar");
        }
        if let Some(chaos) = &out.result.chaos {
            store
                .save_chaos(&manifest.fleet, &job.label, &chaos.to_json())
                .expect("write chaos sidecar");
        }
    }

    println!(
        "{:<24} {:>10} {:>14} {:>10} {:>10}",
        "job", "failovers", "adj_revenue_$", "redirects", "status"
    );
    for job in &report.jobs {
        match job.outcome.output() {
            Some(out) => println!(
                "{:<24} {:>10} {:>14.2} {:>10} {:>10}",
                job.label,
                out.result.telemetry.failover_count(None),
                out.result.revenue.adjusted(),
                out.result.redirect_count,
                job.outcome.status()
            ),
            None => println!(
                "{:<24} {:>10} {:>14} {:>10} {:>10}",
                job.label,
                "-",
                "-",
                "-",
                job.outcome.status()
            ),
        }
    }
    println!(
        "\n{} jobs in {:.1}s on {} threads ({:.2} jobs/s) -> {}",
        report.jobs.len(),
        report.wall_secs,
        report.threads,
        report.jobs_per_sec(),
        dir.display()
    );
    if args.chaos.is_some() {
        let violations: u64 = report
            .completed()
            .filter_map(|(_, out)| out.result.chaos.as_ref())
            .map(|c| c.oracle_violations)
            .sum();
        println!("chaos oracle violations: {violations}");
        if violations > 0 {
            std::process::exit(1);
        }
    }
    if !report.all_completed() {
        std::process::exit(1);
    }
}
