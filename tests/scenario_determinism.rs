//! Determinism and oracle contracts of the scenario subsystem
//! (toto-scenario).
//!
//! The scenario DSL's whole value is that "data in, study out" loses
//! nothing over the hard-coded drivers. These tests pin that:
//!
//! 1. a scenario run produces **byte-identical run records** on 1 worker
//!    and on 8 workers;
//! 2. the built-in `density_sweep` scenario's records are byte-identical
//!    to the ones the hard-coded `density_fleet` plan (the §5.2 study)
//!    produces at the same horizon, and at its defaults (144 h, seed 42)
//!    it writes the committed `results/runs/fleet_runner/` records;
//! 3. perturbing the scenario seed diverges, and the structured trace
//!    diff names the first divergent event rather than just "differs";
//! 4. a `--seeds N` sweep leaves the base replica byte-identical to a
//!    single-seed run and emits per-KPI dispersion statistics; and
//! 5. a mis-fit workload aborts with the typed K-S oracle error before
//!    any simulation artifact is written; and
//! 6. a region scenario's `trace` flag reaches the region runner, so
//!    its ring traces are the ones a traced `RegionRunner` records.

use std::fs;
use std::path::{Path, PathBuf};
use toto_fleet::{density_fleet, FleetExecutor, NullObserver, RunStore};
use toto_region::{RegionRunner, RegionSpec};
use toto_scenario::{builtin, run, RunOptions, ScenarioDoc, ScenarioError};
use toto_trace::codec::decode;
use toto_trace::diff::{diff_traces, Divergence};

const HOURS: u64 = 2;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "toto-scenario-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The built-in density sweep, shortened to a CI-friendly horizon.
fn short_sweep() -> (ScenarioDoc, String) {
    let source = builtin("density_sweep")
        .expect("built-in exists")
        .to_string();
    let mut doc = ScenarioDoc::parse(&source).expect("built-in parses");
    doc.hours = Some(HOURS);
    (doc, source)
}

/// A single-density scenario for trace-level tests.
fn tiny_source(seed: u64) -> String {
    format!(
        "[scenario]\nname = \"tiny\"\nkind = \"fleet\"\nseed = {seed}\nhours = {HOURS}\n\n\
         [schedule]\ndensities = [110]\n"
    )
}

fn run_sweep(dir: &PathBuf, threads: usize, seeds: u64) -> RunStore {
    let (doc, source) = short_sweep();
    let options = RunOptions {
        threads,
        seeds,
        out: dir.display().to_string(),
    };
    let summary = run(&doc, &source, &options, &NullObserver).expect("scenario runs");
    assert_eq!(summary.failed, 0);
    assert!(summary.oracle_families >= 4, "baseline streams are scored");
    RunStore::new(dir)
}

/// File names directly under `dir`, sorted.
fn entry_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn scenario_records_are_byte_identical_on_1_and_8_workers() {
    let serial_dir = scratch_dir("serial");
    let parallel_dir = scratch_dir("parallel");
    run_sweep(&serial_dir, 1, 1);
    run_sweep(&parallel_dir, 8, 1);

    // The output directory is a pure function of the run: the store root
    // holds nothing beside `runs/`, and every file of the fleet except the
    // observational manifest (threads, wall-clock) matches byte for byte.
    let fleet = |root: &PathBuf| root.join("runs").join("density-sweep");
    for root in [&serial_dir, &parallel_dir] {
        assert_eq!(entry_names(root), ["runs"], "{}", root.display());
    }
    let files = entry_names(&fleet(&serial_dir));
    assert_eq!(files, entry_names(&fleet(&parallel_dir)));
    for expected in [
        "density-100.json",
        "density-110.json",
        "density-120.json",
        "density-140.json",
        "oracle.json",
        "density-sweep.scenario.toml",
    ] {
        assert!(files.iter().any(|f| f == expected), "missing {expected}");
    }
    for file in files.iter().filter(|f| *f != "manifest.json") {
        let a = fs::read(fleet(&serial_dir).join(file)).expect("serial artifact");
        let b = fs::read(fleet(&parallel_dir).join(file)).expect("parallel artifact");
        assert!(a == b, "{file}: 1-worker and 8-worker bytes must match");
    }

    let _ = fs::remove_dir_all(&serial_dir);
    let _ = fs::remove_dir_all(&parallel_dir);
}

#[test]
fn density_sweep_scenario_matches_the_hard_coded_fleet_byte_for_byte() {
    let scenario_dir = scratch_dir("scenario-vs-fleet");
    let reference_dir = scratch_dir("reference-fleet");
    let scenario = run_sweep(&scenario_dir, 2, 1);

    // The reference: the hard-coded §5.2 plan, at the same shortened
    // horizon, stored through the same machinery.
    let plan = density_fleet(42, &[100, 110, 120, 140], HOURS);
    let report = FleetExecutor::new(2).run(plan.jobs(), &NullObserver);
    assert!(report.all_completed());
    let reference = RunStore::new(&reference_dir);
    reference
        .save_run("reference", 42, &report)
        .expect("save reference fleet");

    // Run records carry no fleet name, so byte equality across the two
    // stores is exact equivalence of the studies.
    for density in [100u32, 110, 120, 140] {
        let label = format!("density-{density}");
        let a = scenario
            .record_bytes("density-sweep", &label)
            .expect("scenario record");
        let b = reference
            .record_bytes("reference", &label)
            .expect("reference record");
        assert!(
            a == b,
            "{label}: the data-driven scenario must reproduce the hard-coded study"
        );
    }

    let _ = fs::remove_dir_all(&scenario_dir);
    let _ = fs::remove_dir_all(&reference_dir);
}

#[test]
fn density_sweep_at_its_defaults_reproduces_the_pinned_ladder() {
    // `toto run density_sweep` as shipped (144 h, seed 42) writes the
    // §5.2 ladder's committed records byte for byte.
    let dir = scratch_dir("pinned-ladder");
    let source = builtin("density_sweep").expect("built-in exists");
    let doc = ScenarioDoc::parse(source).expect("built-in parses");
    let options = RunOptions {
        threads: 2,
        seeds: 1,
        out: dir.display().to_string(),
    };
    let summary = run(&doc, source, &options, &NullObserver).expect("density_sweep runs");
    assert_eq!((summary.completed, summary.failed), (4, 0));
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/runs/fleet_runner");
    for density in [100u32, 110, 120, 140] {
        let file = format!("density-{density}.json");
        let expected = fs::read(pinned.join(&file)).expect("pinned record");
        let actual = fs::read(summary.dir.join(&file)).expect("scenario record");
        assert!(actual == expected, "{file}: differs from the pinned ladder");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn perturbed_scenario_seed_diverges_at_a_nameable_trace_event() {
    let base_dir = scratch_dir("trace-base");
    let perturbed_dir = scratch_dir("trace-perturbed");

    let mut stores = Vec::new();
    for (seed, dir) in [(42u64, &base_dir), (43, &perturbed_dir)] {
        let source = tiny_source(seed);
        let mut doc = ScenarioDoc::parse(&source).expect("tiny scenario parses");
        doc.trace = true;
        let options = RunOptions {
            threads: 1,
            seeds: 1,
            out: dir.display().to_string(),
        };
        let summary = run(&doc, &source, &options, &NullObserver).expect("traced run");
        assert_eq!(summary.failed, 0);
        stores.push(RunStore::new(dir));
    }

    let a = decode(
        &stores[0]
            .trace_bytes("tiny", "density-110")
            .expect("base trace"),
    )
    .expect("base trace decodes");
    let b = decode(
        &stores[1]
            .trace_bytes("tiny", "density-110")
            .expect("perturbed trace"),
    )
    .expect("perturbed trace decodes");

    let report = diff_traces(&a, &b);
    assert!(
        !report.identical(),
        "different scenario seeds must diverge in the trace"
    );
    let index = match report.divergence.as_ref().expect("divergence present") {
        Divergence::Event { index } | Divergence::Length { index } => *index,
        Divergence::Schema => panic!("same writer, schemas must agree"),
    };
    assert!(index <= a.events.len().min(b.events.len()));

    let _ = fs::remove_dir_all(&base_dir);
    let _ = fs::remove_dir_all(&perturbed_dir);
}

#[test]
fn seed_sweep_keeps_the_base_replica_and_emits_dispersion_stats() {
    let single_dir = scratch_dir("sweep-single");
    let sweep_dir = scratch_dir("sweep-multi");
    let single = run_sweep(&single_dir, 2, 1);
    let sweep = run_sweep(&sweep_dir, 2, 3);

    // Replica 0 *is* the scenario as written: adding --seeds must not
    // move a single byte of the default run.
    for density in [100u32, 110, 120, 140] {
        let label = format!("density-{density}");
        let a = single
            .record_bytes("density-sweep", &label)
            .expect("single-seed record");
        let b = sweep
            .record_bytes("density-sweep", &label)
            .expect("sweep base record");
        assert!(
            a == b,
            "{label}: sweep base replica must equal single-seed run"
        );
        // Replicas exist and genuinely differ from the base.
        let r1 = sweep
            .record_bytes("density-sweep", &format!("s1-{label}"))
            .expect("replica 1 record");
        assert!(r1 != b, "{label}: replica 1 runs under a different root");
    }

    let stats = String::from_utf8(
        sweep
            .artifact_bytes("density-sweep", "sweep.json")
            .expect("sweep.json written"),
    )
    .expect("sweep.json is utf-8");
    assert!(stats.contains("\"seeds\": 3"), "{stats}");
    for key in ["density-140", "mean", "std_dev", "ci95", "adjusted_revenue"] {
        assert!(
            stats.contains(key),
            "sweep.json must report {key}:\n{stats}"
        );
    }
    assert!(
        stats.contains("\"n\": 3"),
        "three samples per KPI:\n{stats}"
    );
    // Single-seed runs also get a sweep.json, but its stats carry the
    // typed single-sample verdict: spread is unknown, not zero.
    let single_stats = String::from_utf8(
        single
            .artifact_bytes("density-sweep", "sweep.json")
            .expect("single-seed sweep.json written"),
    )
    .expect("sweep.json is utf-8");
    assert!(single_stats.contains("\"seeds\": 1"), "{single_stats}");
    assert!(
        single_stats.contains("\"verdict\": \"single_sample\""),
        "one sample must be flagged, not given a zero CI:\n{single_stats}"
    );
    assert!(
        single_stats.contains("\"std_dev\": null") && single_stats.contains("\"ci95\": null"),
        "single-sample spread must be null:\n{single_stats}"
    );
    assert!(
        !single_stats.contains("NaN"),
        "sweep.json must stay valid JSON:\n{single_stats}"
    );

    let _ = fs::remove_dir_all(&single_dir);
    let _ = fs::remove_dir_all(&sweep_dir);
}

#[test]
fn misfit_workload_aborts_with_the_typed_oracle_error_before_writing() {
    let dir = scratch_dir("misfit");
    // An absurd oracle domain: every K-S cell must clear p > 0.99. No
    // honestly-synthesized stream does, so the gate must trip.
    let source = format!(
        "{}\n[oracle]\nalpha = 0.99\nmin_acceptance = 1.0\n",
        tiny_source(42)
    );
    let doc = ScenarioDoc::parse(&source).expect("misfit scenario still parses");
    let options = RunOptions {
        threads: 1,
        seeds: 1,
        out: dir.display().to_string(),
    };
    let err =
        run(&doc, &source, &options, &NullObserver).expect_err("mis-fit workload must not run");
    match err {
        ScenarioError::Oracle(failure) => {
            assert!(!failure.family.is_empty(), "failure names a stream family");
            assert!(failure.acceptance < failure.min_acceptance);
        }
        other => panic!("expected ScenarioError::Oracle, got {other}"),
    }
    // Oracle-first: nothing may have been written.
    assert!(
        !dir.join("runs").exists(),
        "a gated scenario must not leave artifacts behind"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn traced_region_scenario_writes_the_ring_traces() {
    let dir = scratch_dir("region-trace");
    let source = format!(
        "[scenario]\nname = \"region-ci2\"\nkind = \"region\"\nhours = {HOURS}\n\
         trace = true\n\n[region]\nspec = \"ci2\"\n"
    );
    let doc = ScenarioDoc::parse(&source).expect("region scenario parses");
    let options = RunOptions {
        threads: 2,
        seeds: 1,
        out: dir.display().to_string(),
    };
    let summary = run(&doc, &source, &options, &NullObserver).expect("region scenario runs");
    assert_eq!(summary.failed, 0);

    let mut spec = RegionSpec::named("ci2").expect("built-in region");
    spec.duration_hours = HOURS;
    let runner = RegionRunner {
        threads: 2,
        trace: true,
        ..RegionRunner::default()
    };
    let reference = runner.run(&spec);
    let store = RunStore::new(&dir);
    assert_eq!(reference.report.completed().count(), 2);
    for (job, out) in reference.report.completed() {
        let expected = out.trace.as_ref().expect("the reference ring is traced");
        let actual = store
            .trace_bytes("region-ci2", &job.label)
            .unwrap_or_else(|e| panic!("{}: no ring trace written ({e})", job.label));
        assert!(
            actual == *expected,
            "{}: ring trace differs from the traced region runner's",
            job.label
        );
    }

    let _ = fs::remove_dir_all(&dir);
}
