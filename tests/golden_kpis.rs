//! Golden-KPI snapshot tests: one pinned (spec, seed) run per density
//! tier, its full `KpiSummary` pinned as canonical JSON under
//! `tests/golden/`. Any change to simulation semantics — event ordering,
//! RNG consumption, placement decisions, KPI accounting — shows up here
//! as a readable field-level diff instead of a silent drift.
//!
//! When a change is *intentional*, regenerate the snapshots with
//!
//! ```text
//! TOTO_BLESS=1 cargo test --test golden_kpis
//! ```
//!
//! and commit the updated `tests/golden/*.json` files alongside the
//! change that moved them.
//!
//! Besides the four single-ring density tiers, the built-in `ci2`
//! region is pinned the same way: its whole `region.json` record
//! (per-ring KPI digests, revenue splits, redirect attribution and the
//! region aggregates) is the snapshot, so drift anywhere in the region
//! pipeline — Phase A routing, directed replay, aggregation — is caught
//! field-by-field.
//!
//! Each of the six named chaos plans is pinned too (`chaos-<plan>.json`):
//! the density-140 tier's `KpiSummary` under that plan plus the run's
//! whole `ChaosReport`, so fault injection, recovery accounting and the
//! oracle's check count are held byte-for-byte.
//!
//! Three snapshots come out of `toto run`'s own artifacts: the
//! `hyperscale_smoke` run record, the `pool_packing` study's `pools.json`
//! and the `region.json` of the `lifecycle3` region under the
//! `decommission` chaos plan aimed at its `old` ring.

use toto::{ExperimentOverrides, ExperimentResult};
use toto_chaos::ChaosPlan;
use toto_fleet::FleetPlan;
use toto_spec::ScenarioSpec;
use toto_telemetry::kpi::KpiSummary;

/// The paper's §5.2 density ladder.
const DENSITIES: [u32; 4] = [100, 110, 120, 140];

/// Root seed and duration of the pinned runs. Short enough to run in a
/// tier-1 test, long enough to exercise failovers, growth, and
/// governance at every tier.
const GOLDEN_SEED: u64 = 42;
const GOLDEN_HOURS: u64 = 6;

/// Canonical snapshot encoding: sorted keys, `{:?}` floats (shortest
/// round-trip), one key per line — diffs read field-by-field.
fn kpi_json(k: &KpiSummary) -> String {
    format!(
        "{{\n  \"bc_failover_count\": {},\n  \"bootstrap_placement_failures\": {},\n  \
         \"contended_governance_passes\": {},\n  \"creation_redirects\": {},\n  \
         \"failed_over_cores\": {:?},\n  \"failover_count\": {},\n  \
         \"final_disk_gb\": {:?},\n  \"final_reserved_cores\": {:?},\n  \
         \"gp_failover_count\": {},\n  \"kpi_samples\": {},\n  \
         \"node_snapshot_count\": {},\n  \"throttled_core_intervals\": {:?},\n  \
         \"total_downtime_secs\": {:?}\n}}\n",
        k.bc_failover_count,
        k.bootstrap_placement_failures,
        k.contended_governance_passes,
        k.creation_redirects,
        k.failed_over_cores,
        k.failover_count,
        k.final_disk_gb,
        k.final_reserved_cores,
        k.gp_failover_count,
        k.kpi_samples,
        k.node_snapshot_count,
        k.throttled_core_intervals,
        k.total_downtime_secs,
    )
}

/// The pinned run for one tier under `overrides`: seeds derived exactly
/// as the `density_sweep` scenario derives them, so the snapshot covers
/// the production seed path too.
fn golden_run(density: u32, overrides: ExperimentOverrides) -> ExperimentResult {
    let mut scenario = ScenarioSpec::gen5_stage_cluster(density);
    scenario.duration_hours = GOLDEN_HOURS;
    let mut plan = FleetPlan::new(GOLDEN_SEED);
    plan.add(format!("density-{density}"), scenario, overrides);
    let job = &plan.jobs()[0];
    job.execute()
}

/// Compare `actual` with `tests/golden/<name>.json`, or rewrite the
/// snapshot under `TOTO_BLESS`.
fn check_snapshot(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    if std::env::var_os("TOTO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate with \
             TOTO_BLESS=1 cargo test --test golden_kpis",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "snapshot {name} drifted; if the change is intentional, \
         regenerate with TOTO_BLESS=1 cargo test --test golden_kpis"
    );
}

fn check_tier(density: u32) {
    let result = golden_run(density, ExperimentOverrides::default());
    check_snapshot(
        &format!("density-{density}"),
        &kpi_json(&result.telemetry.summarize()),
    );
}

/// The density-140 tier under the named chaos plan `plan`: its KPIs and
/// its chaos report, one JSON object.
fn check_chaos(plan: &str) {
    let overrides = ExperimentOverrides {
        chaos: ChaosPlan::named(plan).expect("built-in chaos plan"),
        ..ExperimentOverrides::default()
    };
    let result = golden_run(DENSITIES[3], overrides);
    let chaos = result.chaos.expect("a chaos run returns a chaos report");
    let actual = format!(
        "{{\n\"kpis\": {},\n\"chaos\": {}}}\n",
        kpi_json(&result.telemetry.summarize()).trim_end(),
        chaos.to_json().trim_end()
    );
    check_snapshot(&format!("chaos-{plan}"), &actual);
}

#[test]
fn golden_kpis_density_100() {
    check_tier(DENSITIES[0]);
}

#[test]
fn golden_kpis_density_110() {
    check_tier(DENSITIES[1]);
}

#[test]
fn golden_kpis_density_120() {
    check_tier(DENSITIES[2]);
}

#[test]
fn golden_kpis_density_140() {
    check_tier(DENSITIES[3]);
}

#[test]
fn golden_chaos_node_crash() {
    check_chaos("node-crash");
}

#[test]
fn golden_chaos_storm() {
    check_chaos("storm");
}

#[test]
fn golden_chaos_degrade() {
    check_chaos("degrade");
}

#[test]
fn golden_chaos_report_loss() {
    check_chaos("report-loss");
}

#[test]
fn golden_chaos_rolling() {
    check_chaos("rolling");
}

#[test]
fn golden_chaos_decommission() {
    check_chaos("decommission");
}

/// Run a scenario end to end into a fresh temporary store and return the
/// bytes of `file` from its fleet directory `runs/<fleet>/`.
fn scenario_artifact(
    tag: &str,
    doc: &toto_scenario::ScenarioDoc,
    source: &str,
    file: &str,
) -> String {
    let out = std::env::temp_dir().join(format!("toto-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let options = toto_scenario::runner::RunOptions {
        threads: 2,
        seeds: 1,
        out: out.to_string_lossy().to_string(),
    };
    let summary = toto_scenario::runner::run(doc, source, &options, &toto_fleet::NullObserver)
        .unwrap_or_else(|e| panic!("{tag} runs clean: {e}"));
    assert_eq!(summary.failed, 0, "{tag} jobs must complete");
    assert_eq!(summary.chaos_violations, 0, "{tag} oracles stay quiet");
    let path = summary.dir.join(file);
    let actual = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing artifact {} ({e})", path.display()));
    let _ = std::fs::remove_dir_all(&out);
    actual
}

/// A built-in scenario end to end: resolve → run → one artifact's bytes.
fn builtin_artifact(name: &str, file: &str) -> String {
    let resolved = toto_scenario::cli::resolve(name).expect("built-in scenario resolves");
    scenario_artifact(name, &resolved.doc, &resolved.source, file)
}

#[test]
fn golden_hyperscale_smoke() {
    // The built-in hyperscale_smoke scenario end-to-end: pin the whole run
    // record (`density-140.json`) byte-for-byte. The record carries the
    // full KPI block, revenue, the rendered scenario XML and the derived
    // seed, but no wall-clock fields, so it is byte-identical across
    // machines and `--threads` values.
    let actual = builtin_artifact("hyperscale_smoke", "density-140.json");
    check_snapshot("hyperscale-smoke", &actual);
}

#[test]
fn golden_pool_packing() {
    // The built-in pools study's whole `pools.json`: the reservation
    // comparison and the member and cluster disk after the simulated day.
    let actual = builtin_artifact("pool_packing", "pools.json");
    check_snapshot("pool-packing", &actual);
}

#[test]
fn golden_region_ci2() {
    let spec = toto_region::RegionSpec::named("ci2").expect("built-in region");
    let output = toto_region::RegionRunner::default().run(&spec);
    assert!(
        output.report.all_completed(),
        "region ring jobs must complete"
    );
    let actual = output.record.to_json().render() + "\n";
    check_snapshot("region-ci2", &actual);
}

#[test]
fn golden_region_lifecycle3_decommission() {
    // The `lifecycle3` region with its `old` ring decommissioned by the
    // chaos plan, run through `toto run`: the whole `region.json`, so the
    // cross-ring drain, the absorbers' failovers and revenue are pinned.
    let source = "[scenario]\nname = \"lifecycle3-decommission\"\nkind = \"region\"\n\n\
                  [region]\nspec = \"lifecycle3\"\n\n\
                  [chaos]\nplan = \"decommission\"\nring = \"old\"\n";
    let doc = toto_scenario::ScenarioDoc::parse(source).expect("region scenario parses");
    let actual = scenario_artifact("lifecycle3", &doc, source, "region.json");
    check_snapshot("region-lifecycle3-decommission", &actual);
}
