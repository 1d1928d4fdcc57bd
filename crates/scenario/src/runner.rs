//! Scenario execution: oracle gate → fleet/region/pools run → artifacts.
//!
//! The runner enforces the oracle-first discipline: a compiled
//! scenario's K-S verdicts are checked *before* any simulation runs, so
//! a mis-fit workload aborts with a typed
//! [`ScenarioError::Oracle`] and writes nothing. On success, artifacts
//! land under `results/runs/<name>/` — run records, manifest, optional
//! trace/chaos sidecars — plus the scenario source
//! (`<name>.scenario.toml`), the oracle verdicts (`oracle.json`), and
//! per-KPI dispersion statistics (`sweep.json`). Everything is
//! byte-deterministic at any worker count.

use crate::compile::{compile, CompiledFleet, CompiledPools, CompiledRegion, CompiledScenario};
use crate::doc::ScenarioDoc;
use crate::error::ScenarioError;
use crate::oracle::KsOracle;
use std::collections::BTreeMap;
use std::path::PathBuf;
use toto::defaults::gen5_model_set;
use toto::pools::{reservation_comparison, ElasticPool};
use toto_fabric::cluster::{Cluster, ClusterConfig, ServiceSpec};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::plb::{Plb, PlbConfig};
use toto_fleet::{
    kpis_to_json, FleetExecutor, FleetJob, FleetObserver, FleetReport, JobOutput, Json, RunRecord,
    RunStore,
};
use toto_models::compiled::CompiledModelSet;
use toto_region::{RegionRunner, REGION_RECORD_FILE, REGION_TRACE_FILE};
use toto_simcore::rng::SeedTree;
use toto_simcore::time::SimTime;
use toto_spec::EditionKind;
use toto_stats::describe;

/// How to execute a compiled scenario.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Fleet worker threads.
    pub threads: usize,
    /// Seed replicas: 1 runs the scenario as written (its `sweep.json`
    /// carries the single-sample verdict); N > 1 adds N−1 re-rooted
    /// replicas and emits full dispersion statistics.
    pub seeds: u64,
    /// Artifact store root (conventionally `results`).
    pub out: String,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: 1,
            seeds: 1,
            out: "results".to_string(),
        }
    }
}

/// What a finished scenario run reports back.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Artifact directory.
    pub dir: PathBuf,
    /// Fleet name (the directory's stem under `runs/`).
    pub fleet_name: String,
    /// Jobs that completed (rings, for a region run).
    pub completed: usize,
    /// Jobs that failed or were cancelled.
    pub failed: usize,
    /// Chaos invariant-oracle violations across all jobs.
    pub chaos_violations: u64,
    /// Stream families the K-S oracle scored (all passed, or we would
    /// not be here).
    pub oracle_families: usize,
}

fn io_err(path: impl Into<String>) -> impl FnOnce(std::io::Error) -> ScenarioError {
    let path = path.into();
    move |e| ScenarioError::Io {
        path,
        message: e.to_string(),
    }
}

/// Run a scenario end to end. `source` is the scenario's original text,
/// stored verbatim as the `<name>.scenario.toml` artifact.
pub fn run(
    doc: &ScenarioDoc,
    source: &str,
    options: &RunOptions,
    observer: &dyn FleetObserver,
) -> Result<RunSummary, ScenarioError> {
    let compiled = compile(doc)?;
    // The gate: a scenario whose synthesized streams do not fit their
    // trained models never simulates.
    compiled.oracle().check().map_err(ScenarioError::Oracle)?;
    match compiled {
        CompiledScenario::Fleet(fleet) => run_fleet(doc, fleet, source, options, observer),
        CompiledScenario::Region(region) => {
            if options.seeds > 1 {
                return Err(ScenarioError::invalid(
                    "--seeds sweeps apply to fleet scenarios; region runs take their \
                     seed from the region spec",
                ));
            }
            run_region(region, source, options, observer)
        }
        CompiledScenario::Pools(pools) => {
            if options.seeds > 1 {
                return Err(ScenarioError::invalid(
                    "--seeds sweeps apply to fleet scenarios, not the pools study",
                ));
            }
            run_pools(pools, source, options)
        }
    }
}

/// Derive replica `k`'s root seed from the scenario root: replica 0 *is*
/// the scenario as written, replicas 1.. re-root the whole plan.
pub fn sweep_seed(root_seed: u64, k: u64) -> u64 {
    SeedTree::new(root_seed).child("sweep", k).seed()
}

fn fleet_replica_jobs(
    doc: &ScenarioDoc,
    base: &CompiledFleet,
    seeds: u64,
) -> Result<Vec<FleetJob>, ScenarioError> {
    let mut jobs = base.jobs.clone();
    for k in 1..seeds {
        let mut replica_doc = doc.clone();
        replica_doc.seed = Some(sweep_seed(base.root_seed, k));
        let CompiledScenario::Fleet(replica) = compile(&replica_doc)? else {
            return Err(ScenarioError::invalid("fleet replica changed kind"));
        };
        // Each replica's streams must fit too — a sweep is N gated runs.
        replica.oracle.check().map_err(ScenarioError::Oracle)?;
        for mut job in replica.jobs {
            job.label = format!("s{k}-{}", job.label);
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// The numeric KPIs a record exposes to sweep statistics: every field of
/// the KPI summary, plus revenue and redirect totals.
fn kpi_values(record: &RunRecord) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Json::Obj(pairs) = kpis_to_json(&record.kpis) {
        for (key, value) in pairs {
            if let Some(v) = value.as_f64() {
                out.push((key, v));
            }
        }
    }
    out.push(("adjusted_revenue".to_string(), record.revenue.adjusted()));
    out.push(("redirect_count".to_string(), record.redirect_count as f64));
    out.push((
        "created_during_run".to_string(),
        record.created_during_run as f64,
    ));
    out
}

/// Base label of a possibly replica-prefixed job label (`s3-density-110`
/// → `density-110`).
fn base_label(label: &str) -> &str {
    match label.split_once('-') {
        Some((prefix, rest))
            if prefix.len() >= 2
                && prefix.starts_with('s')
                && prefix[1..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            rest
        }
        _ => label,
    }
}

fn sweep_json(records: &[RunRecord], seeds: u64) -> Json {
    // base label -> kpi -> samples across replicas.
    let mut samples: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for record in records {
        let per_label = samples.entry(base_label(&record.label)).or_default();
        for (kpi, value) in kpi_values(record) {
            per_label.entry(kpi).or_default().push(value);
        }
    }
    let labels: Vec<(&str, Json)> = samples
        .iter()
        .map(|(label, kpis)| {
            let stats: Vec<(&str, Json)> = kpis
                .iter()
                .map(|(kpi, xs)| {
                    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    // The typed verdict keeps a single-seed sweep honest:
                    // one sample has *unknown* spread, so std_dev/ci95
                    // are null rather than a false-certainty 0.0.
                    let stat = match describe::dispersion(xs) {
                        describe::Dispersion::Empty => Json::obj(vec![
                            ("verdict", Json::Str("empty".into())),
                            ("n", Json::Uint(0)),
                        ]),
                        describe::Dispersion::SingleSample { value } => Json::obj(vec![
                            ("verdict", Json::Str("single_sample".into())),
                            ("mean", Json::Num(value)),
                            ("std_dev", Json::Null),
                            ("ci95", Json::Null),
                            ("min", Json::Num(value)),
                            ("max", Json::Num(value)),
                            ("n", Json::Uint(1)),
                        ]),
                        describe::Dispersion::Spread {
                            n,
                            mean,
                            std_dev,
                            ci95,
                        } => Json::obj(vec![
                            ("verdict", Json::Str("spread".into())),
                            ("mean", Json::Num(mean)),
                            ("std_dev", Json::Num(std_dev)),
                            ("ci95", Json::Num(ci95)),
                            ("min", Json::Num(min)),
                            ("max", Json::Num(max)),
                            ("n", Json::Uint(n as u64)),
                        ]),
                    };
                    (kpi.as_str(), stat)
                })
                .collect();
            (*label, Json::obj(stats))
        })
        .collect();
    Json::obj(vec![
        ("seeds", Json::Uint(seeds)),
        ("labels", Json::obj(labels)),
    ])
}

fn save_scenario_artifacts(
    store: &RunStore,
    fleet_name: &str,
    source: &str,
    oracle: &KsOracle,
) -> Result<(), ScenarioError> {
    let scenario_file = format!("{fleet_name}.scenario.toml");
    store
        .save_artifact(fleet_name, &scenario_file, source.as_bytes())
        .map_err(io_err(scenario_file))?;
    let oracle_json = oracle.to_json().render();
    store
        .save_artifact(fleet_name, "oracle.json", oracle_json.as_bytes())
        .map_err(io_err("oracle.json"))?;
    Ok(())
}

/// Store an executed fleet and the scenario artifacts, and summarize the
/// run from its report. Fleet and region runs both end here.
fn save_fleet_run(
    store: &RunStore,
    fleet_name: &str,
    root_seed: u64,
    report: &FleetReport<JobOutput>,
    source: &str,
    oracle: &KsOracle,
) -> Result<RunSummary, ScenarioError> {
    let dir = store
        .save_run(fleet_name, root_seed, report)
        .map_err(io_err(store.root().display().to_string()))?;
    save_scenario_artifacts(store, fleet_name, source, oracle)?;
    let completed = report.completed().count();
    Ok(RunSummary {
        dir,
        fleet_name: fleet_name.to_string(),
        completed,
        failed: report.jobs.len() - completed,
        chaos_violations: report
            .completed()
            .filter_map(|(_, out)| out.result.chaos.as_ref())
            .map(|c| c.oracle_violations)
            .sum(),
        oracle_families: oracle.families().len(),
    })
}

/// Execute the fleet's jobs (plus any `--seeds` replicas), store them and
/// the scenario artifacts, and write `sweep.json`.
fn run_fleet(
    doc: &ScenarioDoc,
    fleet: CompiledFleet,
    source: &str,
    options: &RunOptions,
    observer: &dyn FleetObserver,
) -> Result<RunSummary, ScenarioError> {
    let seeds = options.seeds.max(1);
    let jobs = fleet_replica_jobs(doc, &fleet, seeds)?;
    let fleet_name = fleet.fleet_name.as_str();
    let report = FleetExecutor::new(options.threads).run(&jobs, observer);
    let store = RunStore::new(&options.out);
    let summary = save_fleet_run(
        &store,
        fleet_name,
        fleet.root_seed,
        &report,
        source,
        &fleet.oracle,
    )?;
    // Always written, even at --seeds 1: the single-sample verdict in the
    // stats says "spread unknown" explicitly instead of the file silently
    // not existing (or, worse, reporting a zero CI).
    let sweep = sweep_json(&RunRecord::from_report(&report), seeds);
    store
        .save_artifact(fleet_name, "sweep.json", sweep.render().as_bytes())
        .map_err(io_err("sweep.json"))?;
    Ok(summary)
}

/// Run the region's rings, store them and the scenario artifacts, and
/// write the region record and control-plane trace.
fn run_region(
    region: CompiledRegion,
    source: &str,
    options: &RunOptions,
    observer: &dyn FleetObserver,
) -> Result<RunSummary, ScenarioError> {
    let runner = RegionRunner {
        threads: options.threads,
        trace: region.trace,
        chaos: region.chaos,
        chaos_ring: region.chaos_ring,
    };
    let output = runner.run_observed(&region.spec, observer);
    let fleet_name = region.fleet_name.as_str();
    let store = RunStore::new(&options.out);
    let summary = save_fleet_run(
        &store,
        fleet_name,
        region.spec.seed,
        &output.report,
        source,
        &region.oracle,
    )?;
    let record = output.record.to_json().render();
    store
        .save_artifact(fleet_name, REGION_RECORD_FILE, record.as_bytes())
        .map_err(io_err(REGION_RECORD_FILE))?;
    store
        .save_artifact(fleet_name, REGION_TRACE_FILE, &output.plan.trace)
        .map_err(io_err(REGION_TRACE_FILE))?;
    Ok(summary)
}

fn pools_ring() -> Cluster {
    let mut metrics = MetricRegistry::new();
    metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: 96.0,
        balancing_weight: 1.0,
    });
    metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: 7537.0,
        balancing_weight: 1.0,
    });
    Cluster::new(ClusterConfig {
        node_count: 14,
        metrics,
        fault_domains: 7,
    })
}

fn run_pools(
    pools: CompiledPools,
    source: &str,
    options: &RunOptions,
) -> Result<RunSummary, ScenarioError> {
    let (singleton_cores, pooled_cores) = reservation_comparison(
        pools.databases,
        pools.per_db_vcores,
        pools.member_sizes.first().map_or(20, |m| m.len() as u32),
        pools.pool_vcores,
        EditionKind::PremiumBc,
    );
    let members_per_pool = pools.member_sizes.first().map_or(0, Vec::len) as u32;
    let cpu_total = 14.0 * 96.0;
    let singleton_fit = (cpu_total / (pools.per_db_vcores as f64 * 4.0)) as u64;
    let pool_fit = (cpu_total / (pools.pool_vcores as f64 * 4.0)) as u64 * members_per_pool as u64;

    // Pack the pools onto a ring and drive their aggregate disk for a
    // simulated day, same mechanics as the hard-coded study — but every
    // fallible step is a typed error here, not a panic.
    let mut cluster = pools_ring();
    let mut plb = Plb::new(PlbConfig::default(), 3);
    let models = CompiledModelSet::compile(&gen5_model_set(pools.seed, 1200));
    let disk_id = cluster
        .metrics()
        .by_name("Disk")
        .ok_or_else(|| ScenarioError::invalid("pools ring has no Disk metric"))?;
    let cpu_id = cluster
        .metrics()
        .by_name("Cpu")
        .ok_or_else(|| ScenarioError::invalid("pools ring has no Cpu metric"))?;
    let mut placed = Vec::new();
    for (p, sizes) in pools.member_sizes.iter().enumerate() {
        let mut load = cluster.metrics().zero_load();
        load[cpu_id] = pools.pool_vcores as f64;
        load[disk_id] = 0.0;
        let spec = ServiceSpec {
            name: format!("pool-{p}"),
            tag: 0,
            replica_count: 4,
            default_load: load,
        };
        let id = plb
            .create_service(&mut cluster, &spec, SimTime::ZERO)
            .map_err(|e| ScenarioError::invalid(format!("pool-{p} placement failed: {e:?}")))?;
        let mut pool = ElasticPool::new(id, EditionKind::PremiumBc, pools.pool_vcores);
        for (m, &size) in sizes.iter().enumerate() {
            pool.add_member((p * 1000 + m) as u64, SimTime::ZERO, size);
        }
        placed.push(pool);
    }
    let mut aggregate_disk = 0.0;
    for step in 1..=72u64 {
        let now = SimTime::from_secs(7 * 86_400 + step * 1200);
        aggregate_disk = 0.0;
        for pool in &mut placed {
            let node = cluster
                .primary_of(pool.service)
                .map(|r| r.node.raw())
                .unwrap_or(0);
            let delta = pool.step_disk(&models, node, now);
            pool.report_to_cluster(&mut cluster, disk_id, delta);
            aggregate_disk += delta;
        }
    }
    cluster.check_invariants();

    let result = Json::obj(vec![
        ("pools", Json::Uint(pools.pools as u64)),
        ("members_per_pool", Json::Uint(members_per_pool as u64)),
        ("pool_vcores", Json::Uint(pools.pool_vcores as u64)),
        ("per_db_vcores", Json::Uint(pools.per_db_vcores as u64)),
        ("databases", Json::Uint(pools.databases as u64)),
        ("singleton_cores", Json::Num(singleton_cores)),
        ("pooled_cores", Json::Num(pooled_cores)),
        ("singleton_fit", Json::Uint(singleton_fit)),
        ("pool_fit", Json::Uint(pool_fit)),
        ("aggregate_member_disk_gb", Json::Num(aggregate_disk)),
        ("cluster_disk_gb", Json::Num(cluster.total_load(disk_id))),
        ("service_count", Json::Uint(cluster.service_count() as u64)),
        (
            "member_count",
            Json::Uint(placed.iter().map(|p| p.len() as u64).sum()),
        ),
    ]);
    let store = RunStore::new(&options.out);
    let dir = store
        .save_artifact(&pools.fleet_name, "pools.json", result.render().as_bytes())
        .map_err(io_err("pools.json"))?
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    save_scenario_artifacts(&store, &pools.fleet_name, source, &pools.oracle)?;
    Ok(RunSummary {
        dir,
        fleet_name: pools.fleet_name,
        completed: placed.len(),
        failed: 0,
        chaos_violations: 0,
        oracle_families: pools.oracle.families().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_label_strips_replica_prefixes_only() {
        assert_eq!(base_label("density-110"), "density-110");
        assert_eq!(base_label("s1-density-110"), "density-110");
        assert_eq!(base_label("s12-job003-density-140"), "job003-density-140");
        assert_eq!(base_label("storm-density-110"), "storm-density-110");
    }

    #[test]
    fn sweep_seeds_are_distinct_from_the_root_and_each_other() {
        let s1 = sweep_seed(42, 1);
        let s2 = sweep_seed(42, 2);
        assert_ne!(s1, 42);
        assert_ne!(s1, s2);
        assert_eq!(s1, sweep_seed(42, 1));
    }

    fn record(label: &str, seed: u64, revenue_adjusted: f64) -> RunRecord {
        let revenue = toto_telemetry::revenue::RevenueBreakdown {
            compute: revenue_adjusted,
            ..Default::default()
        };
        RunRecord {
            schema_version: toto_fleet::RUN_SCHEMA_VERSION,
            label: label.to_string(),
            seed,
            scenario_xml: String::new(),
            kpis: Default::default(),
            revenue,
            redirect_count: 0,
            created_during_run: 0,
        }
    }

    #[test]
    fn sweep_stats_single_seed_yields_single_sample_verdict() {
        // Regression: a --seeds 1 sweep used to report std_dev 0 / ci95 0
        // — false certainty from a Bessel n−1 = 0 denominator. One sample
        // now gets the typed verdict with null spread fields.
        let records = vec![record("density-110", 42, 1000.0)];
        let json = sweep_json(&records, 1);
        assert_eq!(json.get("seeds"), Some(&Json::Uint(1)));
        let stat = json
            .get("labels")
            .and_then(|l| l.get("density-110"))
            .and_then(|l| l.get("adjusted_revenue"))
            .expect("adjusted_revenue stats");
        assert_eq!(
            stat.get("verdict"),
            Some(&Json::Str("single_sample".into()))
        );
        assert_eq!(stat.get("n"), Some(&Json::Uint(1)));
        assert_eq!(stat.get("mean"), Some(&Json::Num(1000.0)));
        assert_eq!(stat.get("std_dev"), Some(&Json::Null));
        assert_eq!(stat.get("ci95"), Some(&Json::Null));
        // The rendered artifact must stay valid JSON — no NaN tokens.
        assert!(!json.render().contains("NaN"));
    }

    #[test]
    fn sweep_stats_two_seeds_yield_finite_spread() {
        let records = vec![
            record("density-110", 42, 1000.0),
            record("s1-density-110", 43, 1010.0),
        ];
        let json = sweep_json(&records, 2);
        let stat = json
            .get("labels")
            .and_then(|l| l.get("density-110"))
            .and_then(|l| l.get("adjusted_revenue"))
            .expect("adjusted_revenue stats");
        assert_eq!(stat.get("verdict"), Some(&Json::Str("spread".into())));
        assert_eq!(stat.get("n"), Some(&Json::Uint(2)));
        assert_eq!(stat.get("mean"), Some(&Json::Num(1005.0)));
        let Some(&Json::Num(sd)) = stat.get("std_dev") else {
            panic!("std_dev must be numeric at n = 2");
        };
        let Some(&Json::Num(ci)) = stat.get("ci95") else {
            panic!("ci95 must be numeric at n = 2");
        };
        // Sample sd of {1000, 1010} is 10/√2; ci95 = 1.96·sd/√2.
        assert!((sd - 10.0 / 2.0_f64.sqrt()).abs() < 1e-9);
        assert!((ci - 1.96 * sd / 2.0_f64.sqrt()).abs() < 1e-9);
        assert_eq!(stat.get("min"), Some(&Json::Num(1000.0)));
        assert_eq!(stat.get("max"), Some(&Json::Num(1010.0)));
    }
}
