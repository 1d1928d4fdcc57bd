//! Per-layer probes that call public layer functions directly, for
//! costs the event stream cannot split out: the PLB decision kernels on
//! the shared fixture rings, and one invariant-oracle check.

use crate::workloads::{find, Workload};
use std::hint::black_box;
use std::time::Instant;
use toto::bootstrap::bootstrap_population;
use toto_bench::fixtures::{bc_spec, loaded_cluster_at, push_three_disk_violations};
use toto_chaos::oracle::InvariantOracle;
use toto_controlplane::slo::SloCatalog;
use toto_fabric::cluster::{Cluster, ClusterConfig};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::naming::NamingService;
use toto_fabric::plb::{Plb, PlbConfig};
use toto_rgmanager::{persisted_state_key, MODEL_KEY};
use toto_scenario::{compile, CompiledScenario, ScenarioDoc};
use toto_simcore::rng::stable_id;
use toto_simcore::time::SimTime;
use toto_spec::ResourceKind;

/// Repeats per probe; the median is reported.
const REPEATS: usize = 5;

fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| sample()).collect();
    crate::quartiles(&samples).expect("REPEATS > 0")[1]
}

fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// The six PLB kernels on `toto_bench::fixtures` rings of 100 and 1,000
/// nodes (16 services per node): a 4-replica BC placement, a violation
/// scan, and a fix-violations pass over three induced disk violations.
/// Same fixtures and work as the criterion benches in `crates/bench`.
pub fn plb() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (nodes, names) in [
        (
            100u32,
            [
                "plb.place_bc_x4_ring_100_ns",
                "plb.violation_scan_ring_100_ns",
                "plb.fix_violations_ring_100_ns",
            ],
        ),
        (
            1000,
            [
                "plb.place_bc_x4_ring_1000_ns",
                "plb.violation_scan_ring_1000_ns",
                "plb.fix_violations_ring_1000_ns",
            ],
        ),
    ] {
        let (cluster, cpu, disk) = loaded_cluster_at(nodes, u64::from(nodes) * 16);
        let spec = bc_spec(&cluster, cpu, disk);
        let place = median_of(|| {
            let mut plb = Plb::new(PlbConfig::default(), 77);
            ns_per_iter(200, || {
                black_box(
                    plb.place_new_service(&cluster, &spec)
                        .expect("the fixture ring has room for a BC"),
                );
            })
        });
        let scan = median_of(|| {
            ns_per_iter(20_000, || {
                black_box(cluster.violations());
            })
        });
        let fix = median_of(|| {
            // The clone and the induced violations stay outside the
            // timed region.
            const PASSES: u32 = 8;
            let mut total = 0.0;
            for _ in 0..PASSES {
                let mut dirty = cluster.clone();
                push_three_disk_violations(&mut dirty, disk);
                let mut plb = Plb::new(PlbConfig::default(), 3);
                total += ns_per_iter(1, || {
                    black_box(plb.fix_violations(&mut dirty, SimTime::from_secs(60)));
                });
            }
            total / f64::from(PASSES)
        });
        out.extend(names.into_iter().zip([place, scan, fix]));
    }
    out
}

/// Microseconds per `InvariantOracle::check` on the `storm_smoke` ring
/// at root seed `seed`: the ring is bootstrapped with the public
/// `bootstrap_population` under the job's own PLB seed, and the Naming
/// Service holds the model key and the persisted state a run starts
/// with, so a correct oracle reports no violation.
pub fn oracle_check_us(seed: u64) -> Result<f64, String> {
    let w: &Workload = find("storm_smoke").expect("storm_smoke is a workload");
    let doc = ScenarioDoc::parse(&w.source(seed)).map_err(|e| e.to_string())?;
    let CompiledScenario::Fleet(fleet) = compile(&doc).map_err(|e| e.to_string())? else {
        return Err("storm_smoke is not a fleet scenario".to_string());
    };
    let scenario = &fleet.jobs.first().ok_or("storm_smoke has no job")?.scenario;

    // The ring exactly as `DensityExperiment::run` builds it.
    let mut metrics = MetricRegistry::new();
    let cpu = metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: scenario.cpu_capacity_per_node(),
        balancing_weight: 1.0,
    });
    let memory = metrics.register(MetricDef {
        name: "Memory".into(),
        node_capacity: scenario.memory_per_node_gb * 0.9,
        balancing_weight: 0.3,
    });
    let disk = metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: scenario.disk_capacity_per_node(),
        balancing_weight: 1.0,
    });
    let mut cluster = Cluster::new(ClusterConfig {
        node_count: scenario.node_count,
        metrics,
        fault_domains: scenario.fault_domains,
    });
    let config = PlbConfig::default();
    let mut plb = Plb::new(config.clone(), scenario.plb_seed);
    let report = bootstrap_population(
        &mut cluster,
        &mut plb,
        &SloCatalog::gen5(),
        scenario,
        cpu,
        memory,
        disk,
    )
    .map_err(|e| format!("bootstrapping the storm_smoke ring: {e:?}"))?;

    let mut naming = NamingService::new();
    naming.write(MODEL_KEY, "models");
    let mut identities = Vec::new();
    for (id, edition, _, initial_disk) in &report.services {
        let name = &cluster.service(*id).ok_or("bootstrap service exists")?.name;
        let identity = stable_id(name);
        identities.push(identity);
        if edition.disk_is_persisted() {
            naming.write(
                &persisted_state_key(ResourceKind::Disk, identity),
                format!("{initial_disk:?}"),
            );
        }
    }

    const CHECKS: u32 = 100;
    let mut oracle = InvariantOracle::new(config.placement_headroom);
    let t = Instant::now();
    for _ in 0..CHECKS {
        black_box(oracle.check(&cluster, &naming, identities.iter().copied()));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(CHECKS);
    if oracle.violations > 0 {
        return Err(format!(
            "invariant oracle reported {} violations on a freshly bootstrapped ring",
            oracle.violations
        ));
    }
    Ok(us)
}
