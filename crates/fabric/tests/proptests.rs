//! Property-based tests: random operation sequences must preserve the
//! cluster's accounting invariants, and the PLB must never corrupt state.

use proptest::prelude::*;
use toto_fabric::cluster::{Cluster, ClusterConfig, ServiceSpec};
use toto_fabric::ids::{MetricId, NodeId, ReplicaId, ServiceId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::plb::{Plb, PlbConfig};
use toto_simcore::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Create { cpu: f64, disk: f64, replicas: u32 },
    Remove { index: usize },
    Report { index: usize, disk: f64 },
    FixViolations,
}

/// Raw cluster mutations for exercising the per-node cost cache: unlike
/// [`Op`], these drive `move_replica` directly (no PLB in between).
#[derive(Debug, Clone)]
enum CacheOp {
    Add { cpu: f64, disk: f64, replicas: u32 },
    Move { replica: usize, node: u32 },
    Report { replica: usize, disk: f64 },
    Drop { index: usize },
}

fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (1.0f64..16.0, 1.0f64..300.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| CacheOp::Add {
            cpu,
            disk,
            replicas
        }),
        (0usize..256, 0u32..8).prop_map(|(replica, node)| CacheOp::Move { replica, node }),
        (0usize..256, 0.0f64..900.0).prop_map(|(replica, disk)| CacheOp::Report { replica, disk }),
        (0usize..64).prop_map(|index| CacheOp::Drop { index }),
    ]
}

/// Fault-injection mutations interleaved with normal traffic: the chaos
/// engine's building blocks (crash / restart / degrade) driven directly
/// against the fabric, with the same invariants the engine's oracles
/// enforce at the experiment level.
#[derive(Debug, Clone)]
enum ChaosOp {
    Create {
        cpu: f64,
        disk: f64,
        replicas: u32,
    },
    Remove {
        index: usize,
    },
    Report {
        index: usize,
        disk: f64,
    },
    Crash {
        node: u32,
    },
    Restart {
        node: u32,
    },
    /// Shrink (or restore) disk capacity to `permille`/1000 of baseline.
    Degrade {
        permille: u32,
    },
    FixViolations,
}

fn chaos_op_strategy() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        (1.0f64..16.0, 1.0f64..300.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| {
            ChaosOp::Create {
                cpu,
                disk,
                replicas,
            }
        }),
        (0usize..64).prop_map(|index| ChaosOp::Remove { index }),
        (0usize..64, 0.0f64..900.0).prop_map(|(index, disk)| ChaosOp::Report { index, disk }),
        (0u32..8).prop_map(|node| ChaosOp::Crash { node }),
        (0u32..8).prop_map(|node| ChaosOp::Restart { node }),
        (300u32..=1000).prop_map(|permille| ChaosOp::Degrade { permille }),
        Just(ChaosOp::FixViolations),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1.0f64..16.0, 1.0f64..300.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| Op::Create {
            cpu,
            disk,
            replicas
        }),
        (0usize..64).prop_map(|index| Op::Remove { index }),
        (0usize..64, 0.0f64..900.0).prop_map(|(index, disk)| Op::Report { index, disk }),
        Just(Op::FixViolations),
    ]
}

fn build_cluster() -> (Cluster, MetricId, MetricId) {
    let mut metrics = MetricRegistry::new();
    let cpu = metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: 96.0,
        balancing_weight: 1.0,
    });
    let disk = metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: 2_000.0,
        balancing_weight: 1.0,
    });
    (
        Cluster::new(ClusterConfig {
            node_count: 8,
            metrics,
            fault_domains: 1,
        }),
        cpu,
        disk,
    )
}

/// Everything `report_loads` must leave exactly as sequential
/// `report_load` calls do: node load bits, cached cost bits, the
/// violation list, and the global and per-domain candidate orders.
#[allow(clippy::type_complexity)]
fn derived_state(
    cluster: &Cluster,
) -> (
    Vec<Vec<u64>>,
    Vec<u64>,
    Vec<(NodeId, MetricId)>,
    Vec<NodeId>,
    Vec<Vec<NodeId>>,
) {
    let loads = cluster
        .nodes()
        .iter()
        .map(|n| {
            cluster
                .metrics()
                .iter()
                .map(|(m, _)| n.load[m].to_bits())
                .collect()
        })
        .collect();
    let costs = cluster
        .nodes()
        .iter()
        .map(|n| cluster.node_cost(n.id).to_bits())
        .collect();
    let domains = (0..cluster.fault_domain_count() as u32)
        .map(|d| cluster.domain_nodes_by_cost(d).collect())
        .collect();
    (
        loads,
        costs,
        cluster.violations(),
        cluster.candidate_nodes_by_cost().collect(),
        domains,
    )
}

/// Drive one seeded chaos sequence, asserting the cluster's structural
/// invariants and bitwise cost-cache agreement after every op. Returns a
/// state digest plus the trace bytes the run emitted, for cross-replay
/// byte-identity checks.
fn run_chaos_sequence(ops: &[ChaosOp], seed: u64) -> (Vec<u64>, Vec<u8>) {
    let sink = toto_trace::Shared::new(toto_trace::BufferSink::new());
    let guard = toto_trace::SessionGuard::install(Box::new(sink.clone()));
    let (mut cluster, cpu, disk) = build_cluster();
    let base_disk_capacity = cluster.metrics().def(disk).node_capacity;
    let mut plb = Plb::new(PlbConfig::default(), seed);
    let mut services: Vec<ServiceId> = Vec::new();
    for op in ops {
        match *op {
            ChaosOp::Create {
                cpu: c,
                disk: d,
                replicas,
            } => {
                let mut load = cluster.metrics().zero_load();
                load[cpu] = c;
                load[disk] = d;
                let spec = ServiceSpec {
                    name: "db".into(),
                    tag: 0,
                    replica_count: replicas,
                    default_load: load,
                };
                if let Ok(id) = plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                    services.push(id);
                }
            }
            ChaosOp::Remove { index } => {
                if !services.is_empty() {
                    let id = services.remove(index % services.len());
                    assert!(cluster.remove_service(id).is_some());
                }
            }
            ChaosOp::Report { index, disk: d } => {
                if !services.is_empty() {
                    let id = services[index % services.len()];
                    let rid = cluster.service(id).unwrap().replicas[0];
                    cluster.report_load(rid, disk, d);
                }
            }
            ChaosOp::Crash { node } => {
                plb.crash_node(
                    &mut cluster,
                    toto_fabric::ids::NodeId(node % 8),
                    SimTime::ZERO,
                );
            }
            ChaosOp::Restart { node } => {
                cluster.set_node_up(toto_fabric::ids::NodeId(node % 8), true);
            }
            ChaosOp::Degrade { permille } => {
                cluster
                    .set_metric_capacity(disk, base_disk_capacity * f64::from(permille) / 1000.0);
            }
            ChaosOp::FixViolations => {
                plb.fix_violations(&mut cluster, SimTime::ZERO);
            }
        }
        cluster.check_invariants();
        for n in cluster.nodes() {
            assert_eq!(
                cluster.node_cost(n.id).to_bits(),
                cluster.metrics().cost_of(&n.load).to_bits(),
                "cost cache diverged on {} after {op:?}",
                n.id
            );
        }
    }
    let mut digest: Vec<u64> = Vec::new();
    for n in cluster.nodes() {
        digest.push(u64::from(n.id.raw()));
        digest.push(u64::from(n.up));
        digest.push(n.replicas.len() as u64);
        digest.push(cluster.node_cost(n.id).to_bits());
        digest.push(n.load[cpu].to_bits());
        digest.push(n.load[disk].to_bits());
    }
    digest.push(services.len() as u64);
    drop(guard);
    (digest, sink.with(|b| b.bytes().to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_op_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..60), seed: u64) {
        let (mut cluster, cpu, disk) = build_cluster();
        let mut plb = Plb::new(PlbConfig::default(), seed);
        let mut services: Vec<ServiceId> = Vec::new();
        for op in ops {
            match op {
                Op::Create { cpu: c, disk: d, replicas } => {
                    let mut load = cluster.metrics().zero_load();
                    load[cpu] = c;
                    load[disk] = d;
                    let spec = ServiceSpec {
                        name: "db".into(),
                        tag: 0,
                        replica_count: replicas,
                        default_load: load,
                    };
                    if let Ok(id) = plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                        services.push(id);
                    }
                }
                Op::Remove { index } => {
                    if !services.is_empty() {
                        let id = services.remove(index % services.len());
                        prop_assert!(cluster.remove_service(id).is_some());
                    }
                }
                Op::Report { index, disk: d } => {
                    if !services.is_empty() {
                        let id = services[index % services.len()];
                        let rid = cluster.service(id).unwrap().replicas[0];
                        cluster.report_load(rid, disk, d);
                    }
                }
                Op::FixViolations => {
                    let events = plb.fix_violations(&mut cluster, SimTime::ZERO);
                    // Every reported move must reference live entities.
                    for e in &events {
                        prop_assert!(cluster.service(e.service).is_some());
                        prop_assert!(cluster.replica(e.replica).is_some());
                        prop_assert_eq!(cluster.replica(e.replica).unwrap().node, e.to);
                    }
                }
            }
            cluster.check_invariants();
        }
        // Total load equals the sum over replicas at all times (checked by
        // check_invariants); finally, removing everything zeroes the loads.
        for id in services {
            cluster.remove_service(id);
        }
        prop_assert!(cluster.total_load(cpu).abs() < 1e-6);
        prop_assert!(cluster.total_load(disk).abs() < 1e-6);
    }

    #[test]
    fn node_cost_cache_matches_recompute_after_random_ops(
        ops in prop::collection::vec(cache_op_strategy(), 1..80),
        seed: u64,
    ) {
        // The incremental per-node cost cache must stay *bitwise* equal
        // to a from-scratch recompute after any seeded sequence of
        // add / move / report / drop mutations.
        let (mut cluster, cpu, disk) = build_cluster();
        let mut plb = Plb::new(PlbConfig::default(), seed);
        let mut services: Vec<ServiceId> = Vec::new();
        for op in ops {
            match op {
                CacheOp::Add { cpu: c, disk: d, replicas } => {
                    let mut load = cluster.metrics().zero_load();
                    load[cpu] = c;
                    load[disk] = d;
                    let spec = ServiceSpec {
                        name: "db".into(),
                        tag: 0,
                        replica_count: replicas,
                        default_load: load,
                    };
                    if let Ok(id) = plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                        services.push(id);
                    }
                }
                CacheOp::Move { replica, node } => {
                    let live: Vec<_> = cluster.replicas().map(|r| (r.id, r.service, r.node)).collect();
                    if !live.is_empty() {
                        let (rid, service, from) = live[replica % live.len()];
                        let to = toto_fabric::ids::NodeId(node % 8);
                        if to != from && !cluster.node(to).hosts_service(service) {
                            cluster.move_replica(rid, to);
                        }
                    }
                }
                CacheOp::Report { replica, disk: d } => {
                    let live: Vec<_> = cluster.replicas().map(|r| r.id).collect();
                    if !live.is_empty() {
                        cluster.report_load(live[replica % live.len()], disk, d);
                    }
                }
                CacheOp::Drop { index } => {
                    if !services.is_empty() {
                        let id = services.remove(index % services.len());
                        prop_assert!(cluster.remove_service(id).is_some());
                    }
                }
            }
            for n in cluster.nodes() {
                let recomputed = cluster.metrics().cost_of(&n.load);
                prop_assert_eq!(
                    cluster.node_cost(n.id).to_bits(),
                    recomputed.to_bits(),
                    "cached cost diverged on {} ({} vs {})",
                    n.id,
                    cluster.node_cost(n.id),
                    recomputed
                );
            }
        }
    }

    #[test]
    fn chaos_sequences_preserve_invariants_and_determinism(
        ops in prop::collection::vec(chaos_op_strategy(), 1..60),
        seed: u64,
    ) {
        // One pass checks structural invariants and bitwise cost-cache
        // agreement after every mutation; a second identically-seeded
        // pass must take byte-identical decisions (same state digest,
        // same trace bytes) — the PLB-determinism contract under faults.
        let (digest_a, trace_a) = run_chaos_sequence(&ops, seed);
        let (digest_b, trace_b) = run_chaos_sequence(&ops, seed);
        prop_assert_eq!(digest_a, digest_b, "state digest diverged across replays");
        prop_assert_eq!(trace_a, trace_b, "trace bytes diverged across replays");
    }

    #[test]
    fn placement_never_colocates_replicas(seed: u64, cpu_load in 1.0f64..24.0, replicas in 2u32..=4) {
        let (mut cluster, cpu, disk) = build_cluster();
        let mut plb = Plb::new(PlbConfig::default(), seed);
        let mut load = cluster.metrics().zero_load();
        load[cpu] = cpu_load;
        load[disk] = 10.0;
        let spec = ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: replicas,
            default_load: load,
        };
        let placement = plb.place_new_service(&cluster, &spec).unwrap();
        let mut nodes = placement.clone();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), placement.len());
        let id = cluster.add_service(&spec, &placement, SimTime::ZERO);
        cluster.check_invariants();
        prop_assert_eq!(cluster.service(id).unwrap().replicas.len(), replicas as usize);
    }

    #[test]
    fn report_loads_equals_sequential_report_load(
        services in prop::collection::vec((0u32..8, 1u32..=4, 1.0f64..16.0, 1.0f64..600.0), 1..24),
        down in 0u32..8,
        reports in prop::collection::vec((0usize..256, any::<bool>(), 0.0f64..2_500.0), 1..64),
        again in 0.0f64..2_500.0,
    ) {
        // One batch must leave the cluster bit-identical to the same
        // reports applied one by one: replicas reported twice (the last
        // value wins), several replicas on one node, a down node, loads
        // pushed past capacity and back.
        let (mut cluster, cpu, disk) = {
            let (c, cpu, disk) = build_cluster();
            (
                Cluster::new(ClusterConfig {
                    node_count: 8,
                    metrics: c.metrics().clone(),
                    fault_domains: 3,
                }),
                cpu,
                disk,
            )
        };
        for (start, replicas, c, d) in services {
            let mut load = cluster.metrics().zero_load();
            load[cpu] = c;
            load[disk] = d;
            let spec = ServiceSpec {
                name: "db".into(),
                tag: 0,
                replica_count: replicas,
                default_load: load,
            };
            let placement: Vec<NodeId> = (0..replicas).map(|k| NodeId((start + k) % 8)).collect();
            cluster.add_service(&spec, &placement, SimTime::ZERO);
        }
        cluster.set_node_up(NodeId(down), false);
        let live: Vec<ReplicaId> = cluster.replicas().map(|r| r.id).collect();
        let mut batch: Vec<(ReplicaId, MetricId, f64)> = reports
            .iter()
            .map(|&(i, is_disk, v)| {
                let metric = if is_disk { disk } else { cpu };
                let value = if is_disk { v } else { v / 20.0 };
                (live[i % live.len()], metric, value)
            })
            .collect();
        let (first, metric, _) = batch[0];
        batch.push((first, metric, if metric == disk { again } else { again / 20.0 }));

        let mut sequential = cluster.clone();
        for &(replica, metric, value) in &batch {
            sequential.report_load(replica, metric, value);
        }
        cluster.report_loads(&batch);
        prop_assert_eq!(derived_state(&cluster), derived_state(&sequential));
        for r in sequential.replicas() {
            let b = cluster.replica(r.id).expect("same replicas");
            prop_assert_eq!(b.load[cpu].to_bits(), r.load[cpu].to_bits());
            prop_assert_eq!(b.load[disk].to_bits(), r.load[disk].to_bits());
        }
        prop_assert!(cluster.invariants_ok());
        // The scratch is clean: a second batch behaves the same way.
        for &(replica, metric, value) in batch.iter().rev() {
            sequential.report_load(replica, metric, value);
        }
        batch.reverse();
        cluster.report_loads(&batch);
        prop_assert_eq!(derived_state(&cluster), derived_state(&sequential));
    }
}
