//! Shared PLB benchmark fixtures.
//!
//! One construction, two consumers: the criterion benches
//! (`benches/plb.rs`) and `benchtrack`'s PLB probes time the **same**
//! loaded rings, so a criterion number and a `plb.*_ns` benchmark metric
//! measure the same work. A fixture change makes every `plb_*` figure
//! incomparable with those measured before it.

use toto_fabric::cluster::{Cluster, ClusterConfig, ServiceSpec};
use toto_fabric::ids::{MetricId, NodeId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::plb::{Plb, PlbConfig};
use toto_simcore::rng::DetRng;
use toto_simcore::time::SimTime;

/// Node count of the paper's gen5 stage ring (Table 2 population).
pub const RING_NODES: u32 = 14;
/// Service count of the gen5 stage-ring fixture.
pub const RING_SERVICES: u64 = 220;

/// The gen5 Table-2 mix stretched to `nodes`: ~16 services per node, one
/// BC (4 replicas) per seven services, same per-service loads as the
/// 14-node fixture. Returns the cluster plus its CPU and disk metric ids.
pub fn loaded_cluster_at(nodes: u32, services: u64) -> (Cluster, MetricId, MetricId) {
    let mut metrics = MetricRegistry::new();
    let cpu = metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: 96.0,
        balancing_weight: 1.0,
    });
    let disk = metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: 7000.0,
        balancing_weight: 1.0,
    });
    let mut cluster = Cluster::new(ClusterConfig {
        node_count: nodes,
        metrics,
        fault_domains: (nodes / 2).max(7).min(nodes),
    });
    let mut plb = Plb::new(PlbConfig::default(), 9);
    let mut rng = DetRng::seed_from_u64(5);
    for i in 0..services {
        let mut load = cluster.metrics().zero_load();
        let bc = i % 7 == 0;
        load[cpu] = if bc { 4.0 } else { 2.0 };
        load[disk] = if bc {
            350.0
        } else {
            5.0 + rng.next_f64() * 10.0
        };
        let spec = ServiceSpec {
            name: format!("db-{i}"),
            tag: 0,
            replica_count: if bc { 4 } else { 1 },
            default_load: load,
        };
        plb.create_service(&mut cluster, &spec, SimTime::ZERO)
            .expect("bench fixture must stay feasible");
    }
    assert_eq!(cluster.service_count(), services as usize);
    (cluster, cpu, disk)
}

/// The 14-node / 220-service stage-ring fixture.
pub fn loaded_cluster() -> (Cluster, MetricId, MetricId) {
    loaded_cluster_at(RING_NODES, RING_SERVICES)
}

/// The standard "new BC" placement workload: a 4-replica business
/// critical service sized like the fixture's heavier databases.
pub fn bc_spec(cluster: &Cluster, cpu: MetricId, disk: MetricId) -> ServiceSpec {
    let mut spec_load = cluster.metrics().zero_load();
    spec_load[cpu] = 8.0;
    spec_load[disk] = 300.0;
    ServiceSpec {
        name: "new-bc".into(),
        tag: 0,
        replica_count: 4,
        default_load: spec_load,
    }
}

/// Push the first three nodes just past disk capacity (overshoot 150)
/// so a mid-size replica clears each violation and a fix pass performs
/// three real evict/retarget/move decisions. Panics if the fixture
/// fails to violate — that is a broken fixture, not a benchmark result.
pub fn push_three_disk_violations(cluster: &mut Cluster, disk: MetricId) {
    for n in 0..3 {
        let node_load = cluster.node(NodeId(n)).load[disk];
        let victim = cluster.node(NodeId(n)).replicas[0];
        let old = cluster.replica(victim).expect("exists").load[disk];
        cluster.report_load(victim, disk, old + (7_000.0 - node_load) + 150.0);
    }
    assert_eq!(cluster.violations().len(), 3, "fixture must violate");
}
