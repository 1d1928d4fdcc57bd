//! Placement determinism regression test: the reproducibility contract
//! toto-lint exists to protect, pinned at the fabric layer.
//!
//! Two identically-seeded PLB sessions over the same workload script must
//! produce **byte-identical** placement and failover traces — every
//! placement decision, violation fix, proactive balance move, and node
//! drain, formatted and compared as text. The paper's §5.3.4 measures the
//! run-to-run noise of production's *unseeded* annealing; the simulator
//! removes that noise by construction, and this test keeps it removed.

use toto_fabric::cluster::{Cluster, ClusterConfig, ServiceSpec};
use toto_fabric::ids::{MetricId, NodeId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::plb::{FailoverEvent, PlacementError, Plb, PlbConfig};
use toto_simcore::rng::DetRng;
use toto_simcore::time::SimTime;

const NODES: u32 = 12;
const CPU_CAP: f64 = 96.0;
const DISK_CAP: f64 = 2000.0;
const SERVICES: u64 = 48;
const TICKS: u64 = 36;

fn cluster() -> Cluster {
    ring(NODES, 4)
}

fn ring(node_count: u32, fault_domains: u32) -> Cluster {
    let mut metrics = MetricRegistry::new();
    metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: CPU_CAP,
        balancing_weight: 1.0,
    });
    metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: DISK_CAP,
        balancing_weight: 0.5,
    });
    Cluster::new(ClusterConfig {
        node_count,
        metrics,
        fault_domains,
    })
}

fn fmt_event(tag: &str, e: &FailoverEvent) -> String {
    format!(
        "{tag} t={} svc={} rep={} {}->{} role={:?} reason={:?} promoted={:?}",
        e.time.as_secs(),
        e.service,
        e.replica,
        e.from,
        e.to,
        e.role,
        e.reason,
        e.promoted
    )
}

/// Run a scripted PLB session and return its full decision trace. All
/// randomness (service sizes, load growth, annealing) derives from `seed`.
fn trace(seed: u64) -> String {
    let mut cluster = cluster();
    let mut plb = Plb::new(PlbConfig::default(), seed);
    let mut rng = DetRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let mut lines = Vec::new();

    // Admission: a varied mix of 1- and 3-replica services.
    for i in 0..SERVICES {
        let replicas = if i % 3 == 0 { 3 } else { 1 };
        let mut load = cluster.metrics().zero_load();
        load[MetricId(0)] = 2.0 + rng.next_f64() * 6.0;
        load[MetricId(1)] = 20.0 + rng.next_f64() * 120.0;
        let spec = ServiceSpec {
            name: format!("db-{i}"),
            tag: i,
            replica_count: replicas,
            default_load: load,
        };
        let now = SimTime::from_secs(i * 60);
        let id = plb
            .create_service(&mut cluster, &spec, now)
            .expect("test cluster has capacity for the scripted mix");
        let placed: Vec<String> = cluster
            .service(id)
            .expect("just created")
            .replicas
            .iter()
            .map(|&r| {
                let rep = cluster.replica(r).expect("just placed");
                format!("{}@{}:{:?}", r, rep.node, rep.role)
            })
            .collect();
        lines.push(format!("place svc={id} [{}]", placed.join(", ")));
    }

    // Steady state: loads grow, the PLB fixes violations and balances.
    let replica_ids: Vec<_> = cluster.replicas().map(|r| r.id).collect();
    for tick in 0..TICKS {
        let now = SimTime::from_secs((SERVICES + tick) * 60);
        for &rid in &replica_ids {
            if cluster.replica(rid).is_none() {
                continue;
            }
            let cpu = cluster.replica(rid).expect("still placed").load[MetricId(0)];
            cluster.report_load(rid, MetricId(0), cpu * (1.0 + rng.next_f64() * 0.15));
        }
        for e in plb.fix_violations(&mut cluster, now) {
            lines.push(fmt_event("fix", &e));
        }
        for e in plb.balance(&mut cluster, now) {
            lines.push(fmt_event("balance", &e));
        }
        // Early maintenance: drain a node while the cluster still has
        // headroom to absorb its replicas, then bring it back.
        if tick == 2 {
            for e in plb.drain_node(&mut cluster, NodeId(3), now).unwrap() {
                lines.push(fmt_event("drain", &e));
            }
            cluster.set_node_up(NodeId(3), true);
        }
    }

    cluster.check_invariants();
    // Final state fingerprint: replica → node assignment.
    for rep in cluster.replicas() {
        lines.push(format!("final {}@{}:{:?}", rep.id, rep.node, rep.role));
    }
    lines.join("\n")
}

#[test]
fn identically_seeded_runs_produce_byte_identical_traces() {
    let a = trace(7);
    let b = trace(7);
    assert!(!a.is_empty());
    assert!(
        a == b,
        "identically-seeded PLB sessions diverged; first differing line: {:?}",
        a.lines().zip(b.lines()).find(|(x, y)| x != y)
    );
}

#[test]
fn the_trace_actually_exercises_failovers() {
    // Guard against the script silently degenerating into a placement-only
    // run in which determinism would hold vacuously.
    let t = trace(7);
    assert!(
        t.lines().any(|l| l.starts_with("fix ")),
        "no violation fixes"
    );
    assert!(t.lines().any(|l| l.starts_with("drain ")), "no drain moves");
    assert_eq!(
        t.lines().filter(|l| l.starts_with("place ")).count(),
        SERVICES as usize
    );
}

#[test]
fn different_annealing_seeds_still_satisfy_invariants() {
    // Different seeds may legally produce different traces; what they must
    // share is a violation-free final state over the same workload.
    for seed in [1, 2, 3] {
        let t = trace(seed);
        assert!(t.lines().any(|l| l.starts_with("final ")));
    }
}

/// FNV-1a over 64-bit words: a stable digest of a decision sequence.
fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn placements_on_a_256_node_ring_match_the_pinned_digest() {
    // A hyperscale-shaped ring, above the PLB's 64-node pruning
    // threshold: 2,000 seeded placements of mixed 1- and 4-replica
    // specs, with one departure in five so node costs fall as well as
    // rise, filled until larger specs start to be rejected. The digest
    // covers every replica's node and every rejection's feasible count.
    // The pinned value was computed by ranking from a full id-order scan,
    // so a match shows the warm-started ranking decides identically.
    const PINNED: u64 = 0xc185_1ca0_d813_c089;
    let mut cluster = ring(256, 128);
    let mut plb = Plb::new(PlbConfig::default(), 42);
    let mut rng = DetRng::seed_from_u64(0x0256_0128);
    let mut live = Vec::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut rejected = 0;
    for i in 0..2_000u64 {
        let mut load = cluster.metrics().zero_load();
        load[MetricId(0)] = 3.0 + rng.next_f64() * 14.0;
        load[MetricId(1)] = 20.0 + rng.next_f64() * 200.0;
        let spec = ServiceSpec {
            name: format!("db-{i}"),
            tag: i,
            replica_count: if rng.next_below(4) == 0 { 4 } else { 1 },
            default_load: load,
        };
        match plb.create_service(&mut cluster, &spec, SimTime::from_secs(i)) {
            Ok(id) => {
                for &r in &cluster.service(id).expect("just created").replicas {
                    let node = cluster.replica(r).expect("just placed").node;
                    fold(&mut digest, u64::from(node.raw()));
                }
                live.push(id);
            }
            Err(PlacementError::NotEnoughNodes { feasible, .. }) => {
                rejected += 1;
                fold(&mut digest, u64::MAX);
                fold(&mut digest, u64::from(feasible));
            }
        }
        if i % 5 == 4 && !live.is_empty() {
            let gone = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            cluster.remove_service(gone).expect("live service");
        }
    }
    cluster.check_invariants();
    assert!(rejected > 0, "the ring never filled up");
    assert_eq!(digest, PINNED, "placement digest moved: {digest:#018x}");
}

#[test]
fn placements_on_a_1000_node_ring_match_the_pinned_digest() {
    // The bootstrap's ring size, in the debug test build, so the PLB's
    // debug cross-checks run at 1,000 nodes: 4,000 seeded placements of
    // both editions. General Purpose (1 replica) loads come in runs of
    // a repeated load, as a bootstrap population places them; Business
    // Critical (4 replicas) loads are new every time. One departure in
    // five; the ring fills until larger specs start to be rejected. The
    // digest covers every replica's node and every rejection's feasible
    // count.
    const PINNED: u64 = 0x21ba_ab26_523b_8c0f;
    let mut cluster = ring(1_000, 100);
    let mut plb = Plb::new(PlbConfig::default(), 42);
    let mut rng = DetRng::seed_from_u64(0x1000_0100);
    let mut live = Vec::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut rejected = 0;
    let mut general = cluster.metrics().zero_load();
    for i in 0..4_000u64 {
        let critical = rng.next_below(4) == 0;
        let load = if critical {
            let mut load = cluster.metrics().zero_load();
            load[MetricId(0)] = 10.0 + rng.next_f64() * 30.0;
            load[MetricId(1)] = 50.0 + rng.next_f64() * 300.0;
            load
        } else {
            if rng.next_below(16) == 0 || general[MetricId(0)] == 0.0 {
                general[MetricId(0)] = 2.0 + rng.next_f64() * 8.0;
                general[MetricId(1)] = 20.0 + rng.next_f64() * 100.0;
            }
            general.clone()
        };
        let spec = ServiceSpec {
            name: format!("db-{i}"),
            tag: i,
            replica_count: if critical { 4 } else { 1 },
            default_load: load,
        };
        match plb.create_service(&mut cluster, &spec, SimTime::from_secs(i)) {
            Ok(id) => {
                for &r in &cluster.service(id).expect("just created").replicas {
                    let node = cluster.replica(r).expect("just placed").node;
                    fold(&mut digest, u64::from(node.raw()));
                }
                live.push(id);
            }
            Err(PlacementError::NotEnoughNodes { feasible, .. }) => {
                rejected += 1;
                fold(&mut digest, u64::MAX);
                fold(&mut digest, u64::from(feasible));
            }
        }
        if i % 5 == 4 && !live.is_empty() {
            let gone = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            cluster.remove_service(gone).expect("live service");
        }
    }
    cluster.check_invariants();
    assert!(rejected > 0, "the ring never filled up");
    assert_eq!(digest, PINNED, "placement digest moved: {digest:#018x}");
}
