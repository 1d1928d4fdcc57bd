//! Run-time chaos state threaded through an experiment.

use crate::oracle::InvariantOracle;
use crate::report::ChaosReport;
use toto_fabric::cluster::Cluster;
use toto_fabric::ids::NodeId;
use toto_simcore::rng::{DetRng, SeedTree};

/// Derive the chaos RNG seed from the scenario's PLB seed. Chaos shares
/// the PLB lineage (both model Service-Fabric-side nondeterminism) but
/// draws from its own labelled stream, so enabling chaos never perturbs
/// the PLB's draws for decisions both runs make.
pub fn chaos_seed(plb_seed: u64) -> u64 {
    SeedTree::new(plb_seed).child("chaos", 0).seed()
}

/// Mutable chaos state owned by a running experiment. Absent entirely
/// (no allocation, no RNG draws) when the plan is empty.
#[derive(Debug)]
pub struct ChaosRuntime {
    /// Seeded stream for victim picks and report-loss draws.
    pub rng: DetRng,
    /// The post-event invariant checker.
    pub oracle: InvariantOracle,
    /// Accumulating per-fault accounting.
    pub report: ChaosReport,
    /// The open report-loss window: its per-report drop probability and
    /// the index of the fault record its end closes.
    pub loss_window: Option<(f64, usize)>,
    /// Each degraded resource, by `ResourceKind::index()`: its original
    /// per-node capacity, so a restore is exact, and the index of the
    /// fault record the restore closes.
    pub degraded: [Option<(f64, usize)>; 3],
}

impl ChaosRuntime {
    /// Fresh runtime for one run.
    pub fn new(plb_seed: u64, placement_headroom: f64) -> Self {
        ChaosRuntime {
            rng: DetRng::seed_from_u64(chaos_seed(plb_seed)),
            oracle: InvariantOracle::new(placement_headroom),
            report: ChaosReport::default(),
            loss_window: None,
            degraded: [None; 3],
        }
    }

    /// Pick up to `count` distinct up nodes (ascending candidate order,
    /// draws without replacement).
    pub fn pick_up_nodes(&mut self, cluster: &Cluster, count: u32) -> Vec<NodeId> {
        let mut up: Vec<NodeId> = cluster
            .nodes()
            .iter()
            .filter(|n| n.up)
            .map(|n| n.id)
            .collect();
        let mut picked = Vec::new();
        for _ in 0..count {
            if up.is_empty() {
                break;
            }
            let i = self.rng.next_below(up.len() as u64) as usize;
            picked.push(up.remove(i));
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_fabric::cluster::ClusterConfig;
    use toto_fabric::metrics::{MetricDef, MetricRegistry};

    fn cluster(nodes: u32) -> Cluster {
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        Cluster::new(ClusterConfig {
            node_count: nodes,
            metrics,
            fault_domains: 1,
        })
    }

    #[test]
    fn chaos_seed_is_stable_and_distinct_from_plb_seed() {
        assert_eq!(chaos_seed(42), chaos_seed(42));
        assert_ne!(chaos_seed(42), 42);
        assert_ne!(chaos_seed(42), chaos_seed(43));
    }

    #[test]
    fn node_picks_are_deterministic_and_respect_liveness() {
        let mut c = cluster(6);
        c.set_node_up(NodeId(2), false);
        let mut a = ChaosRuntime::new(7, 1.0);
        let mut b = ChaosRuntime::new(7, 1.0);
        for _ in 0..20 {
            let pa = a.pick_up_nodes(&c, 1);
            let pb = b.pick_up_nodes(&c, 1);
            assert_eq!(pa, pb);
            assert_eq!(pa.len(), 1);
            assert_ne!(pa[0], NodeId(2), "down node must never be picked");
        }
        let storm = a.pick_up_nodes(&c, 4);
        assert_eq!(storm.len(), 4);
        let mut dedup = storm.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "storm picks must be distinct");
        assert!(storm.iter().all(|n| *n != NodeId(2)));
        // Asking for more nodes than are up caps at the up count.
        let mut all = ChaosRuntime::new(9, 1.0);
        assert_eq!(all.pick_up_nodes(&c, 99).len(), 5);
    }
}
