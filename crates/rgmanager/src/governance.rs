//! Node-level resource governance — RgManager's day job.
//!
//! §3.2: "RgManager contains a centralized view of the node and is
//! responsible for governing the node's resources and mitigating
//! potential noisy neighbor performance issues." §5.5 plans to "use Toto
//! to measure RgManager's effectiveness at mitigating potential
//! performance issues"; this module provides that governance layer: given
//! the *demanded* CPU of each replica on the node, it allocates the
//! node's physical CPU, throttling proportionally-over-guarantee when
//! demand exceeds supply, and records how much demand went unserved (the
//! "performance debt" a benchmark can score).

/// One replica's CPU state as seen by the governor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuDemand {
    /// The replica's reserved (guaranteed) cores.
    pub reserved: f64,
    /// The replica's instantaneous demand, cores.
    pub demanded: f64,
}

/// The outcome of one governance pass for one replica.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuGrant {
    /// Cores actually granted this interval.
    pub granted: f64,
    /// Demand that went unserved (`demanded - granted`, ≥ 0).
    pub throttled: f64,
}

/// Aggregate governance statistics for a node.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GovernanceStats {
    /// Governance passes executed.
    pub passes: u64,
    /// Passes in which at least one replica was throttled.
    pub contended_passes: u64,
    /// Total core-intervals of throttled demand.
    pub throttled_core_intervals: f64,
}

/// The per-node CPU governor.
///
/// Allocation policy (a classic two-phase guarantee-then-work-conserving
/// scheme, which is how SQL OS resource governance behaves at node
/// scope):
///
/// 1. every replica first receives `min(demanded, reserved)` — its
///    guarantee is inviolable;
/// 2. leftover physical cores are shared among still-hungry replicas in
///    proportion to their reservations (weighted fair sharing), iterating
///    until the surplus is exhausted or everyone is satisfied.
///
/// A pass reads the node's demands as a slice in replica-id order and
/// writes the grants into a caller-owned buffer, so a caller that reuses
/// its buffers allocates nothing per pass. Every sum runs in that order,
/// which fixes the bits of `throttled_core_intervals`.
#[derive(Clone, Debug)]
pub struct NodeGovernor {
    physical_cores: f64,
    stats: GovernanceStats,
}

impl NodeGovernor {
    /// Build a governor for a node with the given physical core count.
    pub fn new(physical_cores: f64) -> Self {
        assert!(physical_cores > 0.0, "node needs positive cores");
        NodeGovernor {
            physical_cores,
            stats: GovernanceStats::default(),
        }
    }

    /// The node's physical cores.
    pub fn physical_cores(&self) -> f64 {
        self.physical_cores
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GovernanceStats {
        self.stats
    }

    /// Run one governance pass over the node's replicas, given in
    /// replica-id order. Writes one grant per demand into `grants`, in
    /// the same order; the buffer is cleared first, so a caller can
    /// reuse one across passes.
    pub fn govern(&mut self, demands: &[CpuDemand], grants: &mut Vec<CpuGrant>) {
        self.stats.passes += 1;
        grants.clear();
        // Phase 1: guarantees.
        let mut used = 0.0;
        for d in demands {
            let granted = d.demanded.min(d.reserved).max(0.0);
            used += granted;
            grants.push(CpuGrant {
                granted,
                throttled: 0.0,
            });
        }
        // Over-reserved node (the density study's premise!): even the
        // guarantees exceed the machine — scale them down proportionally,
        // which is where dense clusters quietly pay their performance tax.
        if used > self.physical_cores {
            let scale = self.physical_cores / used;
            for grant in grants.iter_mut() {
                grant.granted *= scale;
            }
            used = self.physical_cores;
        }
        // Phase 2: work-conserving surplus sharing, weighted by
        // reservation, iterated so capped replicas release their share.
        // A replica's hunger is judged before its own grant grows, and
        // no other replica's grant moves in between, so each round
        // shares among the replicas hungry at its start.
        let hungry = |d: &CpuDemand, g: &CpuGrant| d.demanded > g.granted + 1e-12;
        let mut surplus = (self.physical_cores - used).max(0.0);
        for _ in 0..8 {
            if surplus <= 1e-9 {
                break;
            }
            let mut weight_total = 0.0;
            let mut any_hungry = false;
            for (d, g) in demands.iter().zip(grants.iter()) {
                if hungry(d, g) {
                    weight_total += d.reserved.max(0.1);
                    any_hungry = true;
                }
            }
            if !any_hungry {
                break;
            }
            let mut consumed = 0.0;
            for (d, grant) in demands.iter().zip(grants.iter_mut()) {
                if !hungry(d, grant) {
                    continue;
                }
                let share = surplus * d.reserved.max(0.1) / weight_total;
                let extra = (d.demanded - grant.granted).min(share);
                grant.granted += extra;
                consumed += extra;
            }
            surplus -= consumed;
            if consumed <= 1e-12 {
                break;
            }
        }
        // Account throttling.
        let mut contended = false;
        for (d, grant) in demands.iter().zip(grants.iter_mut()) {
            grant.throttled = (d.demanded - grant.granted).max(0.0);
            if grant.throttled > 1e-9 {
                contended = true;
                self.stats.throttled_core_intervals += grant.throttled;
            }
        }
        if contended {
            self.stats.contended_passes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass over `(reserved, demanded)` pairs in replica-id order;
    /// the grants come back in the same order.
    fn govern(g: &mut NodeGovernor, list: &[(f64, f64)]) -> Vec<CpuGrant> {
        let demands: Vec<CpuDemand> = list
            .iter()
            .map(|&(reserved, demanded)| CpuDemand { reserved, demanded })
            .collect();
        let mut grants = Vec::new();
        g.govern(&demands, &mut grants);
        grants
    }

    #[test]
    fn under_subscribed_node_grants_everything() {
        let mut g = NodeGovernor::new(96.0);
        let grants = govern(&mut g, &[(8.0, 4.0), (16.0, 10.0)]);
        assert_eq!(grants[0].granted, 4.0);
        assert_eq!(grants[1].granted, 10.0);
        assert_eq!(grants[0].throttled, 0.0);
        assert_eq!(g.stats().contended_passes, 0);
    }

    #[test]
    fn guarantees_are_inviolable_under_contention() {
        // Node of 16 cores; replica 1 demands way beyond its reservation,
        // replica 2 demands exactly its reservation.
        let mut g = NodeGovernor::new(16.0);
        let grants = govern(&mut g, &[(4.0, 40.0), (12.0, 12.0)]);
        // Replica 2 gets its full guarantee.
        assert_eq!(grants[1].granted, 12.0);
        // Replica 1 gets its guarantee plus whatever is left (nothing).
        assert!((grants[0].granted - 4.0).abs() < 1e-9);
        assert!((grants[0].throttled - 36.0).abs() < 1e-9);
        assert_eq!(g.stats().contended_passes, 1);
    }

    #[test]
    fn surplus_is_shared_by_reservation_weight() {
        // 32 physical cores; guarantees consume 12; surplus 20 shared
        // between two over-demanders weighted 1:3.
        let mut g = NodeGovernor::new(32.0);
        let grants = govern(&mut g, &[(3.0, 100.0), (9.0, 100.0)]);
        let extra1 = grants[0].granted - 3.0;
        let extra2 = grants[1].granted - 9.0;
        assert!((extra1 + extra2 - 20.0).abs() < 1e-6);
        assert!((extra2 / extra1 - 3.0).abs() < 1e-6, "{extra1} vs {extra2}");
    }

    #[test]
    fn work_conserving_iteration_reallocates_capped_shares() {
        // Surplus 20; replica 1 only wants 1 extra core; replica 2 is
        // unbounded — the iteration should hand replica 1's unused share
        // to replica 2.
        let mut g = NodeGovernor::new(30.0);
        let grants = govern(&mut g, &[(5.0, 6.0), (5.0, 100.0)]);
        assert!((grants[0].granted - 6.0).abs() < 1e-9);
        assert!((grants[1].granted - 24.0).abs() < 1e-6);
    }

    #[test]
    fn total_grants_never_exceed_physical_cores() {
        let mut g = NodeGovernor::new(24.0);
        let grants = govern(&mut g, &[(8.0, 30.0), (8.0, 30.0), (8.0, 30.0)]);
        let total: f64 = grants.iter().map(|x| x.granted).sum();
        assert!(total <= 24.0 + 1e-9);
        // Everyone gets exactly their guarantee here.
        for g in &grants {
            assert!((g.granted - 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_accumulate_across_passes() {
        let mut g = NodeGovernor::new(8.0);
        govern(&mut g, &[(8.0, 20.0)]);
        govern(&mut g, &[(8.0, 4.0)]);
        let s = g.stats();
        assert_eq!(s.passes, 2);
        assert_eq!(s.contended_passes, 1);
        assert!((s.throttled_core_intervals - 12.0).abs() < 1e-9);
    }

    #[test]
    fn over_reserved_node_scales_guarantees_down() {
        // The density study's whole premise: reservations can exceed the
        // physical node. Guarantees are then scaled proportionally and
        // the shortfall shows up as throttled demand.
        let mut g = NodeGovernor::new(10.0);
        let grants = govern(&mut g, &[(8.0, 8.0), (8.0, 8.0)]);
        let total: f64 = grants.iter().map(|x| x.granted).sum();
        assert!((total - 10.0).abs() < 1e-9);
        assert!((grants[0].granted - 5.0).abs() < 1e-9);
        assert!((grants[0].throttled - 3.0).abs() < 1e-9);
        assert_eq!(g.stats().contended_passes, 1);
    }
}
