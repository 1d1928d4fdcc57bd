//! Region specifications: a named set of heterogeneous fabric rings
//! behind one region-level admission layer.
//!
//! A region run is a pure function of `(spec, seed)`. Regions are
//! declared in a scenario's `[region]` table, either by built-in name
//! ([`RegionSpec::named`]) or ring by ring. Each [`RingSpec`] describes
//! one simulated fabric ring: its density ladder value, node count, and
//! lifecycle (optional build-out hour, optional decommission hour). Ring
//! order in the spec is load-bearing: it fixes ring indices, seed
//! lineages and policy tie-breaks.

use toto_controlplane::PlacementPolicy;
use toto_simcore::rng::SeedTree;
use toto_spec::ScenarioSpec;

/// One fabric ring in a region.
#[derive(Clone, Debug, PartialEq)]
pub struct RingSpec {
    /// Ring name, unique within the region.
    pub name: String,
    /// The ring's density ladder value (§5.2).
    pub density_percent: u32,
    /// Node count (rings are heterogeneous; the gen5 stage ring has 14).
    pub node_count: u32,
    /// Hour the ring joins region admission. `0` means the ring is
    /// present — with its bootstrap population — from the start; a later
    /// hour is a **build-out**: the ring starts empty and begins
    /// admitting mid-run.
    pub start_hour: u64,
    /// Hour the ring is decommissioned: it stops admitting and every
    /// live tenant is drained to sibling rings (cross-ring redirects).
    pub decommission_hour: Option<u64>,
    /// Pin this ring's PLB seed instead of deriving it from the region
    /// seed — repeat studies that perturb exactly one ring need this
    /// (the PLB seed is the one seed that never reaches the population
    /// stream, so siblings stay byte-identical; §5.2's discipline).
    pub plb_seed: Option<u64>,
}

/// A region: placement policy plus the rings it routes over.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionSpec {
    /// Region name (also the default fleet/artifact name).
    pub name: String,
    /// Cross-ring placement policy.
    pub policy: PlacementPolicy,
    /// Run length, hours (every ring runs the full region duration).
    pub duration_hours: u64,
    /// Region root seed: every ring seed and the regional population
    /// stream derive from it via the workspace SplitMix64 scheme.
    pub seed: u64,
    /// The rings, in join order.
    pub rings: Vec<RingSpec>,
}

impl RegionSpec {
    /// Built-in named regions (a scenario's `[region] spec = "<name>"`). Returns
    /// `None` for unknown names; [`RegionSpec::NAMED`] lists them.
    pub fn named(name: &str) -> Option<RegionSpec> {
        let ring = |name: &str, density: u32, nodes: u32| RingSpec {
            name: name.to_string(),
            density_percent: density,
            node_count: nodes,
            start_hour: 0,
            decommission_hour: None,
            plb_seed: None,
        };
        match name {
            // The headline region: the paper's §5.2 density ladder as
            // four heterogeneous rings under one admission layer.
            "mixed4" => Some(RegionSpec {
                name: "mixed4".to_string(),
                policy: PlacementPolicy::DensityTarget,
                duration_hours: 48,
                seed: 42,
                rings: vec![
                    ring("r100", 100, 14),
                    ring("r110", 110, 10),
                    ring("r120", 120, 14),
                    ring("r140", 140, 8),
                ],
            }),
            // Small two-ring region for CI determinism smoke runs.
            "ci2" => Some(RegionSpec {
                name: "ci2".to_string(),
                policy: PlacementPolicy::Spread,
                duration_hours: 6,
                seed: 7,
                rings: vec![ring("east", 110, 8), ring("west", 120, 6)],
            }),
            // Ring lifecycle showcase: `old` is decommissioned at hour 4
            // (drained cross-ring), `fresh` builds out at hour 2.
            "lifecycle3" => Some(RegionSpec {
                name: "lifecycle3".to_string(),
                policy: PlacementPolicy::Spread,
                duration_hours: 8,
                seed: 11,
                rings: vec![
                    RingSpec {
                        decommission_hour: Some(4),
                        ..ring("old", 110, 8)
                    },
                    ring("steady", 120, 10),
                    RingSpec {
                        start_hour: 2,
                        ..ring("fresh", 100, 8)
                    },
                ],
            }),
            _ => None,
        }
    }

    /// Names accepted by [`RegionSpec::named`].
    pub const NAMED: [&'static str; 3] = ["mixed4", "ci2", "lifecycle3"];

    /// Seed lineage for ring `i`: `SeedTree::new(seed).child("ring", i)`.
    /// Only the PLB leaf may be overridden per ring — population and
    /// model seeds always derive from the region seed, which is what
    /// keeps sibling rings byte-identical under a PLB perturbation.
    pub fn ring_seed(&self, i: usize) -> u64 {
        SeedTree::new(self.seed).child("ring", i as u64).seed()
    }

    /// The fully seeded per-ring scenario: the gen5 stage ring resized
    /// to the ring's node count and density, bootstrap population scaled
    /// proportionally (zeroed for build-out rings, which start empty).
    pub fn ring_scenario(&self, i: usize) -> ScenarioSpec {
        let ring = &self.rings[i];
        let seed = SeedTree::new(self.ring_seed(i));
        let mut scenario = ScenarioSpec::gen5_stage_cluster(ring.density_percent);
        scenario.name = format!("{}-{}", self.name, ring.name);
        // Scale bootstrap counts by node ratio × density: a ring's
        // density ladder value is a *packing* level (§5.2), so a 140 %
        // ring starts with 1.4× the tenants per node, filled to its
        // density-scaled capacity by `fit_bootstrap_budget`.
        let scale = f64::from(ring.node_count) / f64::from(scenario.node_count)
            * f64::from(ring.density_percent)
            / 100.0;
        scenario.bootstrap_standard_gp =
            (f64::from(scenario.bootstrap_standard_gp) * scale).round() as u32;
        scenario.bootstrap_premium_bc =
            (f64::from(scenario.bootstrap_premium_bc) * scale).round() as u32;
        scenario.node_count = ring.node_count;
        scenario.fault_domains = scenario.fault_domains.min(ring.node_count);
        scenario.duration_hours = self.duration_hours;
        if ring.start_hour > 0 {
            scenario.bootstrap_standard_gp = 0;
            scenario.bootstrap_premium_bc = 0;
        }
        scenario.population_seed = seed.child("population", 0).seed();
        scenario.model_seed = seed.child("model", 0).seed();
        scenario.plb_seed = ring.plb_seed.unwrap_or_else(|| seed.child("plb", 0).seed());
        fit_bootstrap_budget(&mut scenario);
        scenario
    }

    /// Seed of the regional population stream (the one create/drop
    /// stream the region routes across rings).
    pub fn region_population_seed(&self) -> u64 {
        SeedTree::new(self.seed).child("regionpop", 0).seed()
    }

    /// Seed of the region-level drop-victim RNG.
    pub fn region_route_seed(&self) -> u64 {
        SeedTree::new(self.seed).child("route", 0).seed()
    }
}

/// Shrink a ring's scaled bootstrap counts until the drafted population
/// fits the ring's bootstrap budget: its density-scaled logical cores
/// minus the gen5 stage ring's 65-core headroom, prorated by node count
/// (the 14-node, 100 %-density ring's budget is exactly
/// [`toto::defaults::bootstrap_reserved_target`]).
///
/// Count scaling preserves the *expected* per-database footprint, but
/// the realized SLO mix is a random draw per population seed — an
/// unlucky draw can reserve more cores than the ring has, which would
/// start the region admission ledger above logical capacity. Drafting is
/// a pure function of the scenario, so the trimmed counts are part of
/// the spec, identical in Phase A and in the ring's own bootstrap.
fn fit_bootstrap_budget(scenario: &mut ScenarioSpec) {
    let catalog = toto_controlplane::slo::SloCatalog::gen5();
    // 14 nodes and 65 free cores are the gen5 stage ring's shape
    // (Table 3); rings keep the same per-node headroom proportion.
    let budget = scenario.total_logical_cores() - 65.0 * f64::from(scenario.node_count) / 14.0;
    for _ in 0..32 {
        if scenario.bootstrap_standard_gp + scenario.bootstrap_premium_bc == 0 {
            return;
        }
        let Ok(drafts) = toto::bootstrap::draft_population(&catalog, scenario) else {
            return;
        };
        let reserved: f64 = drafts.iter().map(|d| d.reserved_cores()).sum();
        if reserved <= budget {
            return;
        }
        let shrink = (budget / reserved).min(0.98);
        scenario.bootstrap_standard_gp =
            (f64::from(scenario.bootstrap_standard_gp) * shrink).floor() as u32;
        scenario.bootstrap_premium_bc =
            (f64::from(scenario.bootstrap_premium_bc) * shrink).floor() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_seeds_are_distinct_and_stable() {
        let spec = RegionSpec::named("mixed4").unwrap();
        let seeds: std::collections::BTreeSet<u64> =
            (0..spec.rings.len()).map(|i| spec.ring_seed(i)).collect();
        assert_eq!(seeds.len(), 4);
        assert_eq!(
            spec.ring_seed(2),
            RegionSpec::named("mixed4").unwrap().ring_seed(2)
        );
    }

    #[test]
    fn ring_scenarios_scale_bootstrap_and_respect_overrides() {
        let mut spec = RegionSpec::named("mixed4").unwrap();
        spec.rings[1].plb_seed = Some(999);
        let s0 = spec.ring_scenario(0);
        assert_eq!(s0.node_count, 14);
        assert!(
            s0.bootstrap_standard_gp <= 187,
            "node-ratio scaling is an upper bound"
        );
        let s1 = spec.ring_scenario(1);
        assert_eq!(s1.node_count, 10);
        assert!(
            s1.bootstrap_standard_gp <= 147,
            "187 × 10/14 × 1.1 rounded is the ceiling"
        );
        assert!(s1.bootstrap_standard_gp > 0);
        assert_eq!(s1.plb_seed, 999, "per-ring PLB override is honoured");
        // Population/model seeds never come from the override.
        let mut base = RegionSpec::named("mixed4").unwrap();
        base.rings[1].plb_seed = None;
        assert_eq!(s1.population_seed, base.ring_scenario(1).population_seed);
    }

    #[test]
    fn drafted_bootstrap_fits_every_ring_budget() {
        let catalog = toto_controlplane::slo::SloCatalog::gen5();
        for name in RegionSpec::NAMED {
            let spec = RegionSpec::named(name).unwrap();
            for i in 0..spec.rings.len() {
                let s = spec.ring_scenario(i);
                let drafts = toto::bootstrap::draft_population(&catalog, &s).unwrap();
                let reserved: f64 = drafts.iter().map(|d| d.reserved_cores()).sum();
                let budget = s.total_logical_cores() - 65.0 * f64::from(s.node_count) / 14.0;
                assert!(
                    reserved <= budget + 1e-9,
                    "{name}/{}: drafted {reserved:.1} cores exceeds budget {budget:.1}",
                    spec.rings[i].name
                );
                assert!(
                    reserved <= s.total_logical_cores(),
                    "{name}/{}: bootstrap must fit the ring",
                    spec.rings[i].name
                );
            }
        }
    }

    #[test]
    fn build_out_rings_start_empty() {
        let spec = RegionSpec::named("lifecycle3").unwrap();
        let fresh = spec.ring_scenario(2);
        assert_eq!(fresh.bootstrap_standard_gp, 0);
        assert_eq!(fresh.bootstrap_premium_bc, 0);
    }
}
