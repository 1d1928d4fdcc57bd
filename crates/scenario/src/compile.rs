//! Lowering: [`ScenarioDoc`] → the existing experiment machinery.
//!
//! Compilation is pure — no simulation runs here. A fleet scenario
//! becomes a [`FleetPlan`]-derived job list, a region scenario a
//! [`RegionSpec`], a pools scenario its study shape; and in every case
//! the scenario's synthesized streams are fitted and scored into a
//! [`KsOracle`] which the runner gates on *before* executing anything.
//!
//! The byte-identity contract lives here: the built-in `density_sweep`
//! scenario must lower to exactly the plan `toto_fleet::density_fleet`
//! builds — same labels, same derived seeds, same overrides — which is
//! what makes its run records reproduce the pinned §5.2 artifacts under
//! `results/runs/fleet_runner/` byte-for-byte.

use crate::doc::{RegionConfig, ScenarioDoc, ScenarioKind};
use crate::error::ScenarioError;
use crate::oracle::KsOracle;
use crate::workload::fit_workload;
use toto::experiment::ExperimentOverrides;
use toto_chaos::ChaosPlan;
use toto_fleet::{FleetJob, FleetPlan};
use toto_region::RegionSpec;
use toto_simcore::rng::SeedTree;
use toto_spec::ScenarioSpec;

/// Default root seed of fleet, pools and inline-region scenarios.
pub const DEFAULT_FLEET_SEED: u64 = 42;
/// Default run length of fleet and inline-region scenarios, hours
/// (§5.2's six-day runs).
pub const DEFAULT_FLEET_HOURS: u64 = 144;

/// A compiled fleet scenario: ready-to-execute jobs.
#[derive(Clone, Debug)]
pub struct CompiledFleet {
    /// Artifact directory name under `results/runs/`.
    pub fleet_name: String,
    /// Root seed recorded in the manifest.
    pub root_seed: u64,
    /// The jobs, in schedule order.
    pub jobs: Vec<FleetJob>,
    /// The scenario's K-S verdicts.
    pub oracle: KsOracle,
}

/// A compiled region scenario.
#[derive(Clone, Debug)]
pub struct CompiledRegion {
    /// Artifact directory name under `results/runs/`.
    pub fleet_name: String,
    /// The region plan to execute.
    pub spec: RegionSpec,
    /// Fault-injection plan (inert when the scenario has no `[chaos]`).
    pub chaos: ChaosPlan,
    /// Restrict chaos to one named ring.
    pub chaos_ring: Option<String>,
    /// Record per-ring trace sidecars.
    pub trace: bool,
    /// The scenario's K-S verdicts.
    pub oracle: KsOracle,
}

/// A compiled pools scenario.
#[derive(Clone, Debug)]
pub struct CompiledPools {
    /// Artifact directory name under `results/runs/`.
    pub fleet_name: String,
    /// Root seed for the study's model set.
    pub seed: u64,
    /// Number of pools packed onto the ring.
    pub pools: u32,
    /// Reservation-comparison fleet size.
    pub databases: u32,
    /// Pool reservation, vcores.
    pub pool_vcores: u32,
    /// Per-database reservation in the singleton comparison, vcores.
    pub per_db_vcores: u32,
    /// Member disk sizes per pool, GB.
    pub member_sizes: Vec<Vec<f64>>,
    /// The scenario's K-S verdicts.
    pub oracle: KsOracle,
}

/// A scenario lowered onto its execution target.
#[derive(Clone, Debug)]
pub enum CompiledScenario {
    /// Runs through `toto-fleet`.
    Fleet(CompiledFleet),
    /// Runs through `toto-region`.
    Region(CompiledRegion),
    /// Runs the elastic-pool packing study.
    Pools(CompiledPools),
}

impl CompiledScenario {
    /// The oracle, whichever target was compiled.
    pub fn oracle(&self) -> &KsOracle {
        match self {
            CompiledScenario::Fleet(f) => &f.oracle,
            CompiledScenario::Region(r) => &r.oracle,
            CompiledScenario::Pools(p) => &p.oracle,
        }
    }
}

fn chaos_plan(doc: &ScenarioDoc) -> Result<ChaosPlan, ScenarioError> {
    match &doc.chaos {
        None => Ok(ChaosPlan::default()),
        Some(c) => ChaosPlan::named(&c.plan)
            .ok_or_else(|| ScenarioError::invalid(format!("[chaos] unknown plan {:?}", c.plan))),
    }
}

/// Every scenario validates its synthesized streams: the oracle seed is
/// derived from the scenario root seed so the verdicts themselves are
/// reproducible.
fn fitted_oracle(
    doc: &ScenarioDoc,
    root_seed: u64,
) -> (KsOracle, Option<crate::workload::PopulationTemplate>) {
    let mut oracle = KsOracle::new(doc.oracle.alpha, doc.oracle.min_acceptance);
    let workload_seed = SeedTree::new(root_seed).child("workload", 0).seed();
    let template = fit_workload(
        doc.workload.as_ref(),
        &doc.oracle,
        &mut oracle,
        workload_seed,
    );
    (oracle, template)
}

/// Lower a validated scenario document onto its target machinery.
pub fn compile(doc: &ScenarioDoc) -> Result<CompiledScenario, ScenarioError> {
    match doc.kind {
        ScenarioKind::Fleet => compile_fleet(doc).map(CompiledScenario::Fleet),
        ScenarioKind::Region => compile_region(doc).map(CompiledScenario::Region),
        ScenarioKind::Pools => compile_pools(doc).map(CompiledScenario::Pools),
    }
}

fn compile_fleet(doc: &ScenarioDoc) -> Result<CompiledFleet, ScenarioError> {
    let schedule = doc
        .schedule
        .as_ref()
        .ok_or_else(|| ScenarioError::invalid("fleet scenario lost its [schedule]"))?;
    let root_seed = doc.seed.unwrap_or(DEFAULT_FLEET_SEED);
    let hours = doc.hours.unwrap_or(DEFAULT_FLEET_HOURS);
    let chaos = chaos_plan(doc)?;
    let (oracle, template) = fitted_oracle(doc, root_seed);

    // Distinct densities keep the canonical `density-{d}` labels (and so
    // the canonical derived seeds); duplicated densities need positional
    // labels (`job{i:03}-density-{d}`) to stay unique.
    let unique: std::collections::BTreeSet<u32> = schedule.densities.iter().copied().collect();
    let positional = unique.len() != schedule.densities.len();

    let mut plan = FleetPlan::new(root_seed);
    for (i, &density) in schedule.densities.iter().enumerate() {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(density);
        scenario.duration_hours = hours;
        if let Some(nodes) = schedule.node_count {
            // Keep the gen5 nodes-per-fault-domain ratio (14 nodes / 7
            // FDs) so placement constraints stay satisfiable.
            scenario.node_count = nodes;
            scenario.fault_domains = (nodes / 2).max(2);
        }
        if let Some(gp) = schedule.bootstrap_gp {
            scenario.bootstrap_standard_gp = gp;
        }
        if let Some(bc) = schedule.bootstrap_bc {
            scenario.bootstrap_premium_bc = bc;
        }
        if let Some(cores) = schedule.cores_per_node {
            scenario.cores_per_node = cores;
        }
        if let Some(mem) = schedule.memory_per_node_gb {
            scenario.memory_per_node_gb = mem;
        }
        let label = if positional {
            format!("job{i:03}-density-{density}")
        } else {
            format!("density-{density}")
        };
        let overrides = ExperimentOverrides {
            chaos: chaos.clone(),
            ..ExperimentOverrides::default()
        };
        plan.add(label, scenario, overrides);
    }
    if doc.trace {
        plan.trace_all();
    }
    let mut jobs = plan.into_jobs();
    if let Some(template) = &template {
        for job in &mut jobs {
            job.overrides.population = Some(template.with_seed(job.scenario.population_seed));
        }
    }
    Ok(CompiledFleet {
        fleet_name: doc.name.clone(),
        root_seed,
        jobs,
        oracle,
    })
}

fn compile_region(doc: &ScenarioDoc) -> Result<CompiledRegion, ScenarioError> {
    let region = doc
        .region
        .as_ref()
        .ok_or_else(|| ScenarioError::invalid("region scenario lost its [region]"))?;
    let mut spec = match region {
        RegionConfig::Named(name) => RegionSpec::named(name).ok_or_else(|| {
            ScenarioError::invalid(format!("[region] spec {name:?} is not a built-in region"))
        })?,
        RegionConfig::Inline { policy, rings } => RegionSpec {
            name: doc.name.clone(),
            policy: *policy,
            duration_hours: DEFAULT_FLEET_HOURS,
            seed: DEFAULT_FLEET_SEED,
            rings: rings.clone(),
        },
    };
    // Apply overrides only when the scenario states them, so a bare named
    // region reproduces its hard-coded study exactly. An inline region
    // without them runs the fleet defaults.
    if let Some(seed) = doc.seed {
        spec.seed = seed;
    }
    if let Some(hours) = doc.hours {
        spec.duration_hours = hours;
    }
    let chaos = chaos_plan(doc)?;
    let chaos_ring = doc.chaos.as_ref().and_then(|c| c.ring.clone());
    if let Some(ring) = &chaos_ring {
        if !spec.rings.iter().any(|r| &r.name == ring) {
            return Err(ScenarioError::invalid(format!(
                "[chaos] ring {ring:?} is not a ring of region {:?} (rings: {})",
                spec.name,
                spec.rings
                    .iter()
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
    }
    let (oracle, _) = fitted_oracle(doc, spec.seed);
    Ok(CompiledRegion {
        fleet_name: doc.name.clone(),
        spec,
        chaos,
        chaos_ring,
        trace: doc.trace,
        oracle,
    })
}

fn compile_pools(doc: &ScenarioDoc) -> Result<CompiledPools, ScenarioError> {
    let pools = doc
        .pools
        .as_ref()
        .ok_or_else(|| ScenarioError::invalid("pools scenario lost its [pools]"))?;
    let seed = doc.seed.unwrap_or(DEFAULT_FLEET_SEED);
    let (oracle, _) = fitted_oracle(doc, seed);
    // Member m of every pool holds 5 + m GB.
    let member_sizes: Vec<Vec<f64>> = (0..pools.pools)
        .map(|_| (0..pools.members).map(|m| 5.0 + m as f64).collect())
        .collect();
    Ok(CompiledPools {
        fleet_name: doc.name.clone(),
        seed,
        pools: pools.pools,
        databases: pools.databases,
        pool_vcores: pools.pool_vcores,
        per_db_vcores: pools.per_db_vcores,
        member_sizes,
        oracle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_fleet::density_fleet;

    fn doc(text: &str) -> ScenarioDoc {
        ScenarioDoc::parse(text).expect("parses")
    }

    #[test]
    fn density_sweep_compiles_to_the_hard_coded_plan() {
        let compiled = compile(&doc(
            crate::builtin::builtin("density_sweep").expect("builtin")
        ))
        .expect("compiles");
        let CompiledScenario::Fleet(fleet) = compiled else {
            panic!("density_sweep is a fleet scenario");
        };
        let reference = density_fleet(42, &[100, 110, 120, 140], 144);
        assert_eq!(fleet.root_seed, 42);
        assert_eq!(fleet.jobs.len(), reference.jobs().len());
        for (job, reference) in fleet.jobs.iter().zip(reference.jobs()) {
            assert_eq!(job.label, reference.label);
            assert_eq!(job.seed, reference.seed);
            assert_eq!(job.scenario, reference.scenario);
            // `ExperimentOverrides` carries no `PartialEq`; the Debug
            // form covers every field, including the chaos plan.
            assert_eq!(
                format!("{:?}", job.overrides),
                format!("{:?}", reference.overrides)
            );
            assert!(!job.trace);
        }
        fleet.oracle.check().expect("baseline streams fit");
    }

    #[test]
    fn chaos_storm_compiles_with_the_named_plan() {
        let compiled = compile(&doc(
            crate::builtin::builtin("chaos_storm").expect("builtin")
        ))
        .expect("compiles");
        let CompiledScenario::Fleet(fleet) = compiled else {
            panic!("chaos_storm is a fleet scenario");
        };
        for job in &fleet.jobs {
            assert!(
                !job.overrides.chaos.is_empty(),
                "chaos jobs carry a live plan"
            );
        }
    }

    #[test]
    fn region_builtin_reproduces_the_named_spec() {
        let compiled = compile(&doc(
            crate::builtin::builtin("region_mixed4").expect("builtin")
        ))
        .expect("compiles");
        let CompiledScenario::Region(region) = compiled else {
            panic!("region_mixed4 is a region scenario");
        };
        assert_eq!(region.spec, RegionSpec::named("mixed4").expect("named"));
        assert_eq!(region.fleet_name, "region-mixed4");
        assert!(region.chaos_ring.is_none());
    }

    #[test]
    fn pool_packing_builtin_uses_the_fixed_ladder() {
        let compiled = compile(&doc(
            crate::builtin::builtin("pool_packing").expect("builtin")
        ))
        .expect("compiles");
        let CompiledScenario::Pools(pools) = compiled else {
            panic!("pool_packing is a pools scenario");
        };
        assert_eq!(pools.pools, 12);
        assert_eq!(pools.member_sizes.len(), 12);
        assert_eq!(pools.member_sizes[3][7], 5.0 + 7.0);
    }

    #[test]
    fn workload_scenario_overrides_every_job_population() {
        let compiled = compile(&doc(crate::builtin::builtin("cohort_mix").expect("builtin")))
            .expect("compiles");
        let CompiledScenario::Fleet(fleet) = compiled else {
            panic!("cohort_mix is a fleet scenario");
        };
        for job in &fleet.jobs {
            let population = job.overrides.population.as_ref().expect("population");
            assert_eq!(population.seed, job.scenario.population_seed);
        }
        // Same doc, compiled twice: byte-for-byte the same jobs.
        let again = compile(&doc(crate::builtin::builtin("cohort_mix").expect("builtin")))
            .expect("compiles");
        let CompiledScenario::Fleet(again) = again else {
            panic!("fleet");
        };
        for (a, b) in fleet.jobs.iter().zip(&again.jobs) {
            assert_eq!(a.overrides.population, b.overrides.population);
        }
    }

    #[test]
    fn duplicate_densities_get_positional_labels() {
        let compiled = compile(&doc(
            "[scenario]\nname = \"dup\"\nkind = \"fleet\"\n[schedule]\ndensities = [110, 110]\n",
        ))
        .expect("compiles");
        let CompiledScenario::Fleet(fleet) = compiled else {
            panic!("fleet");
        };
        assert_eq!(fleet.jobs[0].label, "job000-density-110");
        assert_eq!(fleet.jobs[1].label, "job001-density-110");
        assert_ne!(fleet.jobs[0].seed, fleet.jobs[1].seed);
    }

    #[test]
    fn unknown_chaos_ring_is_rejected() {
        let err = compile(&doc(
            "[scenario]\nname = \"r\"\nkind = \"region\"\n[region]\nspec = \"mixed4\"\n\
             [chaos]\nplan = \"storm\"\nring = \"nope\"\n",
        ))
        .unwrap_err();
        match err {
            ScenarioError::Invalid { message } => {
                assert!(message.contains("nope"), "{message}");
                assert!(message.contains("r100"), "should list rings: {message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn inline_region_compiles_to_the_named_spec() {
        let compiled = compile(&doc(r#"
[scenario]
name = "inline-ci2"
kind = "region"
seed = 7
hours = 6

[region]
policy = "spread"

[[region.ring]]
name = "east"
density = 110
nodes = 8

[[region.ring]]
name = "west"
density = 120
nodes = 6
start_hour = 0
"#))
        .expect("compiles");
        let CompiledScenario::Region(region) = compiled else {
            panic!("an inline region is a region scenario");
        };
        let ci2 = RegionSpec::named("ci2").expect("named");
        assert_eq!(region.spec.name, "inline-ci2");
        assert_eq!(region.spec.policy, ci2.policy);
        assert_eq!(region.spec.seed, ci2.seed);
        assert_eq!(region.spec.duration_hours, ci2.duration_hours);
        assert_eq!(region.spec.rings, ci2.rings);
    }

    #[test]
    fn inline_region_carries_ring_lifecycle_and_seed_pins() {
        let compiled = compile(&doc(
            "[scenario]\nname = \"r\"\nkind = \"region\"\n[region]\npolicy = \"best-fit\"\n\
             [[region.ring]]\nname = \"old\"\ndensity = 110\nnodes = 8\n\
             decommission_hour = 4\nplb_seed = 99\n\
             [[region.ring]]\nname = \"fresh\"\ndensity = 100\nnodes = 8\nstart_hour = 2\n",
        ))
        .expect("compiles");
        let CompiledScenario::Region(region) = compiled else {
            panic!("region");
        };
        assert_eq!(region.spec.seed, DEFAULT_FLEET_SEED);
        assert_eq!(region.spec.duration_hours, DEFAULT_FLEET_HOURS);
        assert_eq!(region.spec.rings[0].decommission_hour, Some(4));
        assert_eq!(region.spec.rings[0].plb_seed, Some(99));
        assert_eq!(region.spec.rings[1].start_hour, 2);
    }
}
