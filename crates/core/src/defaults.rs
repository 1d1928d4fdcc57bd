//! Default model parameters for the gen5 density study.
//!
//! In the paper these come from training on Azure telemetry; here they are
//! the result of running the `toto-models` training pipeline over the
//! synthetic production traces (see the `model_training` example, which
//! regenerates them and shows the fit quality). They are checked in as
//! constants so experiments are exactly reproducible.

use toto_spec::model::{
    GrowthStateSpec, HourlyTable, InitialCreationSpec, MetricModelSpec, ModelSetSpec,
    RapidGrowthSpec, SteadyStateSpec, TargetPopulation,
};
use toto_spec::population::{PopulationModelSpec, SloMixEntry};
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};

/// Diurnal multiplier used by the default tables: low overnight, peaking
/// mid-afternoon (mirrors the synthetic trace generator's shape).
pub fn diurnal(hour: usize) -> f64 {
    let phase = (hour as f64 - 14.0) / 24.0 * std::f64::consts::TAU;
    0.25 + 0.75 * (0.5 + 0.5 * phase.cos())
}

/// Build an hourly table from a weekday peak value: weekday cells follow
/// the diurnal curve, weekend cells are scaled down; sigma tracks the
/// square root of the mean (over-dispersed counts).
pub fn diurnal_table(weekday_peak: f64, weekend_factor: f64, sigma_scale: f64) -> HourlyTable {
    let mut t = HourlyTable::constant(0.0, 0.0);
    for h in 0..24 {
        let wd = weekday_peak * diurnal(h);
        let we = wd * weekend_factor;
        t.cells[0][h] = (wd, (wd.max(0.25)).sqrt() * sigma_scale);
        t.cells[1][h] = (we, (we.max(0.25)).sqrt() * sigma_scale);
    }
    t
}

/// The ring-level create/drop population model for the density study.
///
/// Rates are region-level traffic scaled down to one tenant ring (§4.1.1
/// scales "by the total number of tenant rings within that region"),
/// tuned so the 14-node ring saturates on the paper's timescale.
pub fn gen5_population_model(seed: u64) -> PopulationModelSpec {
    // GP: ~2.6 creates/hour at the weekday peak; BC several times rarer
    // (Figure 6: "Premium/BC databases had significantly fewer creates").
    let gp_create = diurnal_table(3.0, 0.45, 1.1);
    let bc_create = diurnal_table(0.30, 0.5, 1.0);
    // Drops trail creates so the ring's population grows over the run;
    // BC grows faster in share, pushing local-store disk up over the days.
    let gp_drop = diurnal_table(3.0 * 0.80, 0.45, 1.1);
    let bc_drop = diurnal_table(0.30 * 0.55, 0.5, 1.0);
    PopulationModelSpec {
        seed,
        create: [gp_create, bc_create],
        drop: [gp_drop, bc_drop],
        slo_mix: [
            vec![
                SloMixEntry {
                    slo_name: "GP_2".into(),
                    weight: 48.0,
                },
                SloMixEntry {
                    slo_name: "GP_4".into(),
                    weight: 30.0,
                },
                SloMixEntry {
                    slo_name: "GP_8".into(),
                    weight: 14.0,
                },
                SloMixEntry {
                    slo_name: "GP_16".into(),
                    weight: 6.0,
                },
                SloMixEntry {
                    slo_name: "GP_24".into(),
                    weight: 2.0,
                },
            ],
            vec![
                SloMixEntry {
                    slo_name: "BC_2".into(),
                    weight: 40.0,
                },
                SloMixEntry {
                    slo_name: "BC_4".into(),
                    weight: 29.0,
                },
                SloMixEntry {
                    slo_name: "BC_8".into(),
                    weight: 20.0,
                },
                SloMixEntry {
                    slo_name: "BC_16".into(),
                    weight: 8.0,
                },
                SloMixEntry {
                    slo_name: "BC_24".into(),
                    weight: 3.0,
                },
            ],
        ],
        // Initial disk per replica, GB: GP carries only tempDB; BC carries
        // a full local data copy (heavy tail up to ~1.5 TB).
        initial_disk_bins: [
            vec![0.1, 0.5, 1.0, 2.0, 4.0, 8.0],
            vec![10.0, 40.0, 120.0, 250.0, 400.0, 600.0],
        ],
    }
}

/// The disk (and memory) model set for the density study.
pub fn gen5_model_set(base_seed: u64, report_period_secs: u64) -> ModelSetSpec {
    // Steady-state disk deltas per 20-minute report, GB: small, diurnal,
    // occasionally negative (§4.2.2). BC databases hold real data and
    // grow faster than GP tempDB churn.
    let bc_steady = {
        let mut t = HourlyTable::constant(0.0, 0.0);
        for h in 0..24 {
            let mu = 0.13 * diurnal(h);
            t.cells[0][h] = (mu, 0.17);
            t.cells[1][h] = (mu * 0.5, 0.12);
        }
        t
    };
    let gp_steady = {
        let mut t = HourlyTable::constant(0.0, 0.0);
        for h in 0..24 {
            let mu = 0.06 * diurnal(h);
            t.cells[0][h] = (mu, 0.12);
            t.cells[1][h] = (mu * 0.5, 0.08);
        }
        t
    };
    ModelSetSpec {
        version: 1,
        base_seed,
        models: vec![
            MetricModelSpec {
                resource: ResourceKind::Disk,
                target: TargetPopulation::Edition(EditionKind::PremiumBc),
                persisted: true,
                report_period_secs,
                reset_value: 0.0,
                additive: true,
                secondary_scale: 1.0,
                seed_salt: 1,
                steady: SteadyStateSpec { hourly: bc_steady },
                // §4.2.3: restores from .mdf; §5.3.2 saw a BC database grow
                // ~1.3 TB in its first 30 minutes.
                initial: Some(InitialCreationSpec {
                    probability: 0.60,
                    duration_secs: 30 * 60,
                    bin_edges: vec![12.0, 40.0, 90.0, 160.0, 240.0, 320.0],
                }),
                // §4.2.4: ETL-style spike cycles on a small minority.
                rapid: Some(RapidGrowthSpec {
                    probability: 0.03,
                    steady_secs: 8 * 3600,
                    between_secs: 12 * 3600,
                    increase: GrowthStateSpec {
                        duration_secs: 40 * 60,
                        bin_edges: vec![10.0, 25.0, 60.0, 120.0, 240.0, 400.0],
                    },
                    decrease: GrowthStateSpec {
                        duration_secs: 60 * 60,
                        bin_edges: vec![10.0, 25.0, 60.0, 120.0, 240.0, 400.0],
                    },
                }),
            },
            MetricModelSpec {
                resource: ResourceKind::Disk,
                target: TargetPopulation::Edition(EditionKind::StandardGp),
                // §3.3.2: GP disk is tempDB only and resets on failover.
                persisted: false,
                report_period_secs,
                reset_value: 0.5,
                additive: true,
                secondary_scale: 1.0,
                seed_salt: 2,
                steady: SteadyStateSpec { hourly: gp_steady },
                initial: None,
                rapid: None,
            },
            // CPU *usage* model (§5.5 future work, shipped as an extension):
            // the sampled value is interpreted as a utilization fraction of
            // the replica's reservation and feeds the node governor — it is
            // never reported to the PLB, whose Cpu metric stays the
            // admission-time reservation.
            MetricModelSpec {
                resource: ResourceKind::Cpu,
                target: TargetPopulation::All,
                persisted: false,
                report_period_secs,
                reset_value: 0.05,
                additive: false,
                secondary_scale: 0.30,
                seed_salt: 4,
                steady: SteadyStateSpec {
                    hourly: {
                        let mut t = HourlyTable::constant(0.0, 0.0);
                        for h in 0..24 {
                            let mu = 0.22 * diurnal(h);
                            t.cells[0][h] = (mu, 0.18);
                            t.cells[1][h] = (mu * 0.6, 0.12);
                        }
                        t
                    },
                },
                initial: None,
                rapid: None,
            },
            // Memory models are §5.5 "future work" in the paper; we ship
            // them as an extension: absolute levels that reset on failover
            // (a cold buffer pool), with secondaries at a quarter of the
            // primary's footprint.
            MetricModelSpec {
                resource: ResourceKind::Memory,
                target: TargetPopulation::All,
                persisted: false,
                report_period_secs,
                reset_value: 0.5,
                additive: false,
                secondary_scale: 0.25,
                seed_salt: 3,
                steady: SteadyStateSpec {
                    hourly: {
                        let mut t = HourlyTable::constant(0.0, 0.0);
                        for h in 0..24 {
                            let mu = 6.0 * diurnal(h);
                            t.cells[0][h] = (mu, 1.5);
                            t.cells[1][h] = (mu * 0.6, 1.0);
                        }
                        t
                    },
                },
                initial: None,
                rapid: None,
            },
        ],
    }
}

/// A zero-growth model set used while bootstrapping: §5.2 "during
/// bootstrap, the disk usage growth was fixed to 0 to prevent the
/// databases from growing before the experiment had begun".
pub fn frozen_model_set(base_seed: u64, report_period_secs: u64) -> ModelSetSpec {
    let mut set = gen5_model_set(base_seed, report_period_secs);
    set.version = 0;
    for model in &mut set.models {
        if model.resource == ResourceKind::Disk {
            model.steady.hourly = HourlyTable::constant(0.0, 0.0);
            model.initial = None;
            model.rapid = None;
        }
    }
    set
}

/// Bootstrap SLO-mix target for Table 3: the initial 220 databases should
/// reserve most of the 100 %-density logical cores, leaving only a few
/// dozen free.
pub fn bootstrap_reserved_target(scenario: &ScenarioSpec) -> f64 {
    scenario.base_cpu_capacity_per_node() * scenario.node_count as f64 - 65.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_mid_afternoon() {
        assert!(diurnal(14) > diurnal(2));
        assert!((diurnal(14) - 1.0).abs() < 1e-9);
        assert!(diurnal(2) >= 0.25);
    }

    #[test]
    fn population_model_is_weekday_heavy() {
        let spec = gen5_population_model(9);
        let gp = &spec.create[EditionKind::StandardGp.index()];
        assert!(gp.cells[0][14].0 > gp.cells[1][14].0);
        let bc = &spec.create[EditionKind::PremiumBc.index()];
        assert!(bc.cells[0][14].0 < gp.cells[0][14].0 / 4.0);
    }

    #[test]
    fn model_set_covers_disk_for_both_editions() {
        let set = gen5_model_set(1, 1200);
        let bc = set
            .model_for(ResourceKind::Disk, EditionKind::PremiumBc)
            .unwrap();
        assert!(bc.persisted);
        let gp = set
            .model_for(ResourceKind::Disk, EditionKind::StandardGp)
            .unwrap();
        assert!(!gp.persisted);
        assert!(set
            .model_for(ResourceKind::Memory, EditionKind::PremiumBc)
            .is_some());
        // CPU *usage* model (utilization fraction for the node governor;
        // the PLB's Cpu metric remains the reservation).
        let cpu = set
            .model_for(ResourceKind::Cpu, EditionKind::StandardGp)
            .unwrap();
        assert!(!cpu.additive);
        assert!(cpu.secondary_scale < 1.0);
    }

    #[test]
    fn frozen_set_has_zero_disk_growth() {
        let set = frozen_model_set(1, 1200);
        assert_eq!(set.version, 0);
        let bc = set
            .model_for(ResourceKind::Disk, EditionKind::PremiumBc)
            .unwrap();
        assert_eq!(bc.steady.hourly.cells[0][14], (0.0, 0.0));
        assert!(bc.initial.is_none());
        // Memory models stay live during bootstrap.
        let mem = set
            .model_for(ResourceKind::Memory, EditionKind::PremiumBc)
            .unwrap();
        assert!(mem.steady.hourly.cells[0][14].0 > 0.0);
    }

    #[test]
    fn bootstrap_target_leaves_65_free_cores() {
        let s = ScenarioSpec::gen5_stage_cluster(100);
        let target = bootstrap_reserved_target(&s);
        assert!((s.total_logical_cores() - target - 65.0).abs() < 1e-9);
    }
}
