//! Cross-crate integration tests: the whole Toto stack wired together,
//! exercising the paper's end-to-end flows across crate boundaries.

use toto::experiment::{DensityExperiment, ExperimentOverrides};
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};

fn short(density: u32, hours: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::gen5_stage_cluster(density);
    s.duration_hours = hours;
    s
}

#[test]
fn experiment_is_bit_reproducible_end_to_end() {
    let a = DensityExperiment::new(short(120, 6), ExperimentOverrides::default()).run();
    let b = DensityExperiment::new(short(120, 6), ExperimentOverrides::default()).run();
    assert_eq!(a.final_reserved_cores, b.final_reserved_cores);
    assert_eq!(a.final_disk_gb, b.final_disk_gb);
    assert_eq!(a.redirect_count, b.redirect_count);
    assert_eq!(a.revenue, b.revenue);
    assert_eq!(a.telemetry.failovers.len(), b.telemetry.failovers.len());
    assert_eq!(a.billing.len(), b.billing.len());
}

#[test]
fn telemetry_series_are_hourly_and_monotone_where_required() {
    let r = DensityExperiment::new(short(110, 8), ExperimentOverrides::default()).run();
    // Hourly KPI snapshots: 0..=8 inclusive.
    assert_eq!(r.telemetry.reserved_cores.len(), 9);
    assert_eq!(r.telemetry.disk_usage.len(), 9);
    // Cumulative redirect counts never decrease.
    let redirects = r.telemetry.creation_redirects.values();
    assert!(redirects.windows(2).all(|w| w[1] >= w[0]));
    // Reserved cores stay within the ring's logical capacity.
    let capacity = r.scenario.total_logical_cores();
    assert!(r
        .telemetry
        .reserved_cores
        .values()
        .iter()
        .all(|&c| c >= 0.0 && c <= capacity + 1e-6));
}

#[test]
fn billing_covers_every_database_that_ever_lived() {
    let r = DensityExperiment::new(short(110, 10), ExperimentOverrides::default()).run();
    // 220 bootstrap databases plus everything admitted during the run.
    assert!(r.billing.len() >= 220);
    // Every record has a sane lifetime and non-negative money.
    let params = toto_telemetry::revenue::RevenueParams::default();
    for rec in &r.billing {
        let b = params.score(rec, toto_simcore::time::SimTime::from_secs(u64::MAX / 2));
        assert!(b.compute >= 0.0 && b.storage >= 0.0 && b.penalty >= 0.0);
        assert!(rec.avg_data_gb >= 0.0, "avg disk of {}", rec.service);
    }
    // Dropped databases have drop after creation.
    for rec in r.billing.iter().filter(|b| b.dropped_at.is_some()) {
        assert!(rec.dropped_at.unwrap() >= rec.created_at);
    }
}

#[test]
fn failovers_carry_consistent_metadata() {
    // Run long enough at the highest density to see some failovers.
    let r = DensityExperiment::new(short(140, 72), ExperimentOverrides::default()).run();
    for f in &r.telemetry.failovers {
        assert!(f.cores_moved > 0.0, "moved replicas reserve cores");
        assert!(f.disk_gb >= 0.0);
        if !f.was_primary {
            assert_eq!(f.downtime_secs, 0.0, "secondary moves are transparent");
        }
        if f.edition == EditionKind::StandardGp {
            assert!(f.was_primary, "GP has a single (primary) replica");
        }
    }
}

#[test]
fn model_override_changes_behaviour() {
    // Freeze disk growth: the run should see (almost) no disk change
    // beyond population churn, and certainly no growth-driven failovers.
    let mut overrides = ExperimentOverrides::default();
    let mut frozen = toto::defaults::frozen_model_set(1, 1200);
    frozen.version = 1;
    overrides.models = Some(frozen);
    let frozen_run = DensityExperiment::new(short(140, 24), overrides).run();
    let live_run = DensityExperiment::new(short(140, 24), ExperimentOverrides::default()).run();
    // The live model grows disk; frozen stays near the bootstrap level
    // modulo create/drop churn.
    assert!(live_run.final_disk_gb > frozen_run.final_disk_gb);
}

#[test]
fn scenario_xml_round_trips_through_the_spec_layer() {
    // The default model set round-trips through the Naming Service
    // format used by RgManager.
    let models = toto::defaults::gen5_model_set(7, 1200);
    let parsed = toto_spec::model::ModelSetSpec::from_xml_str(&models.to_xml_string()).unwrap();
    assert_eq!(parsed, models);
    assert!(parsed
        .model_for(ResourceKind::Disk, EditionKind::PremiumBc)
        .is_some());
}

#[test]
fn population_seed_controls_churn_only() {
    let mut s1 = short(110, 6);
    s1.population_seed = 1;
    let mut s2 = short(110, 6);
    s2.population_seed = 2;
    let a = DensityExperiment::new(s1, ExperimentOverrides::default()).run();
    let b = DensityExperiment::new(s2, ExperimentOverrides::default()).run();
    // Bootstrap differs too (it derives from the population seed), but
    // both must produce the Table-2 population shape.
    assert_eq!(a.bootstrap.services.len(), 220);
    assert_eq!(b.bootstrap.services.len(), 220);
    // Different seeds must diverge in created databases essentially always.
    assert_ne!(
        (a.created_during_run, a.final_reserved_cores.round() as u64),
        (b.created_during_run, b.final_reserved_cores.round() as u64)
    );
}
