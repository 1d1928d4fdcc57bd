//! Property-based tests for RgManager's metric interception.

use proptest::prelude::*;
use toto_fabric::naming::{NamingService, Value};
use toto_models::compiled::ReplicaRoleKind;
use toto_rgmanager::{persisted_state_key, ModelCache, ReportRequest, RgManager, MODEL_KEY};
use toto_simcore::time::SimTime;
use toto_spec::model::{
    HourlyTable, MetricModelSpec, ModelSetSpec, SteadyStateSpec, TargetPopulation,
};
use toto_spec::{EditionKind, ResourceKind};

fn model_xml(mu: f64, sigma: f64, persisted: bool) -> String {
    ModelSetSpec {
        version: 1,
        base_seed: 9,
        models: vec![MetricModelSpec {
            resource: ResourceKind::Disk,
            target: TargetPopulation::All,
            persisted,
            report_period_secs: 1200,
            reset_value: 0.0,
            additive: true,
            secondary_scale: 1.0,
            seed_salt: 1,
            steady: SteadyStateSpec {
                hourly: HourlyTable::constant(mu, sigma),
            },
            initial: None,
            rapid: None,
        }],
    }
    .to_xml_string()
}

fn request(service: u64, role: ReplicaRoleKind, now: u64, actual: f64) -> ReportRequest {
    ReportRequest {
        replica: service,
        service,
        role,
        edition: EditionKind::PremiumBc,
        resource: ResourceKind::Disk,
        created_at: SimTime::ZERO,
        now: SimTime::from_secs(now),
        actual_load: actual,
    }
}

proptest! {
    #[test]
    fn reported_disk_is_never_negative(
        mu in -5.0f64..5.0,
        sigma in 0.0f64..3.0,
        service: u64,
        steps in 1usize..20,
    ) {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(mu, sigma, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        for i in 1..=steps {
            let v = rg.compute_report(
                &mut naming,
                &request(service, ReplicaRoleKind::Primary, 1200 * i as u64, 0.0),
            );
            prop_assert!(v >= 0.0, "negative report {v}");
        }
    }

    #[test]
    fn persisted_state_equals_last_primary_report(
        mu in 0.0f64..2.0,
        service: u64,
        steps in 1usize..10,
    ) {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(mu, 0.3, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let mut last = 0.0;
        for i in 1..=steps {
            last = rg.compute_report(
                &mut naming,
                &request(service, ReplicaRoleKind::Primary, 1200 * i as u64, 0.0),
            );
        }
        let stored = naming.get(&persisted_state_key(ResourceKind::Disk, service));
        prop_assert_eq!(stored, Some(&Value::Num(last)), "primary persists a number");
        // Any secondary on any node reports exactly the stored value.
        let mut rg2 = RgManager::new(7);
        rg2.refresh_models(&mut naming, &mut cache);
        let v = rg2.compute_report(
            &mut naming,
            &request(service, ReplicaRoleKind::Secondary, 1200 * (steps as u64 + 1), 0.0),
        );
        prop_assert_eq!(v, last);
    }

    #[test]
    fn actual_load_passes_through_unmodeled_metrics(actual in 0.0f64..1e6, service: u64) {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(1.0, 0.0, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let mut req = request(service, ReplicaRoleKind::Primary, 1200, actual);
        req.resource = ResourceKind::Memory; // no memory model in the set
        prop_assert_eq!(rg.compute_report(&mut naming, &req), actual);
    }

    #[test]
    fn forgetting_resets_nonpersisted_state(mu in 0.5f64..2.0, service: u64) {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(mu, 0.0, false));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let grown = (1..=5).fold(0.0, |_, i| {
            rg.compute_report(
                &mut naming,
                &request(service, ReplicaRoleKind::Primary, 1200 * i, 0.0),
            )
        });
        prop_assert!((grown - 5.0 * mu).abs() < 1e-9);
        rg.forget_replica(service);
        let after = rg.compute_report(
            &mut naming,
            &request(service, ReplicaRoleKind::Primary, 7200, 0.0),
        );
        prop_assert!((after - mu).abs() < 1e-9, "state must reset, got {after}");
    }
}
