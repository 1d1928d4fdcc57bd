//! Property-based tests for RgManager's metric interception.

use std::collections::BTreeMap;

use proptest::prelude::*;
use toto_fabric::naming::{NamingService, Value};
use toto_models::compiled::{CompiledModelSet, ReplicaRoleKind, SampleContext};
use toto_rgmanager::{
    persisted_state_key, InMemoryState, ModelCache, ReportRequest, RgManager, MODEL_KEY,
};
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

/// The replica id of [`request`]'s reports; it only keys in-memory state.
const REPLICA: u64 = 3;

fn request(service: u64, role: ReplicaRoleKind, now: u64, actual: f64) -> ReportRequest {
    ReportRequest {
        replica: REPLICA,
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
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(mu, sigma, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        for i in 1..=steps {
            let v = rg.compute_report(
                &mut naming,
                &mut memory,
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
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(mu, 0.3, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let mut last = 0.0;
        for i in 1..=steps {
            last = rg.compute_report(
                &mut naming,
                &mut memory,
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
            &mut memory,
            &request(service, ReplicaRoleKind::Secondary, 1200 * (steps as u64 + 1), 0.0),
        );
        prop_assert_eq!(v, last);
    }

    #[test]
    fn actual_load_passes_through_unmodeled_metrics(actual in 0.0f64..1e6, service: u64) {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(1.0, 0.0, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let mut req = request(service, ReplicaRoleKind::Primary, 1200, actual);
        req.resource = ResourceKind::Memory; // no memory model in the set
        prop_assert_eq!(rg.compute_report(&mut naming,&mut memory, &req), actual);
    }

    #[test]
    fn forgetting_resets_nonpersisted_state(mu in 0.5f64..2.0, service: u64) {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, model_xml(mu, 0.0, false));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let grown = (1..=5).fold(0.0, |_, i| {
            rg.compute_report(
                &mut naming,
                &mut memory,
                &request(service, ReplicaRoleKind::Primary, 1200 * i, 0.0),
            )
        });
        prop_assert!((grown - 5.0 * mu).abs() < 1e-9);
        memory.forget_replica(REPLICA);
        let after = rg.compute_report(
            &mut naming,
            &mut memory,
            &request(service, ReplicaRoleKind::Primary, 7200, 0.0),
        );
        prop_assert!((after - mu).abs() < 1e-9, "state must reset, got {after}");
    }
}

/// Additive, non-persisted models for all three resources, so every
/// report reads and writes its replica's in-memory slot.
fn in_memory_models(mu: f64, sigma: f64) -> ModelSetSpec {
    let model = |resource, seed_salt| MetricModelSpec {
        resource,
        target: TargetPopulation::All,
        persisted: false,
        report_period_secs: 1200,
        reset_value: 0.0,
        additive: true,
        secondary_scale: 1.0,
        seed_salt,
        steady: SteadyStateSpec {
            hourly: HourlyTable::constant(mu, sigma),
        },
        initial: None,
        rapid: None,
    };
    ModelSetSpec {
        version: 1,
        base_seed: 9,
        models: vec![
            model(ResourceKind::Cpu, 1),
            model(ResourceKind::Memory, 2),
            model(ResourceKind::Disk, 3),
        ],
    }
}

/// One step of an equivalence run over a 4-node ring with 6 replicas.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A replica reports one resource through its host's RgManager.
    Report { replica: usize, resource: usize },
    /// A replica becomes its service's primary, in place.
    Promote { replica: usize },
    /// A replica moves to another node; the source forgets it.
    Move { replica: usize, to: u32 },
    /// A replica is dropped (forgotten) and a replica with a new id
    /// takes its place on the same node.
    Drop { replica: usize },
}

const NODES: u32 = 4;
const REPLICAS: usize = 6;

fn step() -> impl Strategy<Value = Step> {
    (0u8..6, 0..REPLICAS, 0..NODES, 0usize..3).prop_map(
        |(kind, replica, node, resource)| match kind {
            0..=2 => Step::Report { replica, resource },
            3 => Step::Promote { replica },
            4 => Step::Move { replica, to: node },
            _ => Step::Drop { replica },
        },
    )
}

/// Run `steps` through RgManagers sharing one [`InMemoryState`], and
/// through a reference that keeps a separate map of replica state per
/// node, as each RgManager's process memory does. Asserts that every
/// report is bit-equal and returns the reported values in order.
fn run_against_per_node_maps(mu: f64, sigma: f64, steps: &[Step]) -> Vec<f64> {
    let spec = in_memory_models(mu, sigma);
    let mut naming = NamingService::new();
    let mut cache = ModelCache::new();
    naming.write(MODEL_KEY, spec.to_xml_string());
    let mut rgs: Vec<RgManager> = (0..NODES).map(RgManager::new).collect();
    for rg in &mut rgs {
        rg.refresh_models(&mut naming, &mut cache);
    }
    let mut memory = InMemoryState::new();
    let models = CompiledModelSet::compile(&spec);
    let mut per_node: Vec<BTreeMap<u64, [Option<f64>; 3]>> = vec![BTreeMap::new(); NODES as usize];
    // (replica id, service, node, role); replicas 2k and 2k + 1 serve
    // service k.
    let mut replicas: Vec<(u64, u64, u32, ReplicaRoleKind)> = (0..REPLICAS)
        .map(|i| {
            let role = if i % 2 == 0 {
                ReplicaRoleKind::Primary
            } else {
                ReplicaRoleKind::Secondary
            };
            (i as u64, (i / 2) as u64, i as u32 % NODES, role)
        })
        .collect();
    let mut next_id = REPLICAS as u64;
    let mut reported = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        let now = SimTime::from_secs(1200 * (i as u64 + 1));
        match step {
            Step::Report { replica, resource } => {
                let (id, service, node, role) = replicas[replica];
                let resource = ResourceKind::ALL[resource];
                let req = ReportRequest {
                    replica: id,
                    service,
                    role,
                    edition: EditionKind::PremiumBc,
                    resource,
                    created_at: SimTime::ZERO,
                    now,
                    actual_load: 0.0,
                };
                let value = rgs[node as usize].compute_report(&mut naming, &mut memory, &req);
                let slot = &mut per_node[node as usize].entry(id).or_default()[resource.index()];
                let model = models
                    .model_for(resource, EditionKind::PremiumBc)
                    .expect("every resource is modelled");
                let expected = model.next_value(&SampleContext {
                    service,
                    node,
                    role,
                    created_at: SimTime::ZERO,
                    now,
                    prev: *slot,
                });
                *slot = Some(expected);
                assert_eq!(
                    value.to_bits(),
                    expected.to_bits(),
                    "step {i} {step:?}: {value} vs {expected}"
                );
                reported.push(value);
            }
            Step::Promote { replica } => {
                let sibling = replica ^ 1;
                replicas[replica].3 = ReplicaRoleKind::Primary;
                replicas[sibling].3 = ReplicaRoleKind::Secondary;
            }
            Step::Move { replica, to } => {
                let (id, _, from, _) = replicas[replica];
                if from != to {
                    per_node[from as usize].remove(&id);
                    memory.forget_replica(id);
                    replicas[replica].2 = to;
                }
            }
            Step::Drop { replica } => {
                let (id, _, node, _) = replicas[replica];
                per_node[node as usize].remove(&id);
                memory.forget_replica(id);
                replicas[replica].0 = next_id;
                next_id += 1;
            }
        }
    }
    reported
}

proptest! {
    #[test]
    fn shared_in_memory_state_reports_like_per_node_maps(
        mu in 0.1f64..2.0,
        sigma in 0.0f64..1.0,
        steps in prop::collection::vec(step(), 1..120),
    ) {
        run_against_per_node_maps(mu, sigma, &steps);
    }
}

#[test]
fn moves_away_and_back_starts_fresh() {
    let report = Step::Report {
        replica: 0,
        resource: 2,
    };
    let steps = [
        report,
        report,
        report,
        Step::Move { replica: 0, to: 1 },
        report,
        report,
        Step::Move { replica: 0, to: 0 },
        report,
    ];
    let values = run_against_per_node_maps(1.0, 0.0, &steps);
    // Each constant step adds 1.0 to the previous value, from 0.0.
    assert_eq!(values, [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]);
}

#[test]
fn promotion_keeps_state() {
    let report = Step::Report {
        replica: 1,
        resource: 0,
    };
    let steps = [report, report, Step::Promote { replica: 1 }, report, report];
    let values = run_against_per_node_maps(1.0, 0.0, &steps);
    // The promoted secondary continues from its own previous value.
    assert_eq!(values, [1.0, 2.0, 3.0, 4.0]);
}
