//! RgManager — the per-node resource governor with Toto inside.
//!
//! §3.2: "There is a single RgManager instance running on every node in
//! the cluster … when a replica for a SQL database needs to report its
//! CPU, memory, and disk usage to PLB, it first consults RgManager by
//! issuing an RPC." §3.3.1 describes Toto's modification: "we implemented
//! Toto to leverage the existing Azure SQL DB infrastructure by
//! redirecting the metric request RPCs in RgManager to sample from defined
//! models instead of returning the actual resource utilization."
//!
//! The flow implemented here, faithful to §3.3:
//!
//! 1. Every 15 (simulated) minutes each RgManager re-reads the model XML
//!    from the Naming Service and recompiles its model objects when the
//!    version changed.
//! 2. On a metric report request, if no model covers `(resource, edition)`
//!    the *actual* load is returned — the normal operating behaviour.
//! 3. Non-persisted metrics keep their previous reported value in
//!    RgManager's process memory: a failover lands the replica on another
//!    node whose RgManager has no memory of it, so the value resets —
//!    exactly the cold-buffer-pool behaviour §3.3.2 wants.
//! 4. Persisted metrics (local-store disk) round-trip their previous
//!    value through the Naming Service, stored as a number and read and
//!    written in one probe ([`NamingService::update_num`]). Only the
//!    primary executes the model and writes; secondaries report the
//!    stored value verbatim, so a newly promoted primary "will have the
//!    same disk usage as the previous primary replica".

pub mod governance;

use toto_fabric::naming::NamingService;
use toto_models::compiled::{CompiledModelSet, ReplicaRoleKind, SampleContext};
use toto_simcore::collections::{det_hash_map, DetHashMap};
use toto_simcore::time::SimTime;
use toto_spec::model::ModelSetSpec;
use toto_spec::{EditionKind, ResourceKind};

/// The Naming Service key that holds the serialized model XML.
pub const MODEL_KEY: &str = "toto/models";

/// Naming Service key for a persisted metric value of one service.
pub fn persisted_state_key(resource: ResourceKind, service_raw: u64) -> String {
    let mut key = String::new();
    persisted_state_key_into(&mut key, resource, service_raw);
    key
}

/// Render a persisted-state key into a reused buffer. The report path
/// builds one key per persisted-metric report; routing every call
/// through one scratch `String` keeps the steady state allocation-free.
pub fn persisted_state_key_into(buf: &mut String, resource: ResourceKind, service_raw: u64) {
    use std::fmt::Write;
    buf.clear();
    let _ = write!(buf, "toto/state/{resource}/svc-{service_raw}");
}

/// One metric report request from a SQL replica.
#[derive(Clone, Copy, Debug)]
pub struct ReportRequest {
    /// Raw replica id (identifies the in-memory state slot).
    pub replica: u64,
    /// Raw service id (identifies the persisted state slot and the
    /// database's pattern membership).
    pub service: u64,
    /// Role of the reporting replica.
    pub role: ReplicaRoleKind,
    /// Edition of the database.
    pub edition: EditionKind,
    /// The metric being reported.
    pub resource: ResourceKind,
    /// When the database was created.
    pub created_at: SimTime,
    /// Now.
    pub now: SimTime,
    /// The replica's actual measured load — returned verbatim when no
    /// model covers this request.
    pub actual_load: f64,
}

/// A per-node RgManager instance.
#[derive(Clone, Debug)]
pub struct RgManager {
    node: u32,
    models: Option<CompiledModelSet>,
    last_version: Option<u64>,
    /// Previous reported values for non-persisted metrics: one slot per
    /// replica, indexed by [`ResourceKind::index`]. Lives and dies with
    /// this RgManager instance. Nothing iterates it, so the hash order
    /// never reaches an artifact.
    mem_state: DetHashMap<u64, [Option<f64>; 3]>,
    refresh_count: u64,
    /// Scratch buffer for persisted-state keys (reused across reports).
    key_scratch: String,
    /// Naming Service blob version of `MODEL_KEY` seen at the previous
    /// refresh. An unchanged blob can't produce a different compile
    /// outcome, so the refresh skips the XML reparse entirely.
    seen_blob_version: Option<u64>,
}

impl RgManager {
    /// Create the RgManager for a node.
    pub fn new(node: u32) -> Self {
        RgManager {
            node,
            models: None,
            last_version: None,
            mem_state: det_hash_map(),
            refresh_count: 0,
            key_scratch: String::new(),
            seen_blob_version: None,
        }
    }

    /// The node this instance governs.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The model-set version currently loaded.
    pub fn loaded_version(&self) -> Option<u64> {
        self.last_version
    }

    /// Number of refresh cycles performed.
    pub fn refresh_count(&self) -> u64 {
        self.refresh_count
    }

    /// Re-read the model XML from the Naming Service, recompiling when
    /// the version changed (§3.3.1's 15-minute refresh). Returns `true`
    /// if the models were (re)compiled. A missing or malformed blob keeps
    /// the previously loaded models.
    pub fn refresh_models(&mut self, naming: &mut NamingService) -> bool {
        self.refresh_count += 1;
        let Some((blob, blob_version)) = naming.get_versioned(MODEL_KEY) else {
            return false;
        };
        if self.seen_blob_version == Some(blob_version) {
            // The blob is byte-identical to the one already processed:
            // reparsing it cannot change the outcome. A previous compile
            // (or a previous rejection of this exact blob) stands.
            return false;
        }
        self.seen_blob_version = Some(blob_version);
        let Some(Ok(spec)) = blob.as_text().map(ModelSetSpec::from_xml_str) else {
            return false;
        };
        if self.last_version == Some(spec.version) {
            return false;
        }
        self.models = Some(CompiledModelSet::compile(&spec));
        self.last_version = Some(spec.version);
        debug_assert!(
            self.models.is_some() && self.last_version == Some(spec.version),
            "refresh_models left models and version out of sync"
        );
        toto_trace::emit(toto_trace::EventKind::ModelRefresh, || {
            toto_trace::EventBody::ModelRefresh {
                node: u64::from(self.node),
                version: spec.version,
            }
        });
        true
    }

    /// Drop the in-memory state of a replica that left this node (its
    /// process restarted elsewhere). Non-persisted metrics then reset on
    /// their next report, as in production.
    pub fn forget_replica(&mut self, replica: u64) {
        self.mem_state.remove(&replica);
    }

    /// Handle a metric report RPC: returns the value the replica should
    /// report to the PLB.
    pub fn compute_report(&mut self, naming: &mut NamingService, req: &ReportRequest) -> f64 {
        let value = self.compute_report_value(naming, req);
        debug_assert!(
            value.is_finite(),
            "metric report for {:?} must be finite before it reaches the PLB",
            req.resource
        );
        toto_trace::emit(toto_trace::EventKind::MetricReport, || {
            toto_trace::EventBody::MetricReport {
                service: req.service,
                replica: req.replica,
                node: u64::from(self.node),
                resource: req.resource.to_string(),
                value,
            }
        });
        value
    }

    fn compute_report_value(&mut self, naming: &mut NamingService, req: &ReportRequest) -> f64 {
        let Some(models) = &self.models else {
            return req.actual_load;
        };
        let Some(model) = models.model_for(req.resource, req.edition) else {
            // "If no model exists for the replica and the load metric that
            // is being reported, the replica's actual load usage will be
            // reported" (§3.3.1).
            return req.actual_load;
        };
        let mut ctx = SampleContext {
            service: req.service,
            node: self.node,
            role: req.role,
            created_at: req.created_at,
            now: req.now,
            prev: None,
        };
        if model.persisted() {
            persisted_state_key_into(&mut self.key_scratch, req.resource, req.service);
            // "only the primary replica executes the model and persists
            // the load" (§3.3.2): one probe reads the previous value and,
            // for the primary, stores the new one.
            let persist = req.role == ReplicaRoleKind::Primary;
            let value = naming.update_num(&self.key_scratch, persist, |prev| {
                ctx.prev = prev;
                model.next_value(&ctx)
            });
            debug_assert!(
                value.is_finite(),
                "model produced non-finite persisted report for {:?}",
                req.resource
            );
            value
        } else {
            let slot = &mut self.mem_state.entry(req.replica).or_default()[req.resource.index()];
            ctx.prev = *slot;
            let value = model.next_value(&ctx);
            debug_assert!(
                value.is_finite(),
                "model produced non-finite in-memory report for {:?}",
                req.resource
            );
            *slot = Some(value);
            value
        }
    }

    /// Remove the persisted state of a dropped service from the Naming
    /// Service (housekeeping performed on delete).
    pub fn clear_persisted_state(naming: &mut NamingService, service_raw: u64) {
        for resource in ResourceKind::ALL {
            naming.delete(&persisted_state_key(resource, service_raw));
        }
        debug_assert!(
            ResourceKind::ALL
                .iter()
                .all(|r| !naming.contains_key(&persisted_state_key(*r, service_raw))),
            "clear_persisted_state left residual keys for svc-{service_raw}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_fabric::naming::Value;
    use toto_spec::model::{
        HourlyTable, MetricModelSpec, ModelSetSpec, SteadyStateSpec, TargetPopulation,
    };

    fn disk_model_xml(version: u64, mu: f64, persisted: bool) -> String {
        ModelSetSpec {
            version,
            base_seed: 42,
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
                    hourly: HourlyTable::constant(mu, 0.0),
                },
                initial: None,
                rapid: None,
            }],
        }
        .to_xml_string()
    }

    fn request(replica: u64, service: u64, role: ReplicaRoleKind, now: u64) -> ReportRequest {
        ReportRequest {
            replica,
            service,
            role,
            edition: EditionKind::PremiumBc,
            resource: ResourceKind::Disk,
            created_at: SimTime::ZERO,
            now: SimTime::from_secs(now),
            actual_load: 7.5,
        }
    }

    #[test]
    fn no_models_means_actual_load() {
        let mut naming = NamingService::new();
        let mut rg = RgManager::new(0);
        let v = rg.compute_report(&mut naming, &request(1, 1, ReplicaRoleKind::Primary, 0));
        assert_eq!(v, 7.5);
    }

    #[test]
    fn uncovered_metric_falls_through_to_actual() {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        let mut rg = RgManager::new(0);
        assert!(rg.refresh_models(&mut naming));
        let mut req = request(1, 1, ReplicaRoleKind::Primary, 1200);
        req.resource = ResourceKind::Memory;
        assert_eq!(rg.compute_report(&mut naming, &req), 7.5);
    }

    #[test]
    fn refresh_only_recompiles_on_version_change() {
        let mut naming = NamingService::new();
        let mut rg = RgManager::new(0);
        assert!(!rg.refresh_models(&mut naming)); // nothing written yet
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        assert!(rg.refresh_models(&mut naming));
        assert!(!rg.refresh_models(&mut naming)); // same version
        naming.write(MODEL_KEY, disk_model_xml(2, 0.5, true));
        assert!(rg.refresh_models(&mut naming));
        assert_eq!(rg.loaded_version(), Some(2));
        assert_eq!(rg.refresh_count(), 4);
    }

    #[test]
    fn malformed_blob_keeps_old_models() {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        let mut rg = RgManager::new(0);
        assert!(rg.refresh_models(&mut naming));
        naming.write(MODEL_KEY, "<broken");
        assert!(!rg.refresh_models(&mut naming));
        assert_eq!(rg.loaded_version(), Some(1));
        // Reports still work off the old models.
        let v = rg.compute_report(&mut naming, &request(1, 1, ReplicaRoleKind::Primary, 1200));
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn persisted_metric_round_trips_naming_service() {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming);
        let v1 = rg.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 1200));
        assert!((v1 - 1.0).abs() < 1e-12);
        let v2 = rg.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 2400));
        assert!((v2 - 2.0).abs() < 1e-12);
        // The persisted value is in the naming service, as a number.
        let Some(&Value::Num(stored)) = naming.get(&persisted_state_key(ResourceKind::Disk, 9))
        else {
            panic!("the primary stores a number");
        };
        assert!((stored - 2.0).abs() < 1e-12);
    }

    #[test]
    fn secondary_reads_persisted_value_without_executing() {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg0 = RgManager::new(0);
        let mut rg1 = RgManager::new(1);
        rg0.refresh_models(&mut naming);
        rg1.refresh_models(&mut naming);
        // Primary on node 0 reports twice.
        rg0.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 1200));
        rg0.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 2400));
        let writes_before = naming.stats().writes;
        // Secondary on node 1 reports the stored value and writes nothing.
        let v = rg1.compute_report(
            &mut naming,
            &request(2, 9, ReplicaRoleKind::Secondary, 2400),
        );
        assert!((v - 2.0).abs() < 1e-12);
        assert_eq!(naming.stats().writes, writes_before);
    }

    #[test]
    fn promoted_primary_continues_from_persisted_value() {
        // The §3.3.2 guarantee: after failover the newly promoted primary
        // has the same disk usage as the previous primary.
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg0 = RgManager::new(0);
        let mut rg1 = RgManager::new(1);
        rg0.refresh_models(&mut naming);
        rg1.refresh_models(&mut naming);
        for i in 1..=5 {
            rg0.compute_report(
                &mut naming,
                &request(1, 9, ReplicaRoleKind::Primary, 1200 * i),
            );
        }
        // Old primary reported 5.0; promoted replica (on node 1) continues.
        let v = rg1.compute_report(&mut naming, &request(2, 9, ReplicaRoleKind::Primary, 7200));
        assert!((v - 6.0).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn non_persisted_metric_resets_on_failover() {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, false));
        let mut rg0 = RgManager::new(0);
        let mut rg1 = RgManager::new(1);
        rg0.refresh_models(&mut naming);
        rg1.refresh_models(&mut naming);
        for i in 1..=4 {
            rg0.compute_report(
                &mut naming,
                &request(1, 9, ReplicaRoleKind::Primary, 1200 * i),
            );
        }
        // Fail over: new node's RgManager has no memory of the replica.
        let v = rg1.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 6000));
        assert!((v - 1.0).abs() < 1e-12, "reset then one delta, got {v}");
        // And the old node forgets on departure.
        rg0.forget_replica(1);
        let v2 = rg0.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 7200));
        assert!((v2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_persisted_state_removes_keys() {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming);
        rg.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 1200));
        assert!(naming
            .get(&persisted_state_key(ResourceKind::Disk, 9))
            .is_some());
        RgManager::clear_persisted_state(&mut naming, 9);
        assert!(naming
            .get(&persisted_state_key(ResourceKind::Disk, 9))
            .is_none());
    }

    #[test]
    fn value_serialisation_round_trips() {
        // The persisted value must round-trip bitwise through the Naming
        // Service, and text seeded with `{:?}` must parse back to the
        // bits it was formatted from.
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1_234.567_890_123_456_7, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming);
        let v = rg.compute_report(&mut naming, &request(1, 9, ReplicaRoleKind::Primary, 1200));
        let key = persisted_state_key(ResourceKind::Disk, 9);
        let Some(&Value::Num(stored)) = naming.get(&key) else {
            panic!("the primary stores a number");
        };
        assert_eq!(
            stored.to_bits(),
            v.to_bits(),
            "persisted value must round-trip bitwise: {stored} vs {v}"
        );
        naming.write(&key, format!("{v:?}"));
        let secondary = rg.compute_report(
            &mut naming,
            &request(2, 9, ReplicaRoleKind::Secondary, 2400),
        );
        assert_eq!(secondary.to_bits(), v.to_bits(), "{secondary} vs {v}");
    }
}
