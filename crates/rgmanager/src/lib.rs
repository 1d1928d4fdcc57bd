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
//!    from the Naming Service and loads new model objects when the
//!    version changed. A blob version is parsed and compiled once per
//!    experiment: the first RgManager to see it fills a [`ModelCache`]
//!    and every other node's RgManager shares the compiled set.
//! 2. On a metric report request, if no model covers `(resource, edition)`
//!    the *actual* load is returned — the normal operating behaviour.
//! 3. Non-persisted metrics keep their previous reported value in
//!    RgManager's process memory: a failover lands the replica on another
//!    node whose RgManager has no memory of it, so the value resets —
//!    exactly the cold-buffer-pool behaviour §3.3.2 wants. A replica's
//!    memory only ever lives on its current host, so one experiment keeps
//!    all of it in one table indexed by replica id ([`InMemoryState`]):
//!    every move forgets the replica at its source, a drop forgets it,
//!    and ids are never reused, so each slot holds exactly what the
//!    current host's RgManager would remember.
//! 4. Persisted metrics (local-store disk) round-trip their previous
//!    value through the Naming Service, stored as a number and read and
//!    written in one probe ([`NamingService::update_num`]). Only the
//!    primary executes the model and writes; secondaries report the
//!    stored value verbatim, so a newly promoted primary "will have the
//!    same disk usage as the previous primary replica".

pub mod governance;

use std::sync::Arc;

use toto_fabric::naming::{NamingService, Value};
use toto_models::compiled::{CompiledModelSet, ReplicaRoleKind, SampleContext};
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

/// The outcome of the latest model blob version any RgManager of one
/// experiment read: its compiled set, or `None` when the blob was not a
/// valid model XML. Lives beside the experiment's [`NamingService`],
/// whose blob versions key it, so one parse and compile serves every
/// node.
#[derive(Clone, Debug, Default)]
pub struct ModelCache {
    latest: Option<(u64, Option<Arc<CompiledModelSet>>)>,
    parses: u64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blobs parsed so far (one per blob version read).
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// The compiled models of blob version `version`, parsing and
    /// compiling `blob` unless this version was the last one seen.
    fn compiled(&mut self, blob: &Value, version: u64) -> Option<Arc<CompiledModelSet>> {
        match &self.latest {
            Some((seen, models)) if *seen == version => models.clone(),
            _ => {
                self.parses += 1;
                let models = blob
                    .as_text()
                    .and_then(|xml| ModelSetSpec::from_xml_str(xml).ok())
                    .map(|spec| Arc::new(CompiledModelSet::compile(&spec)));
                self.latest = Some((version, models.clone()));
                models
            }
        }
    }
}

/// The non-persisted metric state of every replica of one experiment:
/// each replica's previous reported value per [`ResourceKind`], in one
/// slot indexed by its raw replica id. Fabric replica ids are allocated
/// sequentially from 0 and never reused, so the table stays dense.
///
/// The slot stands for the replica's memory in its *current* host's
/// RgManager. That holds as long as every move and every drop calls
/// [`InMemoryState::forget_replica`]; debug builds check it by recording
/// which node's RgManager last touched each slot.
#[derive(Clone, Debug, Default)]
pub struct InMemoryState {
    slots: Vec<[Option<f64>; 3]>,
    /// The node whose RgManager owns each slot, or `None` once forgotten.
    #[cfg(debug_assertions)]
    hosts: Vec<Option<u32>>,
}

impl InMemoryState {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the in-memory state of a replica that left its node (its
    /// process restarted elsewhere, or it was dropped). Non-persisted
    /// metrics then reset on its next report, as in production.
    pub fn forget_replica(&mut self, replica: u64) {
        if let Some(slot) = self.slots.get_mut(replica as usize) {
            *slot = [None; 3];
        }
        #[cfg(debug_assertions)]
        if let Some(host) = self.hosts.get_mut(replica as usize) {
            *host = None;
        }
    }

    /// The slot of `replica`, as seen by the RgManager of `node`.
    fn slot(
        &mut self,
        replica: u64,
        #[cfg_attr(not(debug_assertions), allow(unused_variables))] node: u32,
    ) -> &mut [Option<f64>; 3] {
        let index = replica as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, [None; 3]);
            #[cfg(debug_assertions)]
            self.hosts.resize(index + 1, None);
        }
        #[cfg(debug_assertions)]
        if let Some(host) = self.hosts[index].replace(node) {
            assert_eq!(
                host, node,
                "rep-{replica} reported on node {node}, but node {host} still holds its \
                 in-memory state: a move did not forget it"
            );
        }
        &mut self.slots[index]
    }
}

/// A per-node RgManager instance.
#[derive(Clone, Debug)]
pub struct RgManager {
    node: u32,
    /// The loaded model set, shared with every RgManager that loaded the
    /// same blob version.
    models: Option<Arc<CompiledModelSet>>,
    refresh_count: u64,
    /// Scratch buffer for persisted-state keys (reused across reports).
    key_scratch: String,
}

impl RgManager {
    /// Create the RgManager for a node.
    pub fn new(node: u32) -> Self {
        RgManager {
            node,
            models: None,
            refresh_count: 0,
            key_scratch: String::new(),
        }
    }

    /// The node this instance governs.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The model-set version currently loaded.
    pub fn loaded_version(&self) -> Option<u64> {
        self.models.as_ref().map(|m| m.version())
    }

    /// Number of refresh cycles performed.
    pub fn refresh_count(&self) -> u64 {
        self.refresh_count
    }

    /// Re-read the model XML from the Naming Service, loading new models
    /// when the version changed (§3.3.1's 15-minute refresh). Returns
    /// `true` if new models were loaded. A missing or malformed blob
    /// keeps the previously loaded models. The blob is parsed and
    /// compiled through `cache`, so RgManagers sharing one cache compile
    /// each blob version once between them.
    pub fn refresh_models(&mut self, naming: &mut NamingService, cache: &mut ModelCache) -> bool {
        self.refresh_count += 1;
        let Some((blob, blob_version)) = naming.get_versioned(MODEL_KEY) else {
            return false;
        };
        let Some(models) = cache.compiled(blob, blob_version) else {
            return false;
        };
        let version = models.version();
        if self.loaded_version() == Some(version) {
            return false;
        }
        self.models = Some(models);
        debug_assert!(
            matches!(&cache.latest, Some((v, Some(shared)))
                if *v == blob_version
                    && self.models.as_ref().is_some_and(|m| Arc::ptr_eq(m, shared))),
            "refresh_models loaded a model set the cache does not share"
        );
        toto_trace::emit(toto_trace::EventKind::ModelRefresh, || {
            toto_trace::EventBody::ModelRefresh {
                node: u64::from(self.node),
                version,
            }
        });
        true
    }

    /// Handle a metric report RPC: returns the value the replica should
    /// report to the PLB. Non-persisted metrics read and update the
    /// replica's slot in `memory`, the experiment's in-memory state.
    pub fn compute_report(
        &mut self,
        naming: &mut NamingService,
        memory: &mut InMemoryState,
        req: &ReportRequest,
    ) -> f64 {
        let value = self.compute_report_value(naming, memory, req);
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

    fn compute_report_value(
        &mut self,
        naming: &mut NamingService,
        memory: &mut InMemoryState,
        req: &ReportRequest,
    ) -> f64 {
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
            let slot = &mut memory.slot(req.replica, self.node)[req.resource.index()];
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
    use toto_fabric::naming::NamingStats;
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
        let mut memory = InMemoryState::new();
        let mut rg = RgManager::new(0);
        let v = rg.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 1, ReplicaRoleKind::Primary, 0),
        );
        assert_eq!(v, 7.5);
    }

    #[test]
    fn uncovered_metric_falls_through_to_actual() {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        let mut rg = RgManager::new(0);
        assert!(rg.refresh_models(&mut naming, &mut cache));
        let mut req = request(1, 1, ReplicaRoleKind::Primary, 1200);
        req.resource = ResourceKind::Memory;
        assert_eq!(rg.compute_report(&mut naming, &mut memory, &req), 7.5);
    }

    #[test]
    fn refresh_only_recompiles_on_version_change() {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        let mut rg = RgManager::new(0);
        assert!(!rg.refresh_models(&mut naming, &mut cache)); // nothing written yet
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        assert!(rg.refresh_models(&mut naming, &mut cache));
        assert!(!rg.refresh_models(&mut naming, &mut cache)); // same version
        naming.write(MODEL_KEY, disk_model_xml(2, 0.5, true));
        assert!(rg.refresh_models(&mut naming, &mut cache));
        assert_eq!(rg.loaded_version(), Some(2));
        assert_eq!(rg.refresh_count(), 4);
    }

    #[test]
    fn malformed_blob_keeps_old_models() {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        let mut rg = RgManager::new(0);
        assert!(rg.refresh_models(&mut naming, &mut cache));
        naming.write(MODEL_KEY, "<broken");
        assert!(!rg.refresh_models(&mut naming, &mut cache));
        assert_eq!(rg.loaded_version(), Some(1));
        // Reports still work off the old models.
        let v = rg.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 1, ReplicaRoleKind::Primary, 1200),
        );
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn persisted_metric_round_trips_naming_service() {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let v1 = rg.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 1200),
        );
        assert!((v1 - 1.0).abs() < 1e-12);
        let v2 = rg.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 2400),
        );
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
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg0 = RgManager::new(0);
        let mut rg1 = RgManager::new(1);
        rg0.refresh_models(&mut naming, &mut cache);
        rg1.refresh_models(&mut naming, &mut cache);
        // Primary on node 0 reports twice.
        rg0.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 1200),
        );
        rg0.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 2400),
        );
        let writes_before = naming.stats().writes;
        // Secondary on node 1 reports the stored value and writes nothing.
        let v = rg1.compute_report(
            &mut naming,
            &mut memory,
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
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg0 = RgManager::new(0);
        let mut rg1 = RgManager::new(1);
        rg0.refresh_models(&mut naming, &mut cache);
        rg1.refresh_models(&mut naming, &mut cache);
        for i in 1..=5 {
            rg0.compute_report(
                &mut naming,
                &mut memory,
                &request(1, 9, ReplicaRoleKind::Primary, 1200 * i),
            );
        }
        // Old primary reported 5.0; promoted replica (on node 1) continues.
        let v = rg1.compute_report(
            &mut naming,
            &mut memory,
            &request(2, 9, ReplicaRoleKind::Primary, 7200),
        );
        assert!((v - 6.0).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn non_persisted_metric_resets_on_failover() {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, false));
        let mut rg0 = RgManager::new(0);
        let mut rg1 = RgManager::new(1);
        rg0.refresh_models(&mut naming, &mut cache);
        rg1.refresh_models(&mut naming, &mut cache);
        for i in 1..=4 {
            rg0.compute_report(
                &mut naming,
                &mut memory,
                &request(1, 9, ReplicaRoleKind::Primary, 1200 * i),
            );
        }
        // Fail over: the source forgets the replica, and the new node's
        // RgManager has no memory of it.
        memory.forget_replica(1);
        let v = rg1.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 6000),
        );
        assert!((v - 1.0).abs() < 1e-12, "reset then one delta, got {v}");
        // Moving back starts fresh too.
        memory.forget_replica(1);
        let v2 = rg0.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 7200),
        );
        assert!((v2 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a move did not forget it")]
    fn a_move_that_does_not_forget_is_caught_in_debug_builds() {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, false));
        let mut rgs: Vec<RgManager> = (0..2).map(RgManager::new).collect();
        for (i, rg) in rgs.iter_mut().enumerate() {
            rg.refresh_models(&mut naming, &mut cache);
            let req = request(1, 9, ReplicaRoleKind::Primary, 1200 * (i as u64 + 1));
            rg.compute_report(&mut naming, &mut memory, &req);
        }
    }

    #[test]
    fn clear_persisted_state_removes_keys() {
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1.0, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        rg.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 1200),
        );
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
        let mut memory = InMemoryState::new();
        let mut cache = ModelCache::new();
        naming.write(MODEL_KEY, disk_model_xml(1, 1_234.567_890_123_456_7, true));
        let mut rg = RgManager::new(0);
        rg.refresh_models(&mut naming, &mut cache);
        let v = rg.compute_report(
            &mut naming,
            &mut memory,
            &request(1, 9, ReplicaRoleKind::Primary, 1200),
        );
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
            &mut memory,
            &request(2, 9, ReplicaRoleKind::Secondary, 2400),
        );
        assert_eq!(secondary.to_bits(), v.to_bits(), "{secondary} vs {v}");
    }

    /// Drive `nodes` RgManagers through a model blob's life: version 1,
    /// an unchanged refresh, a malformed rewrite, version 2, with a
    /// round of reports after each refresh. `shared` routes every
    /// refresh through one cache, as an experiment does; otherwise each
    /// RgManager compiles for itself. Returns the trace bytes, the
    /// report bits, the Naming stats and the parse count.
    fn drive_nodes(nodes: u32, shared: bool) -> (Vec<u8>, Vec<u64>, NamingStats, u64) {
        let sink = toto_trace::Shared::new(toto_trace::BufferSink::new());
        let guard = toto_trace::SessionGuard::install(Box::new(sink.clone()));
        let mut naming = NamingService::new();
        let mut memory = InMemoryState::new();
        let mut caches = vec![ModelCache::new(); if shared { 1 } else { nodes as usize }];
        let mut rgs: Vec<RgManager> = (0..nodes).map(RgManager::new).collect();
        let mut reports = Vec::new();
        let blobs = [
            Some(disk_model_xml(1, 1.0, false)),
            None,
            Some("<broken".to_string()),
            Some(disk_model_xml(2, 3.0, false)),
        ];
        for (step, blob) in blobs.into_iter().enumerate() {
            if let Some(blob) = blob {
                naming.write(MODEL_KEY, blob);
            }
            for (i, rg) in rgs.iter_mut().enumerate() {
                let cache = &mut caches[if shared { 0 } else { i }];
                rg.refresh_models(&mut naming, cache);
                let now = 1200 * (step as u64 + 1);
                let req = request(u64::from(rg.node()), 9, ReplicaRoleKind::Primary, now);
                reports.push(rg.compute_report(&mut naming, &mut memory, &req).to_bits());
            }
        }
        drop(guard);
        let trace = sink.with(|b| b.bytes().to_vec());
        let parses = caches.iter().map(ModelCache::parses).sum();
        (trace, reports, naming.stats(), parses)
    }

    #[test]
    fn shared_compile_reports_like_separate_compiles() {
        let (shared_trace, shared_reports, shared_stats, shared_parses) = drive_nodes(5, true);
        let (own_trace, own_reports, own_stats, own_parses) = drive_nodes(5, false);
        assert_eq!(shared_reports, own_reports);
        assert_eq!(shared_stats, own_stats, "Naming reads and writes");
        assert_eq!(shared_trace, own_trace, "ModelRefresh and report events");
        let file = toto_trace::codec::decode(&shared_trace).unwrap();
        let summary = toto_trace::report::summarize(&file);
        assert_eq!(summary.by_kind.get("model_refresh").copied(), Some(10));
        // Three blob versions: one parse each when shared, one per node
        // and version otherwise.
        assert_eq!(shared_parses, 3);
        assert_eq!(own_parses, 15);
    }

    #[test]
    fn malformed_blob_is_parsed_once_and_every_node_keeps_its_models() {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        let mut rgs: Vec<RgManager> = (0..4).map(RgManager::new).collect();
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        for rg in &mut rgs {
            assert!(rg.refresh_models(&mut naming, &mut cache));
        }
        naming.write(MODEL_KEY, "<broken");
        for rg in &mut rgs {
            assert!(!rg.refresh_models(&mut naming, &mut cache));
            assert_eq!(rg.loaded_version(), Some(1));
        }
        assert_eq!(cache.parses(), 2, "the malformed blob is parsed once");
        let first = rgs[0].models.as_ref().unwrap();
        assert!(rgs
            .iter()
            .all(|rg| Arc::ptr_eq(rg.models.as_ref().unwrap(), first)));
    }

    #[test]
    fn rewritten_blob_compiles_exactly_once_more() {
        let mut naming = NamingService::new();
        let mut cache = ModelCache::new();
        let mut rgs: Vec<RgManager> = (0..4).map(RgManager::new).collect();
        naming.write(MODEL_KEY, disk_model_xml(1, 0.5, true));
        for rg in &mut rgs {
            rg.refresh_models(&mut naming, &mut cache);
            rg.refresh_models(&mut naming, &mut cache);
        }
        assert_eq!(cache.parses(), 1);
        naming.write(MODEL_KEY, disk_model_xml(2, 0.5, true));
        for rg in &mut rgs {
            assert!(rg.refresh_models(&mut naming, &mut cache));
            assert_eq!(rg.loaded_version(), Some(2));
        }
        assert_eq!(cache.parses(), 2, "one compile for the new version");
    }
}
