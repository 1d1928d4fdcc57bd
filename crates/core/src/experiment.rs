//! The density-study experiment runner (§5).
//!
//! One experiment = one density level run for a configured duration on a
//! simulated gen5 stage ring:
//!
//! 1. **Bootstrap** (§5.2): create the Table-2 population with growth
//!    frozen, let the PLB place and balance.
//! 2. **Start**: write the model XML into the Naming Service and start
//!    the Population Manager — "each experiment officially began by
//!    modifying the model XML … and instructing the Population Manager to
//!    begin creating and dropping databases".
//! 3. **Run**: replicas report modeled metric loads every report period;
//!    RgManagers refresh models every 15 minutes; the PLB fixes capacity
//!    violations (failovers); the control plane redirects creations the
//!    ring cannot take; telemetry samples everything.
//! 4. **Score**: modeled adjusted revenue per §5.1.

use crate::bootstrap::{bootstrap_population, BootstrapReport};
use crate::defaults;
use crate::directed::{DirectedAction, DirectedSchedule};
use crate::population::{PlannedAction, PopulationManager};
use std::collections::BTreeMap;
use toto_chaos::{ChaosAction, ChaosFaultRecord, ChaosPlan, ChaosReport, ChaosRuntime};
use toto_controlplane::admission::{AdmissionController, AdmissionOutcome};
use toto_controlplane::slo::{decode_tag, SloCatalog};
use toto_fabric::cluster::{Cluster, ClusterConfig, Replica, ReplicaRole};
use toto_fabric::ids::{MetricId, NodeId, ReplicaId, ServiceId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::naming::NamingService;
use toto_fabric::plb::{FailoverEvent, Plb, PlbConfig};
use toto_models::compiled::ReplicaRoleKind;
use toto_rgmanager::governance::{CpuDemand, CpuGrant, NodeGovernor};
use toto_rgmanager::{
    persisted_state_key, InMemoryState, ModelCache, ReportRequest, RgManager, MODEL_KEY,
};
use toto_simcore::event::{Scheduler, Simulation};
use toto_simcore::rng::DetRng;
use toto_simcore::time::{SimDuration, SimTime, SECS_PER_HOUR, SECS_PER_WEEK};
use toto_spec::model::ModelSetSpec;
use toto_spec::population::PopulationModelSpec;
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};
use toto_telemetry::kpi::{FailoverRecord, NodeSnapshot, Telemetry};
use toto_telemetry::revenue::{BillingRecord, RevenueBreakdown, RevenueParams};

/// Optional deviations from the scenario defaults.
#[derive(Clone, Debug, Default)]
pub struct ExperimentOverrides {
    /// Replace the default population model.
    pub population: Option<PopulationModelSpec>,
    /// Replace the default metric model set.
    pub models: Option<ModelSetSpec>,
    /// Replace the default PLB configuration.
    pub plb: Option<PlbConfig>,
    /// Deterministic fault-injection plan (empty by default). An empty
    /// plan is strictly inert: no chaos state is allocated, no RNG
    /// stream is drawn, and the run is byte-identical to one on a build
    /// without chaos support.
    pub chaos: ChaosPlan,
    /// Replace the seeded population stream with an externally decided
    /// create/drop schedule (region runs). The Population Manager is
    /// then never consulted — no population RNG is drawn during the run
    /// — but hourly KPI sampling continues unchanged.
    pub directed: Option<DirectedSchedule>,
}

/// Interval between node-level snapshots: the paper's Figure 13 uses
/// 10-minute node readings.
const NODE_SNAPSHOT_PERIOD: SimDuration = SimDuration::from_secs(600);

/// The experiment clock starts one week after the bootstrap epoch: the
/// initial population is pre-aged (its databases must not re-trigger
/// initial-creation growth — the paper freezes growth during bootstrap
/// for exactly this reason), and a whole number of weeks keeps the
/// epoch-is-Monday calendar alignment.
pub const RUN_START: SimTime = SimTime::from_secs(SECS_PER_WEEK);

/// A run length whose end time does not fit the `u64`-second clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunTooLong {
    /// The rejected run length, hours.
    pub hours: u64,
}

impl std::fmt::Display for RunTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hours overflows the simulated clock (u64 seconds)",
            self.hours
        )
    }
}

/// The end of a run of `hours` hours. Every front end checks a
/// user-supplied run length here, so an end time never wraps.
pub fn run_end(hours: u64) -> Result<SimTime, RunTooLong> {
    hours
        .checked_mul(SECS_PER_HOUR)
        .and_then(|secs| RUN_START.checked_add(SimDuration::from_secs(secs)))
        .ok_or(RunTooLong { hours })
}

/// Billing bookkeeping per live database.
#[derive(Clone, Debug)]
struct BillingState {
    edition: EditionKind,
    compute_price_per_hour: f64,
    storage_price_per_gb_hour: f64,
    created_at: SimTime,
    dropped_at: Option<SimTime>,
    disk_sum: f64,
    disk_samples: u64,
    initial_disk: f64,
    downtime_secs: f64,
}

impl BillingState {
    fn to_record(&self, service: u64) -> BillingRecord {
        let avg = if self.disk_samples > 0 {
            self.disk_sum / self.disk_samples as f64
        } else {
            self.initial_disk
        };
        BillingRecord {
            service,
            edition: self.edition,
            compute_price_per_hour: self.compute_price_per_hour,
            storage_price_per_gb_hour: self.storage_price_per_gb_hour,
            created_at: self.created_at,
            dropped_at: self.dropped_at,
            avg_data_gb: avg,
            downtime_secs: self.downtime_secs,
        }
    }
}

/// The mutable state threaded through the event loop.
pub struct ExperimentState {
    scenario: ScenarioSpec,
    cluster: Cluster,
    plb: Plb,
    naming: NamingService,
    /// The compiled model blob every RgManager shares, keyed by the
    /// blob's Naming Service version.
    models: ModelCache,
    rgmanagers: Vec<RgManager>,
    /// Every replica's non-persisted metric state, one slot per replica
    /// id: the memory of the replica's current host's RgManager.
    in_memory: InMemoryState,
    governors: Vec<NodeGovernor>,
    admission: AdmissionController,
    catalog: SloCatalog,
    popmgr: PopulationManager,
    telemetry: Telemetry,
    billing: BTreeMap<u64, BillingState>,
    qos_rng: DetRng,
    /// Stable per-database identities (hash of the creation name), keyed
    /// by fabric service id. The identity — not the infrastructure id —
    /// drives model pattern membership and persisted-state keys, so the
    /// same Population Manager stream produces the same database
    /// behaviours in every experiment regardless of admission history,
    /// exactly as the paper's fixed-seed design intends (§5.2).
    identities: std::collections::BTreeMap<u64, u64>,
    /// Live services by creation name (bootstrap + admitted creates),
    /// so directed drops can resolve their victim without a scan.
    by_name: BTreeMap<String, ServiceId>,
    /// Whether a directed schedule replaces the population stream.
    directed_mode: bool,
    /// Create directives executed (admitted or redirected).
    directed_created: u64,
    cpu: MetricId,
    memory: MetricId,
    disk: MetricId,
    start: SimTime,
    end: SimTime,
    report_period: SimDuration,
    /// Fault-injection state; `None` whenever the chaos plan is empty.
    chaos: Option<ChaosRuntime>,
    /// Scratch for `report_metrics`' batch of `(replica, metric, value)`
    /// reports, reused every report period so the hottest periodic event
    /// allocates nothing in steady state.
    report_batch: Vec<(ReplicaId, MetricId, f64)>,
    /// Scratch for `governance_tick`: each node's CPU demands in replica
    /// id order, and one pass's grants, reused every period.
    governance_demands: Vec<Vec<CpuDemand>>,
    governance_grants: Vec<CpuGrant>,
}

/// Everything an experiment run produces.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// The scenario that was run.
    pub scenario: ScenarioSpec,
    /// All collected telemetry.
    pub telemetry: Telemetry,
    /// Aggregate modeled adjusted revenue (§5.1).
    pub revenue: RevenueBreakdown,
    /// Per-database billing records.
    pub billing: Vec<BillingRecord>,
    /// Reserved cores at the end of the run.
    pub final_reserved_cores: f64,
    /// Cluster disk usage at the end of the run, GB.
    pub final_disk_gb: f64,
    /// Total creation redirects.
    pub redirect_count: usize,
    /// Every creation redirect, in time order.
    pub redirects: Vec<toto_controlplane::admission::RedirectEvent>,
    /// Hour (simulated) of the first creation redirect, if any.
    pub first_redirect_hour: Option<u64>,
    /// What bootstrap produced (Tables 2–3).
    pub bootstrap: BootstrapReport,
    /// Databases created by the Population Manager during the run.
    pub created_during_run: u64,
    /// Per-fault accounting and oracle counters; `None` when the run
    /// had no chaos plan.
    pub chaos: Option<ChaosReport>,
}

/// The experiment runner.
pub struct DensityExperiment {
    scenario: ScenarioSpec,
    overrides: ExperimentOverrides,
}

impl DensityExperiment {
    /// Configure an experiment.
    pub fn new(scenario: ScenarioSpec, overrides: ExperimentOverrides) -> Self {
        DensityExperiment {
            scenario,
            overrides,
        }
    }

    /// Run to completion and score.
    pub fn run(self) -> ExperimentResult {
        let DensityExperiment {
            scenario,
            overrides,
        } = self;

        // --- Cluster and metrics -----------------------------------------
        let mut metrics = MetricRegistry::new();
        let cpu = metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: scenario.cpu_capacity_per_node(),
            balancing_weight: 1.0,
        });
        let memory = metrics.register(MetricDef {
            name: "Memory".into(),
            node_capacity: scenario.memory_per_node_gb * 0.9,
            balancing_weight: 0.3,
        });
        let disk = metrics.register(MetricDef {
            name: "Disk".into(),
            node_capacity: scenario.disk_capacity_per_node(),
            balancing_weight: 1.0,
        });
        let mut cluster = Cluster::new(ClusterConfig {
            node_count: scenario.node_count,
            metrics,
            fault_domains: scenario.fault_domains,
        });
        let mut plb = Plb::new(overrides.plb.clone().unwrap_or_default(), scenario.plb_seed);
        let catalog = SloCatalog::gen5();

        // --- Bootstrap ----------------------------------------------------
        // The built-in mix and the gen5 catalog are compiled together, so
        // a failure here is a programming error, not a runtime condition.
        toto_trace::emit(toto_trace::EventKind::Phase, || {
            toto_trace::EventBody::Phase {
                label: "bootstrap".to_string(),
            }
        });
        let bootstrap = bootstrap_population(
            &mut cluster,
            &mut plb,
            &catalog,
            &scenario,
            cpu,
            memory,
            disk,
        )
        .expect("bootstrap mix resolves against the gen5 catalog");

        let start = RUN_START;

        // --- Toto orchestrator: write models, seed persisted state --------
        let mut naming = NamingService::new();
        let model_set = overrides.models.clone().unwrap_or_else(|| {
            defaults::gen5_model_set(scenario.model_seed, scenario.report_period_secs)
        });
        naming.write(MODEL_KEY, model_set.to_xml_string());
        let mut billing: BTreeMap<u64, BillingState> = BTreeMap::new();
        let mut identities: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        let mut by_name: BTreeMap<String, ServiceId> = BTreeMap::new();
        for (id, edition, slo_index, initial_disk) in &bootstrap.services {
            let name = cluster
                .service(*id)
                .expect("bootstrap service")
                .name
                .clone();
            let identity = toto_simcore::rng::stable_id(&name);
            by_name.insert(name, *id);
            identities.insert(id.raw(), identity);
            if edition.disk_is_persisted() {
                naming.write(
                    &persisted_state_key(ResourceKind::Disk, identity),
                    *initial_disk,
                );
            }
            let slo = catalog.get(*slo_index).expect("bootstrap SLO");
            billing.insert(
                id.raw(),
                BillingState {
                    edition: *edition,
                    compute_price_per_hour: slo.compute_price_per_hour,
                    storage_price_per_gb_hour: slo.storage_price_per_gb_hour,
                    created_at: start,
                    dropped_at: None,
                    disk_sum: 0.0,
                    disk_samples: 0,
                    initial_disk: *initial_disk,
                    downtime_secs: 0.0,
                },
            );
        }

        let mut models = ModelCache::new();
        let mut rgmanagers: Vec<RgManager> = (0..scenario.node_count).map(RgManager::new).collect();
        for rg in &mut rgmanagers {
            rg.refresh_models(&mut naming, &mut models);
        }
        let governors: Vec<NodeGovernor> = (0..scenario.node_count)
            .map(|_| NodeGovernor::new(scenario.cores_per_node))
            .collect();
        let governance_demands = vec![Vec::new(); governors.len()];

        let population_spec = overrides
            .population
            .clone()
            .unwrap_or_else(|| defaults::gen5_population_model(scenario.population_seed));
        let popmgr = PopulationManager::new(&population_spec, &catalog);

        let mut telemetry = Telemetry::new();
        telemetry.bootstrap_placement_failures = u64::from(bootstrap.placement_failures);

        let end = start + SimDuration::from_hours(scenario.duration_hours);
        let chaos_node_count = scenario.node_count;
        let chaos_duration_hours = scenario.duration_hours;
        let chaos = if overrides.chaos.is_empty() {
            None
        } else {
            // The oracle applies the same fit rule as the PLB it audits.
            let headroom = overrides.plb.clone().unwrap_or_default().placement_headroom;
            Some(ChaosRuntime::new(scenario.plb_seed, headroom))
        };
        let state = ExperimentState {
            report_period: SimDuration::from_secs(scenario.report_period_secs),
            // QoS downtime draws share the PLB seed lineage: they are part
            // of the run-to-run non-determinism the paper attributes to SF.
            qos_rng: DetRng::seed_from_u64(scenario.plb_seed ^ 0x00D0_3713),
            identities,
            by_name,
            directed_mode: overrides.directed.is_some(),
            directed_created: 0,
            scenario,
            cluster,
            plb,
            naming,
            models,
            rgmanagers,
            in_memory: InMemoryState::new(),
            governors,
            admission: AdmissionController::new(cpu, memory, disk),
            catalog,
            popmgr,
            telemetry,
            billing,
            cpu,
            memory,
            disk,
            start,
            end,
            chaos,
            report_batch: Vec::new(),
            governance_demands,
            governance_grants: Vec::new(),
        };

        let mut sim = Simulation::new(state);
        let refresh = SimDuration::from_secs(sim.state().scenario.model_refresh_secs);
        let report = sim.state().report_period;
        sim.scheduler().schedule_at(start, population_tick);
        sim.scheduler().schedule_at(start + report, report_metrics);
        sim.scheduler().schedule_at(start + refresh, refresh_models);
        sim.scheduler()
            .schedule_at(start + SimDuration::from_secs(300), plb_tick);
        sim.scheduler().schedule_at(start + report, governance_tick);
        sim.scheduler()
            .schedule_at(start + NODE_SNAPSHOT_PERIOD, node_snapshot);
        if let Some(directed) = &overrides.directed {
            // The schedule is fully known up front; one simulation event
            // per directive, in schedule order (FIFO on equal times).
            for ev in &directed.events {
                let at = start + SimDuration::from_secs(ev.offset_secs);
                if at > end {
                    continue;
                }
                let action = ev.action.clone();
                sim.scheduler()
                    .schedule_at(at, move |s: &mut ExperimentState, sc| {
                        directed_action(s, &action, sc.now());
                    });
            }
        }
        if sim.state().chaos.is_some() {
            for fault in overrides
                .chaos
                .compile(chaos_node_count, chaos_duration_hours)
            {
                let t = start + SimDuration::from_secs(fault.at_secs);
                if t >= end {
                    continue;
                }
                match fault.action {
                    ChaosAction::Crash { downtime_secs } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_crash(s, sc, downtime_secs)
                        }),
                    ChaosAction::Drain {
                        node,
                        downtime_secs,
                    } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_drain(s, sc, node, downtime_secs)
                        }),
                    ChaosAction::Decommission => sim
                        .scheduler()
                        .schedule_at(t, |s: &mut ExperimentState, sc| chaos_decommission(s, sc)),
                    ChaosAction::Degrade { resource, factor } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_degrade(s, sc, resource, factor)
                        }),
                    ChaosAction::RestoreCapacity { resource } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_restore_capacity(s, sc, resource)
                        }),
                    ChaosAction::ReportLossStart { drop_probability } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_report_loss_start(s, sc, drop_probability)
                        }),
                    ChaosAction::ReportLossEnd => sim
                        .scheduler()
                        .schedule_at(t, |s: &mut ExperimentState, sc| {
                            chaos_report_loss_end(s, sc)
                        }),
                    ChaosAction::Storm {
                        node_count,
                        downtime_secs,
                    } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_storm(s, sc, node_count, downtime_secs)
                        }),
                }
            }
            // The invariant oracles audit the state after every dispatched
            // event while chaos is active. Take/put-back keeps the oracle's
            // mutable state disjoint from the cluster and naming borrows.
            sim.set_post_dispatch(|s: &mut ExperimentState, _| {
                let Some(mut rt) = s.chaos.take() else { return };
                rt.oracle
                    .check(&s.cluster, &s.naming, s.identities.values().copied());
                s.chaos = Some(rt);
            });
        }
        toto_trace::emit(toto_trace::EventKind::Phase, || {
            toto_trace::EventBody::Phase {
                label: "run".to_string(),
            }
        });
        sim.run_until(end);

        // --- Score ---------------------------------------------------------
        toto_trace::emit(toto_trace::EventKind::Phase, || {
            toto_trace::EventBody::Phase {
                label: "score".to_string(),
            }
        });
        let state = sim.into_state();
        let chaos = state.chaos.map(|rt| {
            let mut report = rt.report;
            report.oracle_checks = rt.oracle.checks;
            report.oracle_violations = rt.oracle.violations;
            report
        });
        let params = RevenueParams {
            // Credits are assessed against the experiment's billing window
            // (the paper subtracts "service credits based on the SLA" from
            // the revenue modeled over the run).
            credit_window_hours: state.scenario.duration_hours as f64,
            ..RevenueParams::default()
        };
        let records: Vec<BillingRecord> = state
            .billing
            .iter()
            .map(|(svc, b)| b.to_record(*svc))
            .collect();
        let revenue = params.score_all(&records, end);
        let first_redirect_hour = state
            .admission
            .redirects()
            .first()
            .map(|r| r.time.saturating_since(start).as_secs() / 3600);
        ExperimentResult {
            final_reserved_cores: state.cluster.total_load(state.cpu),
            final_disk_gb: state.cluster.total_load(state.disk),
            redirect_count: state.admission.redirects().len(),
            redirects: state.admission.redirects().to_vec(),
            first_redirect_hour,
            created_during_run: state.popmgr.created_count() + state.directed_created,
            scenario: state.scenario,
            telemetry: state.telemetry,
            revenue,
            billing: records,
            bootstrap,
            chaos,
        }
    }
}

// ---------------------------------------------------------------------------
// Event handlers
// ---------------------------------------------------------------------------

fn edition_of(tag: u64) -> EditionKind {
    decode_tag(tag).0
}

/// What a metric report needs from a replica's service.
#[derive(Clone, Copy)]
struct ReportService {
    edition: EditionKind,
    created_at: SimTime,
    /// The stable database identity (see `ExperimentState::identities`).
    identity: u64,
}

impl ReportService {
    /// The RgManager request for one of `replica`'s metrics.
    fn request(
        self,
        replica: &Replica,
        resource: ResourceKind,
        now: SimTime,
        actual_load: f64,
    ) -> ReportRequest {
        ReportRequest {
            replica: replica.id.raw(),
            service: self.identity,
            role: match replica.role {
                ReplicaRole::Primary => ReplicaRoleKind::Primary,
                ReplicaRole::Secondary => ReplicaRoleKind::Secondary,
            },
            edition: self.edition,
            resource,
            created_at: self.created_at,
            now,
            actual_load,
        }
    }
}

/// Every replica in id order, with what its reports need from its
/// service. A service's replicas have consecutive ids, so the service
/// and identity lookups are cached across the run of replicas that share
/// them — one probe of each map per service instead of per replica. The
/// shared walk of `report_metrics` and `governance_tick`.
fn replicas_with_service<'a>(
    cluster: &'a Cluster,
    identities: &'a BTreeMap<u64, u64>,
) -> impl Iterator<Item = (&'a Replica, ReportService)> + 'a {
    let mut last: Option<(ServiceId, ReportService)> = None;
    cluster.replicas().map(move |r| {
        let service = match last {
            Some((id, service)) if id == r.service => service,
            _ => {
                let svc = cluster.service(r.service).expect("replica's service");
                let raw = r.service.raw();
                let service = ReportService {
                    edition: edition_of(svc.tag),
                    created_at: svc.created_at,
                    identity: identities.get(&raw).copied().unwrap_or(raw),
                };
                last = Some((r.service, service));
                service
            }
        };
        (r, service)
    })
}

/// Every report period each replica consults its node's RgManager for the
/// disk and memory metrics and reports the modeled loads to the PLB.
///
/// The values are computed first and committed to the cluster as one
/// batch ([`Cluster::report_loads`]), so each touched node's cost and
/// index entries refresh once per period, not once per report. Nothing
/// in the loop reads what the commit changes: the RgManager sees only
/// the Naming Service, report loss draws only the chaos RNG, and each
/// replica reports each metric once per period, so deferring the commit
/// changes no value read here.
fn report_metrics(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    let mut batch = std::mem::take(&mut state.report_batch);
    batch.clear();
    for (r, report_service) in replicas_with_service(&state.cluster, &state.identities) {
        let service = r.service.raw();
        let node = r.node.raw();
        for (resource, metric) in [
            (ResourceKind::Disk, state.disk),
            (ResourceKind::Memory, state.memory),
        ] {
            // Chaos report loss: during a lossy window the report never
            // reaches the RgManager, so the PLB keeps acting on the stale
            // previous value — losing a report is equivalent to delaying
            // it by one report period.
            if let Some(rt) = state.chaos.as_mut() {
                if let Some(p) = rt.drop_probability {
                    if rt.rng.bernoulli(p) {
                        toto_trace::emit(toto_trace::EventKind::ChaosReportDropped, || {
                            toto_trace::EventBody::ChaosReportDropped {
                                service,
                                replica: r.id.raw(),
                                node: u64::from(node),
                                resource: resource.to_string(),
                            }
                        });
                        continue;
                    }
                }
            }
            let req = report_service.request(r, resource, now, r.load[metric]);
            let value = state.rgmanagers[node as usize].compute_report(
                &mut state.naming,
                &mut state.in_memory,
                &req,
            );
            batch.push((r.id, metric, value));
            if resource == ResourceKind::Disk && r.role == ReplicaRole::Primary {
                if let Some(b) = state.billing.get_mut(&service) {
                    b.disk_sum += value;
                    b.disk_samples += 1;
                }
            }
        }
    }
    state.cluster.report_loads(&batch);
    state.report_batch = batch;
    let next = now + state.report_period;
    if next <= state.end {
        sched.schedule_at(next, report_metrics);
    }
}

/// Every 15 minutes each node's RgManager re-reads the model XML.
fn refresh_models(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    for rg in &mut state.rgmanagers {
        rg.refresh_models(&mut state.naming, &mut state.models);
    }
    let next = sched.now() + SimDuration::from_secs(state.scenario.model_refresh_secs);
    if next <= state.end {
        sched.schedule_at(next, refresh_models);
    }
}

/// Sample the customer-visible downtime of one failover.
fn sample_downtime(state: &mut ExperimentState, edition: EditionKind, was_primary: bool) -> f64 {
    if !was_primary {
        return 0.0;
    }
    match edition {
        // GP: detach/reattach remote storage (§3.1) plus connection drops
        // and failed logins while the replica restarts elsewhere.
        EditionKind::StandardGp => 45.0 + state.qos_rng.next_f64() * 135.0,
        // BC: a secondary is promoted quickly, but the paper counts the
        // full customer impact (failed queries, dropped connections,
        // failed login attempts) while the new primary warms up.
        EditionKind::PremiumBc => 20.0 + state.qos_rng.next_f64() * 100.0,
    }
}

/// Convert PLB movement events into telemetry and billing effects.
///
/// Capacity-violation moves are *failovers* in the paper's sense (§3.1:
/// "A failover means that the replicas' aggregate resource demands on
/// the node have exceeded the node's predefined logical capacity"), and
/// chaos-injected crashes count too — the replica restarts elsewhere
/// with full customer impact. Routine balancing moves and graceful
/// drains reset non-persisted metric state but are not counted against
/// QoS.
fn process_failovers(state: &mut ExperimentState, events: Vec<FailoverEvent>) {
    for ev in events {
        // The replica restarted on another node either way: the source
        // RgManager forgets its non-persisted metric state.
        state.in_memory.forget_replica(ev.replica.raw());
        if !matches!(
            ev.reason,
            toto_fabric::plb::FailoverReason::CapacityViolation(_)
                | toto_fabric::plb::FailoverReason::NodeCrash
        ) {
            continue;
        }
        let Some(svc) = state.cluster.service(ev.service) else {
            continue;
        };
        let (edition, slo_index) = decode_tag(svc.tag);
        let cores = state
            .catalog
            .get(slo_index)
            .map(|s| s.vcores as f64)
            .unwrap_or(0.0);
        let disk_gb = state
            .cluster
            .replica(ev.replica)
            .map(|r| r.load[state.disk])
            .unwrap_or(0.0);
        let was_primary = ev.role == ReplicaRole::Primary;
        let downtime = sample_downtime(state, edition, was_primary);
        if let Some(b) = state.billing.get_mut(&ev.service.raw()) {
            b.downtime_secs += downtime;
        }
        state.telemetry.failovers.push(FailoverRecord {
            time: ev.time,
            service: ev.service.raw(),
            edition,
            cores_moved: cores,
            disk_gb,
            was_primary,
            downtime_secs: downtime,
        });
    }
}

/// PLB pass: fix capacity violations, then balance. SF's PLB balances
/// continuously; balancing moves are not failovers.
fn plb_tick(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    let tick = SimDuration::from_secs(300);
    let mut events = state.plb.fix_violations(&mut state.cluster, now);
    events.extend(state.plb.balance(&mut state.cluster, now));
    process_failovers(state, events);
    // Unresolved *disk* violations are customer-visible: a database on a
    // node whose disk capacity is breached is "temporarily needing to
    // wait for resources it has requested" (§1) — failed writes, dropped
    // connections, failed logins (§3.1). The service is degraded rather
    // than fully down, so each PLB tick spent in violation charges 25 %
    // of the interval as effective unavailability to the primaries on
    // the breached node; sustained violations are what make over-dense
    // clusters expensive in SLA credits (§5.3.5).
    let violating_nodes: Vec<u32> = state
        .cluster
        .violations()
        .iter()
        .filter(|(_, m)| *m == state.disk)
        .map(|(n, _)| n.raw())
        .collect();
    if !violating_nodes.is_empty() {
        // Any replica on a breached node hurts its database: a primary
        // fails writes directly, and a local-store secondary that cannot
        // persist stalls the primary's quorum commits.
        let mut hit_services: Vec<u64> = state
            .cluster
            .replicas()
            .filter(|r| violating_nodes.contains(&r.node.raw()))
            .map(|r| r.service.raw())
            .collect();
        hit_services.sort_unstable();
        hit_services.dedup();
        for svc in hit_services {
            if let Some(b) = state.billing.get_mut(&svc) {
                b.downtime_secs += tick.as_secs() as f64 * 0.25;
            }
        }
    }
    let next = now + tick;
    if next <= state.end {
        sched.schedule_at(next, plb_tick);
    }
}

/// Top-of-hour: plan the hour's creates/drops and take the hourly KPI
/// snapshot.
fn population_tick(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    // Hourly KPI snapshot (Figures 10 and 11).
    state
        .telemetry
        .reserved_cores
        .push(now, state.cluster.total_load(state.cpu));
    state
        .telemetry
        .disk_usage
        .push(now, state.cluster.total_load(state.disk));
    state
        .telemetry
        .creation_redirects
        .push(now, state.admission.redirects().len() as f64);

    // In directed mode the create/drop stream was decided externally and
    // scheduled up front; consulting the Population Manager here would
    // draw RNG the directed run must not consume.
    if !state.directed_mode {
        for planned in state.popmgr.plan_hour(now) {
            let at = now + SimDuration::from_secs(planned.offset_secs);
            if at > state.end {
                continue;
            }
            match planned.action {
                PlannedAction::Create(edition) => {
                    sched.schedule_at(at, move |s: &mut ExperimentState, sc| {
                        create_database(s, edition, sc.now());
                    });
                }
                PlannedAction::Drop(edition) => {
                    sched.schedule_at(at, move |s: &mut ExperimentState, sc| {
                        drop_database(s, edition, sc.now());
                    });
                }
            }
        }
    }
    let next = now + SimDuration::from_hours(1);
    if next <= state.end {
        sched.schedule_at(next, population_tick);
    }
}

/// Execute one create request through the control plane.
fn create_database(state: &mut ExperimentState, edition: EditionKind, now: SimTime) {
    let (slo_index, req) = state.popmgr.make_create_request(edition, &state.catalog);
    admit_request(state, slo_index, edition, req, now);
}

/// Execute one externally decided directive (directed mode).
fn directed_action(state: &mut ExperimentState, action: &DirectedAction, now: SimTime) {
    match action {
        DirectedAction::Create {
            name,
            slo_index,
            edition,
            initial_disk_gb,
            initial_memory_gb,
        } => {
            state.directed_created += 1;
            let req = toto_controlplane::admission::CreateRequest {
                name: name.clone(),
                slo_index: *slo_index,
                initial_disk_gb: *initial_disk_gb,
                initial_memory_gb: *initial_memory_gb,
            };
            admit_request(state, *slo_index, *edition, req, now);
        }
        DirectedAction::Drop { name } => {
            // A name that never materialized (its create was redirected
            // away) or was already dropped is a deterministic no-op.
            let Some(victim) = state.by_name.get(name).copied() else {
                return;
            };
            let edition = state
                .cluster
                .service(victim)
                .map(|s| edition_of(s.tag))
                .unwrap_or(EditionKind::StandardGp);
            remove_service(state, victim, edition, now);
        }
    }
}

/// Push a resolved create request through admission and, if admitted, do
/// the shared bookkeeping (trace, identity, persisted state, billing).
fn admit_request(
    state: &mut ExperimentState,
    slo_index: usize,
    edition: EditionKind,
    req: toto_controlplane::admission::CreateRequest,
    now: SimTime,
) {
    let slo = state.catalog.get(slo_index).expect("resolved SLO").clone();
    match state
        .admission
        .try_admit(&mut state.cluster, &mut state.plb, &slo, &req, now)
    {
        AdmissionOutcome::Admitted(id) => {
            toto_trace::emit(toto_trace::EventKind::DbCreate, || {
                toto_trace::EventBody::DbCreate {
                    service: id.raw(),
                    edition: edition.index() as u64,
                    slo: slo_index as u64,
                }
            });
            let identity = toto_simcore::rng::stable_id(&req.name);
            state.identities.insert(id.raw(), identity);
            state.by_name.insert(req.name.clone(), id);
            if edition.disk_is_persisted() {
                state.naming.write(
                    &persisted_state_key(ResourceKind::Disk, identity),
                    req.initial_disk_gb,
                );
            }
            state.billing.insert(
                id.raw(),
                BillingState {
                    edition,
                    compute_price_per_hour: slo.compute_price_per_hour,
                    storage_price_per_gb_hour: slo.storage_price_per_gb_hour,
                    created_at: now,
                    dropped_at: None,
                    disk_sum: 0.0,
                    disk_samples: 0,
                    initial_disk: req.initial_disk_gb,
                    downtime_secs: 0.0,
                },
            );
        }
        AdmissionOutcome::Redirected(_) => {
            // Recorded inside the admission controller.
        }
    }
}

/// Execute one drop request.
fn drop_database(state: &mut ExperimentState, edition: EditionKind, now: SimTime) {
    let Some(victim) = state
        .popmgr
        .pick_drop_victim(&state.cluster, edition, state.disk)
    else {
        return;
    };
    remove_service(state, victim, edition, now);
}

/// Tear down one live service: shared bookkeeping for population-driven
/// and directed drops (trace, replica cleanup, persisted state, billing).
fn remove_service(
    state: &mut ExperimentState,
    victim: ServiceId,
    edition: EditionKind,
    now: SimTime,
) {
    if let Some(name) = state.cluster.service(victim).map(|s| s.name.clone()) {
        state.by_name.remove(&name);
    }
    let replica_ids: Vec<u64> = state
        .cluster
        .service(victim)
        .map(|s| s.replicas.iter().map(|r| r.raw()).collect())
        .unwrap_or_default();
    if state.cluster.remove_service(victim).is_some() {
        toto_trace::emit(toto_trace::EventKind::DbDrop, || {
            toto_trace::EventBody::DbDrop {
                service: victim.raw(),
                edition: edition.index() as u64,
            }
        });
        for rid in replica_ids {
            state.in_memory.forget_replica(rid);
        }
        let identity = state
            .identities
            .remove(&victim.raw())
            .unwrap_or(victim.raw());
        RgManager::clear_persisted_state(&mut state.naming, identity);
        if let Some(b) = state.billing.get_mut(&victim.raw()) {
            b.dropped_at = Some(now);
        }
    }
}

/// Node-level reading every snapshot period (Figure 13).
fn node_snapshot(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    for node in state.cluster.nodes() {
        state.telemetry.node_snapshots.push(NodeSnapshot {
            time: now,
            node: node.id.raw(),
            disk_gb: node.load[state.disk],
            cores: node.load[state.cpu],
        });
    }
    let next = now + NODE_SNAPSHOT_PERIOD;
    if next <= state.end {
        sched.schedule_at(next, node_snapshot);
    }
}

// ---------------------------------------------------------------------------
// Chaos fault handlers
// ---------------------------------------------------------------------------

/// Seconds from experiment start (the clock chaos records use).
fn chaos_at_secs(state: &ExperimentState, now: SimTime) -> u64 {
    now.saturating_since(state.start).as_secs()
}

fn metric_for(state: &ExperimentState, resource: ResourceKind) -> MetricId {
    match resource {
        ResourceKind::Cpu => state.cpu,
        ResourceKind::Memory => state.memory,
        ResourceKind::Disk => state.disk,
    }
}

/// Append a record for a fault fired at `now` and return its index.
/// `moved` is the fault's (failovers, failed-over cores); the redirects
/// delta starts at 0, and `recovery_secs: None` leaves the record open
/// until the fault recovers (or marks it permanent).
fn chaos_record(
    state: &mut ExperimentState,
    now: SimTime,
    kind: impl Into<String>,
    node: Option<NodeId>,
    (failovers, failed_over_cores): (u64, f64),
    recovery_secs: Option<u64>,
) -> usize {
    let at_secs = chaos_at_secs(state, now);
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    rt.report.faults.push(ChaosFaultRecord {
        at_secs,
        kind: kind.into(),
        node: node.map(NodeId::raw),
        failovers,
        failed_over_cores,
        redirects_delta: 0,
        recovery_secs,
    });
    rt.report.faults.len() - 1
}

/// Crash one node through the PLB and return (failovers, cores moved),
/// measured from the telemetry the crash appended.
fn chaos_crash_one(state: &mut ExperimentState, node: NodeId, now: SimTime) -> (u64, f64) {
    let before = state.telemetry.failovers.len();
    let events = state.plb.crash_node(&mut state.cluster, node, now);
    process_failovers(state, events);
    let moved = &state.telemetry.failovers[before..];
    (
        moved.len() as u64,
        moved.iter().map(|f| f.cores_moved).sum(),
    )
}

/// Reserved cores of the services whose replicas a graceful drain moved.
/// Drain moves are not telemetry failovers, so the cores are summed from
/// the catalog directly.
fn drained_cores(state: &ExperimentState, events: &[FailoverEvent]) -> f64 {
    events
        .iter()
        .filter_map(|e| state.cluster.service(e.service))
        .map(|svc| {
            let (_, slo_index) = decode_tag(svc.tag);
            state
                .catalog
                .get(slo_index)
                .map(|s| s.vcores as f64)
                .unwrap_or(0.0)
        })
        .sum()
}

/// Schedule the restart of `nodes` `downtime_secs` from now (unless that
/// is past the end of the run); the restart closes fault record
/// `record_idx`.
fn chaos_schedule_restart(
    state: &ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    nodes: Vec<NodeId>,
    record_idx: usize,
    downtime_secs: u64,
) {
    let fault_time = sched.now();
    let redirects_at_fault = state.admission.redirects().len() as u64;
    let t_up = fault_time + SimDuration::from_secs(downtime_secs);
    if t_up <= state.end {
        sched.schedule_at(t_up, move |s: &mut ExperimentState, sc| {
            chaos_restart_nodes(s, sc, &nodes, record_idx, redirects_at_fault, fault_time);
        });
    }
}

/// Bring crashed/drained nodes back and close their fault record.
fn chaos_restart_nodes(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    nodes: &[NodeId],
    record_idx: usize,
    redirects_at_fault: u64,
    fault_time: SimTime,
) {
    for &node in nodes {
        state.cluster.set_node_up(node, true);
        toto_trace::emit(toto_trace::EventKind::ChaosNodeRestart, || {
            toto_trace::EventBody::ChaosNodeRestart {
                node: u64::from(node.raw()),
            }
        });
    }
    let redirects_now = state.admission.redirects().len() as u64;
    let recovery = sched.now().saturating_since(fault_time).as_secs();
    if let Some(rec) = state
        .chaos
        .as_mut()
        .and_then(|rt| rt.report.faults.get_mut(record_idx))
    {
        rec.redirects_delta = redirects_now.saturating_sub(redirects_at_fault);
        rec.recovery_secs = Some(recovery);
    }
}

/// `nodeCrash`: hard-kill a node drawn from the chaos RNG stream, fail
/// over what fits, restart it after `downtime_secs`.
fn chaos_crash(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    downtime_secs: u64,
) {
    let now = sched.now();
    let Some(node) = state
        .chaos
        .as_mut()
        .expect("chaos handler without runtime")
        .pick_up_node(&state.cluster)
    else {
        return;
    };
    toto_trace::emit(toto_trace::EventKind::ChaosNodeCrash, || {
        toto_trace::EventBody::ChaosNodeCrash {
            node: u64::from(node.raw()),
            downtime_secs,
        }
    });
    let moved = chaos_crash_one(state, node, now);
    let idx = chaos_record(state, now, "node_crash", Some(node), moved, None);
    chaos_schedule_restart(state, sched, vec![node], idx, downtime_secs);
}

/// `rollingRestart` slot: gracefully drain one node (all replicas moved
/// before it goes down) and restart it after `downtime_secs`. A drain the
/// PLB refuses — moving out would kill a service's last live replica —
/// records `drain_blocked` and leaves the node up.
fn chaos_drain(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    node_raw: u32,
    downtime_secs: u64,
) {
    let now = sched.now();
    if (node_raw as usize) >= state.cluster.node_count() || !state.cluster.node(NodeId(node_raw)).up
    {
        return;
    }
    let node = NodeId(node_raw);
    match state.plb.drain_node(&mut state.cluster, node, now) {
        Ok(events) => {
            toto_trace::emit(toto_trace::EventKind::ChaosNodeDrain, || {
                toto_trace::EventBody::ChaosNodeDrain {
                    node: u64::from(node.raw()),
                    downtime_secs,
                }
            });
            let moved = (events.len() as u64, drained_cores(state, &events));
            process_failovers(state, events);
            let idx = chaos_record(state, now, "drain", Some(node), moved, None);
            chaos_schedule_restart(state, sched, vec![node], idx, downtime_secs);
        }
        Err(_) => {
            chaos_record(state, now, "drain_blocked", Some(node), (0, 0.0), Some(0));
        }
    }
}

/// `decommission`: drain a node drawn from the chaos RNG stream and never
/// bring it back. Like an operator pulling hardware, it refuses (records
/// `decommission_blocked`) rather than killing a service's last live
/// replica.
fn chaos_decommission(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    let Some(node) = state
        .chaos
        .as_mut()
        .expect("chaos handler without runtime")
        .pick_up_node(&state.cluster)
    else {
        return;
    };
    match state.plb.drain_node(&mut state.cluster, node, now) {
        Ok(events) => {
            toto_trace::emit(toto_trace::EventKind::ChaosNodeDecommission, || {
                toto_trace::EventBody::ChaosNodeDecommission {
                    node: u64::from(node.raw()),
                }
            });
            let moved = (events.len() as u64, drained_cores(state, &events));
            process_failovers(state, events);
            // Permanent: the record never closes.
            chaos_record(state, now, "decommission", Some(node), moved, None);
        }
        Err(_) => {
            chaos_record(
                state,
                now,
                "decommission_blocked",
                Some(node),
                (0, 0.0),
                Some(0),
            );
        }
    }
}

/// `capacityDegrade`: shrink one resource's logical per-node capacity to
/// `factor` of its current value (firmware throttling, a noisy
/// neighbour, a sector of bad disks). The original capacity is saved
/// once so a later restore is exact even under repeated degrades.
fn chaos_degrade(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    resource: ResourceKind,
    factor: f64,
) {
    let now = sched.now();
    let metric = metric_for(state, resource);
    let current = state.cluster.metrics().def(metric).node_capacity;
    let new_cap = current * factor;
    let prev = state.cluster.set_metric_capacity(metric, new_cap);
    toto_trace::emit(toto_trace::EventKind::ChaosCapacityDegrade, || {
        toto_trace::EventBody::ChaosCapacityDegrade {
            resource: resource.to_string(),
            node_capacity: new_cap,
        }
    });
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    let saved = &mut rt.saved_capacity[resource.index()];
    if saved.is_none() {
        *saved = Some(prev);
    }
    let kind = format!("capacity_degrade:{resource}");
    chaos_record(state, now, kind, None, (0, 0.0), None);
}

/// Undo a `capacityDegrade` at its `restoreHour`.
fn chaos_restore_capacity(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    resource: ResourceKind,
) {
    let Some(original) = state
        .chaos
        .as_mut()
        .and_then(|rt| rt.saved_capacity[resource.index()].take())
    else {
        return;
    };
    let now = sched.now();
    let metric = metric_for(state, resource);
    state.cluster.set_metric_capacity(metric, original);
    toto_trace::emit(toto_trace::EventKind::ChaosCapacityDegrade, || {
        toto_trace::EventBody::ChaosCapacityDegrade {
            resource: resource.to_string(),
            node_capacity: original,
        }
    });
    let now_secs = chaos_at_secs(state, now);
    let kind = format!("capacity_degrade:{resource}");
    if let Some(rec) = state.chaos.as_mut().and_then(|rt| {
        rt.report
            .faults
            .iter_mut()
            .rev()
            .find(|f| f.kind == kind && f.recovery_secs.is_none())
    }) {
        rec.recovery_secs = Some(now_secs.saturating_sub(rec.at_secs));
    }
}

/// `reportLoss` window opens: every metric report is independently
/// dropped with probability `p` until the window closes.
fn chaos_report_loss_start(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    drop_probability: f64,
) {
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    rt.drop_probability = Some(drop_probability);
    chaos_record(state, sched.now(), "report_loss", None, (0, 0.0), None);
}

/// `reportLoss` window closes.
fn chaos_report_loss_end(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now_secs = chaos_at_secs(state, sched.now());
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    rt.drop_probability = None;
    if let Some(rec) = rt
        .report
        .faults
        .iter_mut()
        .rev()
        .find(|f| f.kind == "report_loss" && f.recovery_secs.is_none())
    {
        rec.recovery_secs = Some(now_secs.saturating_sub(rec.at_secs));
    }
}

/// `failoverStorm`: crash several nodes at once (a rack power event).
/// All victims are marked down *before* any replica moves so the PLB
/// never fails a replica over onto a node that is about to die in the
/// same event — which would also (correctly) trip oracle 1.
fn chaos_storm(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    node_count: u32,
    downtime_secs: u64,
) {
    let now = sched.now();
    let nodes = state
        .chaos
        .as_mut()
        .expect("chaos handler without runtime")
        .pick_up_nodes(&state.cluster, node_count);
    if nodes.is_empty() {
        return;
    }
    toto_trace::emit(toto_trace::EventKind::ChaosStorm, || {
        toto_trace::EventBody::ChaosStorm {
            nodes: nodes.len() as u64,
            downtime_secs,
        }
    });
    for &node in &nodes {
        state.cluster.set_node_up(node, false);
    }
    let mut moved = (0u64, 0.0f64);
    for &node in &nodes {
        toto_trace::emit(toto_trace::EventKind::ChaosNodeCrash, || {
            toto_trace::EventBody::ChaosNodeCrash {
                node: u64::from(node.raw()),
                downtime_secs,
            }
        });
        let (f, c) = chaos_crash_one(state, node, now);
        moved.0 += f;
        moved.1 += c;
    }
    let idx = chaos_record(state, now, "storm", None, moved, None);
    chaos_schedule_restart(state, sched, nodes, idx, downtime_secs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_scenario(density: u32, hours: u64) -> ScenarioSpec {
        let mut s = ScenarioSpec::gen5_stage_cluster(density);
        s.duration_hours = hours;
        s
    }

    #[test]
    fn run_end_rejects_runs_that_overflow_the_clock() {
        assert_eq!(run_end(144), Ok(RUN_START + SimDuration::from_hours(144)));
        // The last hour count whose end fits once the week of history
        // before the run is added, and the first that does not.
        let last = (u64::MAX - RUN_START.as_secs()) / SECS_PER_HOUR;
        assert!(run_end(last).is_ok());
        assert_eq!(run_end(last + 1), Err(RunTooLong { hours: last + 1 }));
        assert_eq!(run_end(u64::MAX), Err(RunTooLong { hours: u64::MAX }));
    }

    #[test]
    fn short_run_produces_consistent_result() {
        let result =
            DensityExperiment::new(short_scenario(110, 4), ExperimentOverrides::default()).run();
        assert_eq!(result.bootstrap.services.len(), 220);
        assert!(result.final_reserved_cores > 1000.0);
        assert!(result.final_disk_gb > 10_000.0);
        // Hourly snapshots at h = 0..=4 inclusive of the end instant.
        assert_eq!(result.telemetry.reserved_cores.len(), 5);
        assert!(result.revenue.adjusted() > 0.0);
        // Billing covers at least the bootstrap population.
        assert!(result.billing.len() >= 220);
    }

    #[test]
    fn runs_are_reproducible_with_fixed_seeds() {
        let a =
            DensityExperiment::new(short_scenario(100, 3), ExperimentOverrides::default()).run();
        let b =
            DensityExperiment::new(short_scenario(100, 3), ExperimentOverrides::default()).run();
        assert_eq!(a.final_reserved_cores, b.final_reserved_cores);
        assert_eq!(a.final_disk_gb, b.final_disk_gb);
        assert_eq!(a.redirect_count, b.redirect_count);
        assert_eq!(
            a.telemetry.failover_count(None),
            b.telemetry.failover_count(None)
        );
        assert_eq!(a.revenue, b.revenue);
    }

    #[test]
    fn plb_seed_changes_do_not_change_population() {
        let mut s1 = short_scenario(100, 3);
        s1.plb_seed = 1;
        let mut s2 = short_scenario(100, 3);
        s2.plb_seed = 999;
        let a = DensityExperiment::new(s1, ExperimentOverrides::default()).run();
        let b = DensityExperiment::new(s2, ExperimentOverrides::default()).run();
        // Same population stream: same number of databases created.
        assert_eq!(a.created_during_run, b.created_during_run);
    }

    #[test]
    fn higher_density_reserves_more_cores() {
        let lo =
            DensityExperiment::new(short_scenario(100, 8), ExperimentOverrides::default()).run();
        let hi =
            DensityExperiment::new(short_scenario(140, 8), ExperimentOverrides::default()).run();
        assert!(
            hi.final_reserved_cores >= lo.final_reserved_cores,
            "140% reserved {} < 100% reserved {}",
            hi.final_reserved_cores,
            lo.final_reserved_cores
        );
    }

    #[test]
    fn node_snapshots_cover_all_nodes() {
        let r =
            DensityExperiment::new(short_scenario(100, 2), ExperimentOverrides::default()).run();
        // Snapshots every 600 s through the 7200 s end = 12 rounds x 14 nodes.
        assert_eq!(r.telemetry.node_snapshots.len(), 12 * 14);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;

    fn scenario(density: u32, hours: u64) -> ScenarioSpec {
        let mut s = ScenarioSpec::gen5_stage_cluster(density);
        s.duration_hours = hours;
        s
    }

    fn with_plan(plan: &str) -> ExperimentOverrides {
        ExperimentOverrides {
            chaos: ChaosPlan::named(plan).expect("named plan"),
            ..ExperimentOverrides::default()
        }
    }

    #[test]
    fn node_crash_plan_fails_over_cores_with_quiet_oracles() {
        let r = DensityExperiment::new(scenario(110, 6), with_plan("node-crash")).run();
        let chaos = r.chaos.expect("chaos report present");
        assert_eq!(
            chaos.oracle_violations, 0,
            "healthy engine must not trip its own oracles"
        );
        assert!(chaos.oracle_checks > 0, "post-dispatch oracle must run");
        let crash = chaos
            .faults
            .iter()
            .find(|f| f.kind == "node_crash")
            .expect("crash fault recorded");
        assert!(
            crash.failed_over_cores > 0.0,
            "crashing a loaded node must fail over cores"
        );
        assert!(crash.failovers > 0);
        assert_eq!(crash.recovery_secs, Some(1800), "restart closes the fault");
        // Crash failovers count toward the run's QoS KPIs.
        assert!(r.telemetry.failover_count(None) >= crash.failovers as usize);
    }

    #[test]
    fn chaos_runs_are_reproducible() {
        let a = DensityExperiment::new(scenario(100, 5), with_plan("storm")).run();
        let b = DensityExperiment::new(scenario(100, 5), with_plan("storm")).run();
        assert_eq!(
            a.chaos, b.chaos,
            "identical (spec, seed) → identical faults"
        );
        assert_eq!(a.final_reserved_cores, b.final_reserved_cores);
        assert_eq!(a.final_disk_gb, b.final_disk_gb);
        assert_eq!(a.redirect_count, b.redirect_count);
        assert_eq!(a.revenue, b.revenue);
        let chaos = a.chaos.expect("chaos report present");
        assert_eq!(chaos.oracle_violations, 0);
        let storm = chaos
            .faults
            .iter()
            .find(|f| f.kind == "storm")
            .expect("storm fault recorded");
        assert!(storm.failovers > 0, "a 3-node storm must move replicas");
    }

    #[test]
    fn degrade_and_report_loss_plans_complete_cleanly() {
        for plan in ["degrade", "report-loss", "rolling", "decommission"] {
            let r = DensityExperiment::new(scenario(100, 5), with_plan(plan)).run();
            let chaos = r.chaos.unwrap_or_else(|| panic!("{plan}: report present"));
            assert_eq!(chaos.oracle_violations, 0, "{plan}: oracles stay quiet");
            assert!(!chaos.faults.is_empty(), "{plan}: faults recorded");
        }
    }

    #[test]
    fn degrade_restores_original_capacity() {
        let r = DensityExperiment::new(scenario(100, 6), with_plan("degrade")).run();
        let chaos = r.chaos.expect("chaos report present");
        let rec = chaos
            .faults
            .iter()
            .find(|f| f.kind == "capacity_degrade:Disk")
            .expect("degrade fault recorded");
        // Degrade at hour 1, restore at hour 4 → 3 hours to recover.
        assert_eq!(rec.recovery_secs, Some(3 * 3600));
    }

    #[test]
    fn rolling_plan_drains_and_restores_nodes() {
        let r = DensityExperiment::new(scenario(110, 8), with_plan("rolling")).run();
        assert_eq!(r.bootstrap.services.len(), 220);
        // Replicas moved off each drained node: a mid-run snapshot shows
        // an empty node, which a run without the plan never does.
        let min_node_cores = |r: &ExperimentResult| {
            r.telemetry
                .node_snapshots
                .iter()
                .map(|s| s.cores)
                .fold(f64::INFINITY, f64::min)
        };
        assert_eq!(
            min_node_cores(&r),
            0.0,
            "a drained node should appear empty"
        );
        let baseline =
            DensityExperiment::new(scenario(110, 8), ExperimentOverrides::default()).run();
        assert!(
            min_node_cores(&baseline) > 0.0,
            "without drains no node empties"
        );
        // Drain moves are not failovers.
        assert_eq!(r.telemetry.failover_count(None), 0);
        let chaos = r.chaos.expect("chaos report present");
        assert_eq!(chaos.oracle_violations, 0);
        assert!(!chaos.faults.is_empty());
        for fault in &chaos.faults {
            assert_eq!(fault.kind, "drain", "{fault:?}");
            assert_eq!(fault.recovery_secs, Some(3600), "{fault:?}");
        }
    }

    #[test]
    fn empty_plan_is_byte_inert() {
        let plain = DensityExperiment::new(scenario(100, 3), ExperimentOverrides::default()).run();
        assert!(plain.chaos.is_none(), "no plan → no chaos report");
        let explicit_empty = DensityExperiment::new(
            scenario(100, 3),
            ExperimentOverrides {
                chaos: ChaosPlan::default(),
                ..ExperimentOverrides::default()
            },
        )
        .run();
        assert_eq!(
            plain.final_reserved_cores,
            explicit_empty.final_reserved_cores
        );
        assert_eq!(plain.revenue, explicit_empty.revenue);
        assert_eq!(
            plain.telemetry.failover_count(None),
            explicit_empty.telemetry.failover_count(None)
        );
    }
}

/// Node-governance pass (§5.5's RgManager-effectiveness measurement):
/// every replica's CPU *demand* is its reservation times a modeled
/// utilization fraction; each node's governor allocates physical cores
/// and the throttled residue is the density study's hidden performance
/// tax. Nothing here is reported to the PLB — the orchestrator's Cpu
/// metric remains the admission-time reservation.
fn governance_tick(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    // Each node's demands in replica-id order: the order the governor
    // allocates and sums them in.
    let mut demands = std::mem::take(&mut state.governance_demands);
    for node in &mut demands {
        node.clear();
    }
    for (r, report_service) in replicas_with_service(&state.cluster, &state.identities) {
        let node = r.node.raw() as usize;
        let req = report_service.request(r, ResourceKind::Cpu, now, 0.05);
        let utilization = state.rgmanagers[node]
            .compute_report(&mut state.naming, &mut state.in_memory, &req)
            .clamp(0.0, 4.0);
        let reserved = r.load[state.cpu];
        demands[node].push(CpuDemand {
            reserved,
            demanded: reserved * utilization,
        });
    }
    let mut throttled_total = 0.0;
    let mut contended = 0u64;
    for (node, demand) in demands.iter().enumerate() {
        if demand.is_empty() {
            continue;
        }
        let before = state.governors[node].stats();
        state.governors[node].govern(demand, &mut state.governance_grants);
        let after = state.governors[node].stats();
        throttled_total += after.throttled_core_intervals - before.throttled_core_intervals;
        contended += after.contended_passes - before.contended_passes;
    }
    let cumulative = state.telemetry.cpu_throttling.last_value().unwrap_or(0.0) + throttled_total;
    state.telemetry.cpu_throttling.push(now, cumulative);
    state.telemetry.contended_governance_passes += contended;
    state.governance_demands = demands;
    let next = now + state.report_period;
    if next <= state.end {
        sched.schedule_at(next, governance_tick);
    }
}
