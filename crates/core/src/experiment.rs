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
use toto_fabric::cluster::{Cluster, ClusterConfig, ReplicaRole};
use toto_fabric::ids::{MetricId, NodeId, ReplicaId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::naming::NamingService;
use toto_fabric::plb::{FailoverEvent, Plb, PlbConfig};
use toto_models::compiled::ReplicaRoleKind;
use toto_rgmanager::{persisted_state_key, ReportRequest, RgManager, MODEL_KEY};
use toto_simcore::event::{Scheduler, Simulation};
use toto_simcore::rng::DetRng;
use toto_simcore::time::{SimDuration, SimTime};
use toto_spec::model::ModelSetSpec;
use toto_spec::population::PopulationModelSpec;
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};
use toto_telemetry::kpi::{FailoverRecord, NodeSnapshot, Telemetry};
use toto_telemetry::revenue::{BillingRecord, RevenueBreakdown, RevenueParams};

/// Optional deviations from the scenario defaults.
#[derive(Clone, Debug)]
pub struct ExperimentOverrides {
    /// Replace the default population model.
    pub population: Option<PopulationModelSpec>,
    /// Replace the default metric model set.
    pub models: Option<ModelSetSpec>,
    /// Replace the default PLB configuration.
    pub plb: Option<PlbConfig>,
    /// Run proactive balancing during the experiment (on by default —
    /// SF's PLB balances continuously; balancing moves are not failovers).
    pub balance_during_run: bool,
    /// Interval between node-level snapshots, seconds (default 600 — the
    /// paper's Figure 13 uses 10-minute node readings).
    pub node_snapshot_secs: Option<u64>,
    /// Replace the SLA/revenue parameters.
    pub revenue: Option<RevenueParams>,
    /// Optional rolling maintenance upgrade: nodes are drained one at a
    /// time and brought back, as production clusters do mid-experiment
    /// ("the outliers at each density level are when a cluster
    /// maintenance upgrade was occurring", §5.3.2).
    pub rolling_upgrade: Option<RollingUpgrade>,
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

/// A rolling cluster upgrade: starting at `start_hour`, each node in
/// turn is drained, stays down for `downtime_hours`, and comes back
/// before the next node begins.
#[derive(Clone, Copy, Debug)]
pub struct RollingUpgrade {
    /// Hour (from experiment start) the upgrade begins.
    pub start_hour: u64,
    /// How long each node stays drained.
    pub downtime_hours: u64,
}

impl Default for ExperimentOverrides {
    fn default() -> Self {
        ExperimentOverrides {
            population: None,
            models: None,
            plb: None,
            balance_during_run: true,
            node_snapshot_secs: None,
            revenue: None,
            rolling_upgrade: None,
            chaos: ChaosPlan::default(),
            directed: None,
        }
    }
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
    rgmanagers: Vec<RgManager>,
    governors: Vec<toto_rgmanager::governance::NodeGovernor>,
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
    by_name: BTreeMap<String, toto_fabric::ids::ServiceId>,
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
    node_snapshot_period: SimDuration,
    balance_during_run: bool,
    /// Fault-injection state; `None` whenever the chaos plan is empty.
    chaos: Option<ChaosRuntime>,
    /// Scratch for `report_metrics`' per-replica snapshot, reused every
    /// report period so the hottest periodic event allocates nothing in
    /// steady state.
    report_rows: Vec<ReplicaRow>,
}

/// One row of `report_metrics`' pre-collected snapshot: (id, service,
/// node, role, edition, created_at, disk_load, mem_load). Collected
/// before reporting because reporting mutates the cluster.
type ReplicaRow = (
    ReplicaId,
    u64,
    u32,
    ReplicaRole,
    EditionKind,
    SimTime,
    f64,
    f64,
);

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

        // The experiment clock starts one week after the bootstrap epoch:
        // the initial population is pre-aged (its databases must not
        // re-trigger initial-creation growth — the paper freezes growth
        // during bootstrap for exactly this reason), and a whole number of
        // weeks keeps the epoch-is-Monday calendar alignment.
        let start = SimTime::ZERO + SimDuration::from_days(7);

        // --- Toto orchestrator: write models, seed persisted state --------
        let mut naming = NamingService::new();
        let model_set = overrides.models.clone().unwrap_or_else(|| {
            defaults::gen5_model_set(scenario.model_seed, scenario.report_period_secs)
        });
        naming.write(MODEL_KEY, model_set.to_xml_string());
        let mut billing: BTreeMap<u64, BillingState> = BTreeMap::new();
        let mut identities: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        let mut by_name: BTreeMap<String, toto_fabric::ids::ServiceId> = BTreeMap::new();
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
                    format!("{initial_disk:?}"),
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

        let mut rgmanagers: Vec<RgManager> = (0..scenario.node_count).map(RgManager::new).collect();
        for rg in &mut rgmanagers {
            rg.refresh_models(&mut naming);
        }
        let governors: Vec<toto_rgmanager::governance::NodeGovernor> = (0..scenario.node_count)
            .map(|_| toto_rgmanager::governance::NodeGovernor::new(scenario.cores_per_node))
            .collect();

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
            node_snapshot_period: SimDuration::from_secs(
                overrides.node_snapshot_secs.unwrap_or(600),
            ),
            balance_during_run: overrides.balance_during_run,
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
            rgmanagers,
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
            report_rows: Vec::new(),
        };

        let mut sim = Simulation::new(state);
        let refresh = SimDuration::from_secs(sim.state().scenario.model_refresh_secs);
        let report = sim.state().report_period;
        let snapshot = sim.state().node_snapshot_period;
        sim.scheduler().schedule_at(start, population_tick);
        sim.scheduler().schedule_at(start + report, report_metrics);
        sim.scheduler().schedule_at(start + refresh, refresh_models);
        sim.scheduler()
            .schedule_at(start + SimDuration::from_secs(300), plb_tick);
        sim.scheduler().schedule_at(start + report, governance_tick);
        sim.scheduler().schedule_at(start + snapshot, node_snapshot);
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
        if let Some(upgrade) = overrides.rolling_upgrade {
            let nodes = sim.state().cluster.node_count() as u64;
            for i in 0..nodes {
                let t_drain = start
                    + SimDuration::from_hours(upgrade.start_hour + i * upgrade.downtime_hours);
                if t_drain >= end {
                    break;
                }
                let node = NodeId(i as u32);
                sim.scheduler()
                    .schedule_at(t_drain, move |s: &mut ExperimentState, sc| {
                        let events = {
                            let mut plb = s.plb.clone();
                            // A drain blocked by a last-live-replica conflict
                            // skips this node's upgrade slot (it stays up).
                            let ev = plb
                                .drain_node(&mut s.cluster, node, sc.now())
                                .unwrap_or_default();
                            s.plb = plb;
                            ev
                        };
                        // Drain moves reset non-persisted state but are not
                        // capacity-violation failovers.
                        process_failovers(s, events);
                    });
                let t_up = t_drain + SimDuration::from_hours(upgrade.downtime_hours);
                if t_up <= end {
                    sim.scheduler()
                        .schedule_at(t_up, move |s: &mut ExperimentState, _| {
                            s.cluster.set_node_up(node, true);
                        });
                }
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
                    ChaosAction::Crash {
                        node,
                        downtime_secs,
                    } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_crash(s, sc, node, downtime_secs)
                        }),
                    ChaosAction::Drain {
                        node,
                        downtime_secs,
                    } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_drain(s, sc, node, downtime_secs)
                        }),
                    ChaosAction::Decommission { node } => sim
                        .scheduler()
                        .schedule_at(t, move |s: &mut ExperimentState, sc| {
                            chaos_decommission(s, sc, node)
                        }),
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
        let params = overrides.revenue.unwrap_or_else(|| RevenueParams {
            // Credits are assessed against the experiment's billing window
            // (the paper subtracts "service credits based on the SLA" from
            // the revenue modeled over the run).
            credit_window_hours: state.scenario.duration_hours as f64,
            ..RevenueParams::default()
        });
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

/// Every report period each replica consults its node's RgManager for the
/// disk and memory metrics and reports the modeled loads to the PLB.
fn report_metrics(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    // Take/put-back: the rows are collected up front (reporting mutates
    // the cluster) into a buffer reused across report periods. A
    // service's replicas have consecutive ids and replicas iterate in id
    // order, so the service lookup is cached across the run of rows that
    // share it — one map probe per service instead of per replica.
    let mut rows = std::mem::take(&mut state.report_rows);
    rows.clear();
    let mut last_service: Option<(toto_fabric::ids::ServiceId, EditionKind, SimTime)> = None;
    for r in state.cluster.replicas() {
        let (edition, created_at) = match last_service {
            Some((sid, edition, created_at)) if sid == r.service => (edition, created_at),
            _ => {
                let svc = state.cluster.service(r.service).expect("replica's service");
                let cached = (edition_of(svc.tag), svc.created_at);
                last_service = Some((r.service, cached.0, cached.1));
                cached
            }
        };
        rows.push((
            r.id,
            r.service.raw(),
            r.node.raw(),
            r.role,
            edition,
            created_at,
            r.load[state.disk],
            r.load[state.memory],
        ));
    }
    let mut last_identity: Option<(u64, u64)> = None;
    for &(rid, service, node, role, edition, created_at, disk_load, mem_load) in &rows {
        let identity = match last_identity {
            Some((s, identity)) if s == service => identity,
            _ => {
                let identity = state.identities.get(&service).copied().unwrap_or(service);
                last_identity = Some((service, identity));
                identity
            }
        };
        let role_kind = match role {
            ReplicaRole::Primary => ReplicaRoleKind::Primary,
            ReplicaRole::Secondary => ReplicaRoleKind::Secondary,
        };
        for (resource, metric, actual) in [
            (ResourceKind::Disk, state.disk, disk_load),
            (ResourceKind::Memory, state.memory, mem_load),
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
                                replica: rid.raw(),
                                node: u64::from(node),
                                resource: resource.to_string(),
                            }
                        });
                        continue;
                    }
                }
            }
            let req = ReportRequest {
                replica: rid.raw(),
                service: identity,
                role: role_kind,
                edition,
                resource,
                created_at,
                now,
                actual_load: actual,
            };
            let value = state.rgmanagers[node as usize].compute_report(&mut state.naming, &req);
            state.cluster.report_load(rid, metric, value);
            if resource == ResourceKind::Disk && role == ReplicaRole::Primary {
                if let Some(b) = state.billing.get_mut(&service) {
                    b.disk_sum += value;
                    b.disk_samples += 1;
                }
            }
        }
    }
    state.report_rows = rows;
    let next = now + state.report_period;
    if next <= state.end {
        sched.schedule_at(next, report_metrics);
    }
}

/// Every 15 minutes each node's RgManager re-reads the model XML.
fn refresh_models(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    for rg in &mut state.rgmanagers {
        rg.refresh_models(&mut state.naming);
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
        state.rgmanagers[ev.from.raw() as usize].forget_replica(ev.replica.raw());
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

/// PLB pass: fix capacity violations (and optionally balance).
fn plb_tick(state: &mut ExperimentState, sched: &mut Scheduler<ExperimentState>) {
    let now = sched.now();
    let tick = SimDuration::from_secs(300);
    let mut plb = state.plb.clone();
    let events = plb.fix_violations(&mut state.cluster, now);
    let mut all_events = events;
    if state.balance_during_run {
        all_events.extend(plb.balance(&mut state.cluster, now));
    }
    state.plb = plb;
    process_failovers(state, all_events);
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
                    format!("{:?}", req.initial_disk_gb),
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
    victim: toto_fabric::ids::ServiceId,
    edition: EditionKind,
    now: SimTime,
) {
    if let Some(name) = state.cluster.service(victim).map(|s| s.name.clone()) {
        state.by_name.remove(&name);
    }
    let nodes: Vec<u32> = state
        .cluster
        .service(victim)
        .map(|s| {
            s.replicas
                .iter()
                .filter_map(|r| state.cluster.replica(*r))
                .map(|r| r.node.raw())
                .collect()
        })
        .unwrap_or_default();
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
        for (node, rid) in nodes.into_iter().zip(replica_ids) {
            state.rgmanagers[node as usize].forget_replica(rid);
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
    let next = now + state.node_snapshot_period;
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

/// Resolve a plan's optional explicit node to a live victim. An explicit
/// node that is out of range or already down makes the fault a no-op
/// (the plan said "kill node 7" and node 7 is already dead); an
/// unspecified node draws uniformly from the chaos RNG stream.
fn chaos_pick_victim(state: &mut ExperimentState, requested: Option<u32>) -> Option<NodeId> {
    match requested {
        Some(n) => {
            if (n as usize) < state.cluster.node_count() && state.cluster.node(NodeId(n)).up {
                Some(NodeId(n))
            } else {
                None
            }
        }
        None => state
            .chaos
            .as_mut()
            .expect("chaos handler without runtime")
            .pick_up_node(&state.cluster),
    }
}

/// Crash one node through the PLB and return (failovers, cores moved),
/// measured from the telemetry the crash appended.
fn chaos_crash_one(state: &mut ExperimentState, node: NodeId, now: SimTime) -> (u64, f64) {
    let before = state.telemetry.failovers.len();
    let events = {
        let mut plb = state.plb.clone();
        let ev = plb.crash_node(&mut state.cluster, node, now);
        state.plb = plb;
        ev
    };
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

/// `nodeCrash`: hard-kill a node, fail over what fits, restart it after
/// `downtime_secs`.
fn chaos_crash(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    requested: Option<u32>,
    downtime_secs: u64,
) {
    let now = sched.now();
    let Some(node) = chaos_pick_victim(state, requested) else {
        return;
    };
    toto_trace::emit(toto_trace::EventKind::ChaosNodeCrash, || {
        toto_trace::EventBody::ChaosNodeCrash {
            node: u64::from(node.raw()),
            downtime_secs,
        }
    });
    let (failovers, failed_over_cores) = chaos_crash_one(state, node, now);
    let redirects_at_fault = state.admission.redirects().len() as u64;
    let at_secs = chaos_at_secs(state, now);
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    rt.report.faults.push(ChaosFaultRecord {
        at_secs,
        kind: "node_crash".into(),
        node: Some(node.raw()),
        failovers,
        failed_over_cores,
        redirects_delta: 0,
        recovery_secs: None,
    });
    let idx = rt.report.faults.len() - 1;
    let t_up = now + SimDuration::from_secs(downtime_secs);
    if t_up <= state.end {
        sched.schedule_at(t_up, move |s: &mut ExperimentState, sc| {
            chaos_restart_node(s, sc, node, idx, redirects_at_fault, now);
        });
    }
}

/// Bring a crashed/drained node back and close its fault record.
fn chaos_restart_node(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    node: NodeId,
    record_idx: usize,
    redirects_at_fault: u64,
    fault_time: SimTime,
) {
    state.cluster.set_node_up(node, true);
    toto_trace::emit(toto_trace::EventKind::ChaosNodeRestart, || {
        toto_trace::EventBody::ChaosNodeRestart {
            node: u64::from(node.raw()),
        }
    });
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
    let result = {
        let mut plb = state.plb.clone();
        let r = plb.drain_node(&mut state.cluster, node, now);
        state.plb = plb;
        r
    };
    let at_secs = chaos_at_secs(state, now);
    match result {
        Ok(events) => {
            toto_trace::emit(toto_trace::EventKind::ChaosNodeDrain, || {
                toto_trace::EventBody::ChaosNodeDrain {
                    node: u64::from(node.raw()),
                    downtime_secs,
                }
            });
            let failovers = events.len() as u64;
            let failed_over_cores = drained_cores(state, &events);
            process_failovers(state, events);
            let redirects_at_fault = state.admission.redirects().len() as u64;
            let rt = state.chaos.as_mut().expect("chaos handler without runtime");
            rt.report.faults.push(ChaosFaultRecord {
                at_secs,
                kind: "drain".into(),
                node: Some(node.raw()),
                failovers,
                failed_over_cores,
                redirects_delta: 0,
                recovery_secs: None,
            });
            let idx = rt.report.faults.len() - 1;
            let t_up = now + SimDuration::from_secs(downtime_secs);
            if t_up <= state.end {
                sched.schedule_at(t_up, move |s: &mut ExperimentState, sc| {
                    chaos_restart_node(s, sc, node, idx, redirects_at_fault, now);
                });
            }
        }
        Err(_) => {
            let rt = state.chaos.as_mut().expect("chaos handler without runtime");
            rt.report.faults.push(ChaosFaultRecord {
                at_secs,
                kind: "drain_blocked".into(),
                node: Some(node.raw()),
                failovers: 0,
                failed_over_cores: 0.0,
                redirects_delta: 0,
                recovery_secs: Some(0),
            });
        }
    }
}

/// `decommission`: drain a node and never bring it back. Like an
/// operator pulling hardware, it refuses (records `decommission_blocked`)
/// rather than killing a service's last live replica.
fn chaos_decommission(
    state: &mut ExperimentState,
    sched: &mut Scheduler<ExperimentState>,
    requested: Option<u32>,
) {
    let now = sched.now();
    let Some(node) = chaos_pick_victim(state, requested) else {
        return;
    };
    let result = {
        let mut plb = state.plb.clone();
        let r = plb.drain_node(&mut state.cluster, node, now);
        state.plb = plb;
        r
    };
    let at_secs = chaos_at_secs(state, now);
    match result {
        Ok(events) => {
            toto_trace::emit(toto_trace::EventKind::ChaosNodeDecommission, || {
                toto_trace::EventBody::ChaosNodeDecommission {
                    node: u64::from(node.raw()),
                }
            });
            let failovers = events.len() as u64;
            let failed_over_cores = drained_cores(state, &events);
            process_failovers(state, events);
            let rt = state.chaos.as_mut().expect("chaos handler without runtime");
            rt.report.faults.push(ChaosFaultRecord {
                at_secs,
                kind: "decommission".into(),
                node: Some(node.raw()),
                failovers,
                failed_over_cores,
                redirects_delta: 0,
                recovery_secs: None, // permanent
            });
        }
        Err(_) => {
            let rt = state.chaos.as_mut().expect("chaos handler without runtime");
            rt.report.faults.push(ChaosFaultRecord {
                at_secs,
                kind: "decommission_blocked".into(),
                node: Some(node.raw()),
                failovers: 0,
                failed_over_cores: 0.0,
                redirects_delta: 0,
                recovery_secs: Some(0),
            });
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
    let at_secs = chaos_at_secs(state, now);
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    let saved = &mut rt.saved_capacity[resource.index()];
    if saved.is_none() {
        *saved = Some(prev);
    }
    rt.report.faults.push(ChaosFaultRecord {
        at_secs,
        kind: format!("capacity_degrade:{resource}"),
        node: None,
        failovers: 0,
        failed_over_cores: 0.0,
        redirects_delta: 0,
        recovery_secs: None,
    });
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
    let at_secs = chaos_at_secs(state, sched.now());
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    rt.drop_probability = Some(drop_probability);
    rt.report.faults.push(ChaosFaultRecord {
        at_secs,
        kind: "report_loss".into(),
        node: None,
        failovers: 0,
        failed_over_cores: 0.0,
        redirects_delta: 0,
        recovery_secs: None,
    });
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
    let mut failovers = 0u64;
    let mut failed_over_cores = 0.0f64;
    for &node in &nodes {
        toto_trace::emit(toto_trace::EventKind::ChaosNodeCrash, || {
            toto_trace::EventBody::ChaosNodeCrash {
                node: u64::from(node.raw()),
                downtime_secs,
            }
        });
        let (f, c) = chaos_crash_one(state, node, now);
        failovers += f;
        failed_over_cores += c;
    }
    let redirects_at_fault = state.admission.redirects().len() as u64;
    let at_secs = chaos_at_secs(state, now);
    let rt = state.chaos.as_mut().expect("chaos handler without runtime");
    rt.report.faults.push(ChaosFaultRecord {
        at_secs,
        kind: "storm".into(),
        node: None,
        failovers,
        failed_over_cores,
        redirects_delta: 0,
        recovery_secs: None,
    });
    let idx = rt.report.faults.len() - 1;
    let t_up = now + SimDuration::from_secs(downtime_secs);
    if t_up <= state.end {
        sched.schedule_at(t_up, move |s: &mut ExperimentState, sc| {
            for (i, &node) in nodes.iter().enumerate() {
                s.cluster.set_node_up(node, true);
                toto_trace::emit(toto_trace::EventKind::ChaosNodeRestart, || {
                    toto_trace::EventBody::ChaosNodeRestart {
                        node: u64::from(node.raw()),
                    }
                });
                // Close the storm record once, from the shared end time.
                if i == 0 {
                    let redirects_now = s.admission.redirects().len() as u64;
                    let recovery = sc.now().saturating_since(now).as_secs();
                    if let Some(rec) = s
                        .chaos
                        .as_mut()
                        .and_then(|rt| rt.report.faults.get_mut(idx))
                    {
                        rec.redirects_delta = redirects_now.saturating_sub(redirects_at_fault);
                        rec.recovery_secs = Some(recovery);
                    }
                }
            }
        });
    }
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
        let overrides = ExperimentOverrides {
            node_snapshot_secs: Some(1800),
            ..Default::default()
        };
        let r = DensityExperiment::new(short_scenario(100, 2), overrides).run();
        // Snapshots at 1800s, 3600s, 5400s, 7200s = 4 rounds x 14 nodes.
        assert_eq!(r.telemetry.node_snapshots.len(), 4 * 14);
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

#[cfg(test)]
mod upgrade_tests {
    use super::*;

    #[test]
    fn rolling_upgrade_drains_and_restores_nodes() {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(110);
        scenario.duration_hours = 8;
        let overrides = ExperimentOverrides {
            rolling_upgrade: Some(RollingUpgrade {
                start_hour: 1,
                downtime_hours: 1,
            }),
            ..ExperimentOverrides::default()
        };
        let with_upgrade = DensityExperiment::new(scenario.clone(), overrides).run();
        let baseline = DensityExperiment::new(scenario, ExperimentOverrides::default()).run();
        // The upgraded run completes with consistent accounting and moved
        // replicas around (node snapshots show empty nodes mid-run).
        assert_eq!(with_upgrade.bootstrap.services.len(), 220);
        let min_node_cores = with_upgrade
            .telemetry
            .node_snapshots
            .iter()
            .map(|s| s.cores)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_node_cores, 0.0, "a drained node should appear empty");
        let baseline_min = baseline
            .telemetry
            .node_snapshots
            .iter()
            .map(|s| s.cores)
            .fold(f64::INFINITY, f64::min);
        assert!(baseline_min > 0.0, "without upgrades no node empties");
        // Drain moves are not failovers.
        assert_eq!(with_upgrade.telemetry.failover_count(None), 0);
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
    let replicas: Vec<(u64, u64, u32, ReplicaRole, EditionKind, SimTime, f64)> = state
        .cluster
        .replicas()
        .map(|r| {
            let svc = state.cluster.service(r.service).expect("replica's service");
            (
                r.id.raw(),
                r.service.raw(),
                r.node.raw(),
                r.role,
                edition_of(svc.tag),
                svc.created_at,
                r.load[state.cpu],
            )
        })
        .collect();
    let mut demands: Vec<std::collections::BTreeMap<u64, toto_rgmanager::governance::CpuDemand>> =
        vec![std::collections::BTreeMap::new(); state.governors.len()];
    for (rid, service, node, role, edition, created_at, reserved) in replicas {
        let identity = state.identities.get(&service).copied().unwrap_or(service);
        let role_kind = match role {
            ReplicaRole::Primary => ReplicaRoleKind::Primary,
            ReplicaRole::Secondary => ReplicaRoleKind::Secondary,
        };
        let req = ReportRequest {
            replica: rid,
            service: identity,
            role: role_kind,
            edition,
            resource: ResourceKind::Cpu,
            created_at,
            now,
            actual_load: 0.05,
        };
        let utilization = state.rgmanagers[node as usize]
            .compute_report(&mut state.naming, &req)
            .clamp(0.0, 4.0);
        demands[node as usize].insert(
            rid,
            toto_rgmanager::governance::CpuDemand {
                reserved,
                demanded: reserved * utilization,
            },
        );
    }
    let mut throttled_total = 0.0;
    let mut contended = 0u64;
    for (node, demand) in demands.iter().enumerate() {
        if demand.is_empty() {
            continue;
        }
        let before = state.governors[node].stats();
        state.governors[node].govern(demand);
        let after = state.governors[node].stats();
        throttled_total += after.throttled_core_intervals - before.throttled_core_intervals;
        contended += after.contended_passes - before.contended_passes;
    }
    let cumulative = state.telemetry.cpu_throttling.last_value().unwrap_or(0.0) + throttled_total;
    state.telemetry.cpu_throttling.push(now, cumulative);
    state.telemetry.contended_governance_passes += contended;
    let next = now + state.report_period;
    if next <= state.end {
        sched.schedule_at(next, governance_tick);
    }
}
