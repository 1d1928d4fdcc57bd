//! Phases B and C: execute a region plan as parallel per-ring fleet
//! jobs, then aggregate into the region run record.
//!
//! Phase A ([`crate::plan`]) already decided every routing and lifecycle
//! event, so each ring job is a self-contained directed experiment —
//! a pure function of its descriptor — and the fleet executor can run
//! rings on any number of worker threads with byte-identical artifacts.

use toto::experiment::ExperimentOverrides;
use toto_chaos::{ChaosPlan, FaultSpec};
use toto_fleet::{
    FleetExecutor, FleetManifest, FleetObserver, FleetPlan, ManifestJob, NullObserver, RunRecord,
    RunStore, RUN_SCHEMA_VERSION,
};

use crate::plan::{build_region_plan, RegionPlan};
use crate::record::{RegionRunRecord, RingEntry, REGION_SCHEMA_VERSION};
use crate::spec::RegionSpec;

/// File name of the region record artifact inside the fleet directory.
pub const REGION_RECORD_FILE: &str = "region.json";
/// File name of the region control-plane trace artifact.
pub const REGION_TRACE_FILE: &str = "region.trace";

/// Configuration for one region run.
#[derive(Clone, Debug)]
pub struct RegionRunner {
    /// Fleet worker threads for the per-ring jobs.
    pub threads: usize,
    /// Record per-ring trace sidecars (the region control-plane trace
    /// is always recorded).
    pub trace: bool,
    /// Fault-injection plan applied to ring jobs (empty = none).
    pub chaos: ChaosPlan,
    /// Restrict the chaos plan to one named ring (a scenario's
    /// `[chaos] ring`).
    /// `None` applies the plan to every ring.
    pub chaos_ring: Option<String>,
}

impl Default for RegionRunner {
    fn default() -> Self {
        RegionRunner {
            threads: 1,
            trace: false,
            chaos: ChaosPlan::default(),
            chaos_ring: None,
        }
    }
}

/// Per-ring sidecar payloads produced by a region run.
#[derive(Clone, Debug)]
pub struct RingSidecars {
    /// Ring name (the job label).
    pub label: String,
    /// Encoded trace stream, when tracing was on.
    pub trace: Option<Vec<u8>>,
    /// Chaos report JSON, when the ring ran under a chaos plan.
    pub chaos_json: Option<String>,
}

/// Everything a region run produces.
#[derive(Clone, Debug)]
pub struct RegionRunOutput {
    /// The Phase A decisions (schedules, attribution, region trace).
    pub plan: RegionPlan,
    /// The aggregated region record.
    pub record: RegionRunRecord,
    /// Per-ring run records, spec order.
    pub ring_records: Vec<RunRecord>,
    /// Observational manifest (threads, wall-clock, statuses).
    pub manifest: FleetManifest,
    /// Per-ring sidecars, spec order.
    pub sidecars: Vec<RingSidecars>,
    /// True iff every ring job completed.
    pub all_completed: bool,
    /// Total chaos invariant-oracle violations across rings.
    pub oracle_violations: u64,
}

impl RegionRunner {
    /// Resolve the effective spec: a chaos plan that decommissions a
    /// node *of a named ring* promotes to a ring-lifecycle decommission
    /// — the region drains the ring's tenants cross-ring at the fault
    /// hour, composing the chaos fault with the lifecycle event.
    pub fn effective_spec(&self, spec: &RegionSpec) -> RegionSpec {
        let mut spec = spec.clone();
        let Some(ring_name) = &self.chaos_ring else {
            return spec;
        };
        let Some(ring) = spec.rings.iter_mut().find(|r| &r.name == ring_name) else {
            panic!("chaos targets unknown ring {ring_name:?}");
        };
        if ring.decommission_hour.is_none() {
            let promote = self
                .chaos
                .faults
                .iter()
                .filter_map(|f| match f {
                    FaultSpec::Decommission { at_hour } => Some(*at_hour),
                    _ => None,
                })
                .min();
            ring.decommission_hour = promote;
        }
        spec
    }

    /// Run the region end to end: Phase A plan, Phase B parallel ring
    /// jobs, Phase C aggregation. `fleet_name` names the artifact
    /// directory in the manifest.
    pub fn run(&self, spec: &RegionSpec, fleet_name: &str) -> RegionRunOutput {
        self.run_observed(spec, fleet_name, &NullObserver)
    }

    /// [`run`](Self::run) with a progress observer for the ring jobs.
    pub fn run_observed(
        &self,
        spec: &RegionSpec,
        fleet_name: &str,
        observer: &dyn FleetObserver,
    ) -> RegionRunOutput {
        let spec = self.effective_spec(spec);
        let plan = build_region_plan(&spec);

        let mut fleet = FleetPlan::new(spec.seed);
        for (i, ring) in spec.rings.iter().enumerate() {
            let chaos = match &self.chaos_ring {
                Some(target) if target != &ring.name => ChaosPlan::default(),
                _ => self.chaos.clone(),
            };
            let overrides = ExperimentOverrides {
                directed: Some(plan.rings[i].schedule.clone()),
                chaos,
                ..ExperimentOverrides::default()
            };
            fleet.add_pinned(ring.name.clone(), plan.rings[i].scenario.clone(), overrides);
        }
        if self.trace {
            fleet.trace_all();
        }

        let executor = FleetExecutor::new(self.threads);
        let report = executor.run(fleet.jobs(), observer);

        let mut ring_records = Vec::new();
        let mut entries = Vec::new();
        let mut sidecars = Vec::new();
        let mut region_kpis = toto_telemetry::kpi::KpiSummary::default();
        let mut region_revenue = toto_telemetry::revenue::RevenueBreakdown::default();
        let mut oracle_violations = 0;
        for (i, (job, ring)) in fleet.jobs().iter().zip(&spec.rings).enumerate() {
            let Some(out) = report.jobs[i].outcome.output() else {
                continue;
            };
            let record = RunRecord::from_result(&job.label, job.seed, &out.result);
            entries.push(RingEntry {
                name: ring.name.clone(),
                density_percent: ring.density_percent,
                node_count: ring.node_count,
                start_hour: ring.start_hour,
                decommission_hour: ring.decommission_hour,
                kpis: record.kpis,
                revenue: record.revenue,
                stats: plan.stats[i].clone(),
                directed_creates: plan.rings[i].schedule.create_count() as u64,
                directed_drops: plan.rings[i].schedule.drop_count() as u64,
            });
            region_kpis.accumulate(&record.kpis);
            region_revenue.add(&record.revenue);
            if let Some(chaos) = &out.result.chaos {
                oracle_violations += chaos.oracle_violations;
            }
            sidecars.push(RingSidecars {
                label: job.label.clone(),
                trace: out.trace.clone(),
                chaos_json: out.result.chaos.as_ref().map(|c| c.to_json()),
            });
            ring_records.push(record);
        }

        let record = RegionRunRecord {
            schema_version: REGION_SCHEMA_VERSION,
            region: spec.name.clone(),
            seed: spec.seed,
            policy: spec.policy.name().to_string(),
            duration_hours: spec.duration_hours,
            rings: entries,
            region_kpis,
            region_revenue,
            cross_ring_redirects: plan.redirects.len() as u64,
            out_of_region: plan.out_of_region,
        };
        let manifest = FleetManifest {
            schema_version: RUN_SCHEMA_VERSION,
            fleet: fleet_name.to_string(),
            root_seed: spec.seed,
            threads: report.threads as u64,
            wall_secs: report.wall_secs,
            jobs: report
                .jobs
                .iter()
                .map(|j| ManifestJob {
                    label: j.label.clone(),
                    seed: j.seed,
                    status: j.outcome.status().to_string(),
                    wall_secs: j.wall_secs,
                })
                .collect(),
        };
        RegionRunOutput {
            plan,
            record,
            ring_records,
            manifest,
            sidecars,
            all_completed: report.all_completed(),
            oracle_violations,
        }
    }
}

/// Persist a region run: manifest + per-ring records, per-ring trace and
/// chaos sidecars, the region record (`region.json`) and the region
/// control-plane trace (`region.trace`). Returns the fleet directory.
pub fn save_region_run(
    store: &RunStore,
    output: &RegionRunOutput,
) -> std::io::Result<std::path::PathBuf> {
    let fleet = &output.manifest.fleet;
    let dir = store.save_fleet(&output.manifest, &output.ring_records)?;
    for sidecar in &output.sidecars {
        if let Some(trace) = &sidecar.trace {
            store.save_trace(fleet, &sidecar.label, trace)?;
        }
        if let Some(chaos) = &sidecar.chaos_json {
            store.save_chaos(fleet, &sidecar.label, chaos)?;
        }
    }
    store.save_artifact(
        fleet,
        REGION_RECORD_FILE,
        output.record.to_json().render().as_bytes(),
    )?;
    store.save_artifact(fleet, REGION_TRACE_FILE, &output.plan.trace)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RegionSpec {
        let mut spec = RegionSpec::named("ci2").unwrap();
        spec.duration_hours = 2;
        spec
    }

    #[test]
    fn region_run_aggregates_rings() {
        let runner = RegionRunner::default();
        let out = runner.run(&tiny_spec(), "test-region");
        assert!(out.all_completed);
        assert_eq!(out.ring_records.len(), 2);
        let summed: f64 = out.record.rings.iter().map(|r| r.revenue.adjusted()).sum();
        assert!(
            (out.record.region_revenue.adjusted() - summed).abs() < 1e-6,
            "region adjusted revenue must be the sum of ring revenues"
        );
        assert_eq!(
            out.record.region_kpis.final_reserved_cores,
            out.record
                .rings
                .iter()
                .map(|r| r.kpis.final_reserved_cores)
                .sum::<f64>()
        );
    }

    #[test]
    fn chaos_decommission_promotes_to_ring_lifecycle() {
        let runner = RegionRunner {
            chaos: ChaosPlan::named("decommission").unwrap(),
            chaos_ring: Some("east".to_string()),
            ..RegionRunner::default()
        };
        let effective = runner.effective_spec(&RegionSpec::named("ci2").unwrap());
        assert_eq!(effective.rings[0].decommission_hour, Some(2));
        assert_eq!(effective.rings[1].decommission_hour, None);
    }

    #[test]
    #[should_panic(expected = "unknown ring")]
    fn chaos_target_must_name_a_ring() {
        let runner = RegionRunner {
            chaos: ChaosPlan::named("node-crash").unwrap(),
            chaos_ring: Some("nowhere".to_string()),
            ..RegionRunner::default()
        };
        let _ = runner.effective_spec(&RegionSpec::named("ci2").unwrap());
    }
}
