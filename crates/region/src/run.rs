//! Phases B and C: execute a region plan as parallel per-ring fleet
//! jobs, then aggregate into the region run record. The ring jobs' own
//! artifacts (manifest, records, sidecars) are stored like any fleet's,
//! through `RunStore::save_run` on [`RegionRunOutput::report`].
//!
//! Phase A ([`crate::plan`]) already decided every routing and lifecycle
//! event, so each ring job is a self-contained directed experiment —
//! a pure function of its descriptor — and the fleet executor can run
//! rings on any number of worker threads with byte-identical artifacts.

use toto::experiment::ExperimentOverrides;
use toto_chaos::{ChaosPlan, FaultSpec};
use toto_fleet::{FleetExecutor, FleetObserver, FleetPlan, FleetReport, JobOutput, NullObserver};

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

/// Everything a region run produces.
#[derive(Debug)]
pub struct RegionRunOutput {
    /// The Phase A decisions (schedules, attribution, region trace).
    pub plan: RegionPlan,
    /// The aggregated region record.
    pub record: RegionRunRecord,
    /// The Phase B ring jobs as the fleet executor reported them, spec
    /// order: each ring's result, trace and chaos report, stored with
    /// `RunStore::save_run`.
    pub report: FleetReport<JobOutput>,
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
    /// jobs, Phase C aggregation.
    pub fn run(&self, spec: &RegionSpec) -> RegionRunOutput {
        self.run_observed(spec, &NullObserver)
    }

    /// [`run`](Self::run) with a progress observer for the ring jobs.
    pub fn run_observed(&self, spec: &RegionSpec, observer: &dyn FleetObserver) -> RegionRunOutput {
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

        let mut entries = Vec::new();
        let mut region_kpis = toto_telemetry::kpi::KpiSummary::default();
        let mut region_revenue = toto_telemetry::revenue::RevenueBreakdown::default();
        for (job, out) in report.completed() {
            let i = job.index;
            let ring = &spec.rings[i];
            let kpis = out.result.telemetry.summarize();
            let revenue = out.result.revenue;
            entries.push(RingEntry {
                name: ring.name.clone(),
                density_percent: ring.density_percent,
                node_count: ring.node_count,
                start_hour: ring.start_hour,
                decommission_hour: ring.decommission_hour,
                kpis,
                revenue,
                stats: plan.stats[i].clone(),
                directed_creates: plan.rings[i].schedule.create_count() as u64,
                directed_drops: plan.rings[i].schedule.drop_count() as u64,
            });
            region_kpis.accumulate(&kpis);
            region_revenue.add(&revenue);
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
        RegionRunOutput {
            plan,
            record,
            report,
        }
    }
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
        let out = runner.run(&tiny_spec());
        assert!(out.report.all_completed());
        assert_eq!(out.record.rings.len(), 2);
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
