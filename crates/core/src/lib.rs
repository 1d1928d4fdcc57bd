//! # Toto — benchmarking the efficiency of an orchestrated cloud service
//!
//! A from-scratch reproduction of *Toto — Benchmarking the Efficiency of a
//! Cloud Service* (Moeller, Ye, Lin, Lang — SIGMOD 2021). Toto measures
//! how efficiently a cloud database service co-locates customers by
//! **hijacking the resource-metric reporting path**: instead of running
//! SQL workloads, per-node resource governors ([`toto_rgmanager`]) answer
//! metric RPCs by sampling statistical models of production behaviour, and
//! a [`population::PopulationManager`] drives database create/drop churn.
//! The cluster orchestrator ([`toto_fabric`]) reacts exactly as it would
//! in production — placing, balancing and failing over replicas — so the
//! efficiency/QoS trade-off of any configuration can be measured reliably
//! and repeatably.
//!
//! ## Quick start
//!
//! ```
//! use toto::experiment::{DensityExperiment, ExperimentOverrides};
//! use toto_spec::ScenarioSpec;
//!
//! // A shortened run of the paper's gen5 stage-cluster scenario.
//! let mut scenario = ScenarioSpec::gen5_stage_cluster(110);
//! scenario.duration_hours = 6;
//! let result = DensityExperiment::new(scenario, ExperimentOverrides::default()).run();
//! assert!(result.final_reserved_cores > 0.0);
//! println!(
//!     "reserved {:.0} cores, {} failovers, ${:.0} adjusted revenue",
//!     result.final_reserved_cores,
//!     result.telemetry.failover_count(None),
//!     result.revenue.adjusted(),
//! );
//! ```
//!
//! ## Layout
//!
//! * [`defaults`] — the gen5 model parameters ("trained" on the synthetic
//!   production traces of [`toto_telemetry::synth`]).
//! * [`bootstrap`] — the Table-2 initial population builder.
//! * [`population`] — the Population Manager (§3.3.3).
//! * [`experiment`] — the density-study experiment runner (§5).

pub mod bootstrap;
pub mod defaults;
pub mod directed;
pub mod experiment;
pub mod pools;
pub mod population;

pub use directed::{DirectedAction, DirectedEvent, DirectedSchedule};
pub use experiment::{DensityExperiment, ExperimentOverrides, ExperimentResult};
pub use population::PopulationManager;

#[cfg(test)]
mod tests {
    use crate::experiment::{fault_step_hours, DensityExperiment, ExperimentOverrides};
    use toto_chaos::{ChaosPlan, ChaosReport, FaultSpec};
    use toto_spec::{ResourceKind, ScenarioSpec};

    fn chaos_run(plan: ChaosPlan, hours: u64) -> ChaosReport {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(100);
        scenario.duration_hours = hours;
        let overrides = ExperimentOverrides {
            chaos: plan,
            ..ExperimentOverrides::default()
        };
        DensityExperiment::new(scenario, overrides)
            .run()
            .chaos
            .expect("chaos report present")
    }

    #[test]
    fn compile_expands_sorts_and_clips() {
        let degrade = FaultSpec::CapacityDegrade {
            at_hour: 5,
            resource: ResourceKind::Disk,
            factor: 0.9,
            restore_hour: Some(8),
        };
        let rolling = FaultSpec::RollingRestart {
            start_hour: 1,
            downtime_hours: 2,
        };
        let crash = FaultSpec::NodeCrash {
            at_hour: 200,
            downtime_secs: 600,
        };
        // A rolling restart expands to one drain per node; a degrade
        // with a restore hour to both of its ends.
        assert_eq!(fault_step_hours(rolling, 3), vec![1, 3, 5]);
        assert_eq!(fault_step_hours(degrade, 3), vec![5, 8]);
        assert_eq!(fault_step_hours(crash, 3), vec![200]);

        let chaos = chaos_run(
            ChaosPlan {
                faults: vec![degrade, rolling, crash],
            },
            9,
        );
        assert_eq!(chaos.oracle_violations, 0);
        // Drains at hours 1, 3, 5 and 7; the hour-9 drain falls on the
        // end of the 9-hour run and the hour-200 crash past it. At the
        // hour-5 tie the degrade fires first: it is declared first.
        let fired: Vec<(u64, &str, Option<u32>)> = chaos
            .faults
            .iter()
            .map(|f| {
                (
                    f.at_secs / 3600,
                    f.kind.trim_end_matches("_blocked"),
                    f.node,
                )
            })
            .collect();
        assert_eq!(
            fired,
            vec![
                (1, "drain", Some(0)),
                (3, "drain", Some(1)),
                (5, "capacity_degrade:Disk", None),
                (5, "drain", Some(2)),
                (7, "drain", Some(3)),
            ]
        );
        // The hour-8 restore fires inside the run and closes the degrade.
        assert_eq!(chaos.faults[2].recovery_secs, Some(3 * 3600));
    }

    #[test]
    fn report_loss_window_compiles_to_start_and_end() {
        let window = FaultSpec::ReportLoss {
            from_hour: 2,
            to_hour: 4,
            drop_probability: 0.25,
        };
        assert_eq!(fault_step_hours(window, 4), vec![2, 4]);
        let chaos = chaos_run(
            ChaosPlan {
                faults: vec![window],
            },
            6,
        );
        assert_eq!(chaos.oracle_violations, 0);
        // One record: the window opens at its start and its end closes it.
        assert_eq!(chaos.faults.len(), 1);
        let rec = &chaos.faults[0];
        assert_eq!((rec.at_secs, rec.kind.as_str()), (2 * 3600, "report_loss"));
        assert_eq!(rec.recovery_secs, Some(2 * 3600));
    }
}
