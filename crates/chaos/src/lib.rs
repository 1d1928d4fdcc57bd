//! Deterministic fault injection for the Toto reproduction.
//!
//! The paper's density study ran on a live staging cluster where faults
//! — maintenance upgrades, node failures — *happened to* the experiment
//! ("the outliers at each density level are when a cluster maintenance
//! upgrade was occurring", §5.3.2). The simulator can do better: inject
//! faults **on purpose**, from a declarative [`ChaosPlan`], with every
//! nondeterministic choice (which node dies, which report is lost)
//! drawn from a labelled seed stream so that a `(spec, seed)` pair
//! replays byte-identically.
//!
//! The crate has three parts:
//!
//! * [`plan`] — [`ChaosPlan`] / [`FaultSpec`]: the declarative fault
//!   list and its built-in named plans, plus compilation into primitive
//!   time-sorted [`ChaosAction`]s.
//! * [`oracle`] — [`InvariantOracle`]: four cross-cutting safety
//!   properties checked after every dispatched event while chaos is
//!   active. Faults may degrade KPIs; they must never break these.
//! * [`report`] / [`runtime`] — per-fault KPI accounting
//!   ([`ChaosReport`]) and the seeded run-time state
//!   ([`ChaosRuntime`]).
//!
//! The experiment runner (crates/core) owns the actual injection: it
//! schedules one simulation event per compiled action and calls the
//! fabric entry points (`Plb::crash_node`, `Plb::drain_node`,
//! `Cluster::set_metric_capacity`, report suppression at the RgManager
//! boundary). This crate deliberately contains no event handlers — it
//! only decides *what* and *when*, never executes.

pub mod oracle;
pub mod plan;
pub mod report;
pub mod runtime;

pub use oracle::{InvariantOracle, OracleViolation};
pub use plan::{ChaosAction, ChaosPlan, FaultSpec, ScheduledFault};
pub use report::{ChaosFaultRecord, ChaosReport};
pub use runtime::{chaos_seed, ChaosRuntime};

#[cfg(test)]
mod tests {
    use super::*;
    use toto_spec::ResourceKind;

    #[test]
    fn named_plans_resolve_and_are_non_empty() {
        for name in ChaosPlan::NAMED {
            let plan = ChaosPlan::named(name).expect("built-in plan");
            assert!(!plan.is_empty(), "{name} is empty");
        }
        assert!(ChaosPlan::named("no-such-plan").is_none());
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = ChaosPlan::default();
        assert!(plan.is_empty());
        assert!(plan.compile(14, 144).is_empty());
    }

    #[test]
    fn compile_expands_sorts_and_clips() {
        let plan = ChaosPlan {
            faults: vec![
                FaultSpec::CapacityDegrade {
                    at_hour: 5,
                    resource: ResourceKind::Disk,
                    factor: 0.9,
                    restore_hour: Some(8),
                },
                FaultSpec::RollingRestart {
                    start_hour: 1,
                    downtime_hours: 2,
                },
                FaultSpec::NodeCrash {
                    at_hour: 200,
                    node: None,
                    downtime_secs: 600,
                },
            ],
        };
        let actions = plan.compile(3, 10);
        // Rolling restart expands to one drain per node (hours 1, 3, 5);
        // at the hour-5 tie the degrade fires first (declared first);
        // the hour-200 crash is clipped by the 10-hour duration.
        let times: Vec<u64> = actions.iter().map(|a| a.at_secs / 3600).collect();
        assert_eq!(times, vec![1, 3, 5, 5, 8]);
        assert!(matches!(
            actions[2].action,
            ChaosAction::Degrade {
                resource: ResourceKind::Disk,
                ..
            }
        ));
        assert!(matches!(
            actions[3].action,
            ChaosAction::Drain { node: 2, .. }
        ));
        assert!(matches!(
            actions[4].action,
            ChaosAction::RestoreCapacity {
                resource: ResourceKind::Disk
            }
        ));
    }

    #[test]
    fn report_loss_window_compiles_to_start_and_end() {
        let plan = ChaosPlan {
            faults: vec![FaultSpec::ReportLoss {
                from_hour: 2,
                to_hour: 4,
                drop_probability: 0.25,
            }],
        };
        let actions = plan.compile(4, 6);
        assert_eq!(actions.len(), 2);
        assert!(
            matches!(actions[0].action, ChaosAction::ReportLossStart { drop_probability } if drop_probability == 0.25)
        );
        assert_eq!(actions[1].action, ChaosAction::ReportLossEnd);
    }
}
