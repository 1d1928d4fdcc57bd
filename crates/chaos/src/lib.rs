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
//!   list and its built-in named plans. `FaultSpec` is the only fault
//!   type, from the named plan to the injection.
//! * [`oracle`] — [`InvariantOracle`]: four cross-cutting safety
//!   properties checked after every dispatched event while chaos is
//!   active. Faults may degrade KPIs; they must never break these.
//! * [`report`] / [`runtime`] — per-fault KPI accounting
//!   ([`ChaosReport`]) and the seeded run-time state
//!   ([`ChaosRuntime`]): the chaos RNG, the open degrade and loss-window
//!   slots, the oracle.
//!
//! The experiment runner (crates/core) owns the actual injection: it
//! schedules each declared fault's events itself — one drain per node
//! of a rolling restart, a degrade's restore, both ends of a report-loss
//! window — and calls the fabric entry points (`Plb::crash_node`,
//! `Plb::drain_node`, `Cluster::set_metric_capacity`, report suppression
//! at the RgManager boundary). This crate deliberately contains no event
//! handlers — it only decides *what* and *when*, never executes.

pub mod oracle;
pub mod plan;
pub mod report;
pub mod runtime;

pub use oracle::{InvariantOracle, OracleViolation};
pub use plan::{ChaosPlan, FaultSpec};
pub use report::{ChaosFaultRecord, ChaosReport};
pub use runtime::{chaos_seed, ChaosRuntime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_plans_resolve_and_are_non_empty() {
        for name in ChaosPlan::NAMED {
            let plan = ChaosPlan::named(name).expect("built-in plan");
            assert!(!plan.is_empty(), "{name} is empty");
        }
        assert!(ChaosPlan::named("no-such-plan").is_none());
        assert!(ChaosPlan::default().is_empty());
    }
}
