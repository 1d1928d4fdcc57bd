//! Declarative fault-injection plans.
//!
//! A [`ChaosPlan`] is part of the experiment configuration: a list of
//! [`FaultSpec`]s pinned to hours of the run. A scenario picks one of the
//! built-in plans by name ([`ChaosPlan::named`], `[chaos] plan = "…"`),
//! and everything a plan leaves unresolved — e.g. *which* node crashes —
//! is decided at injection time from the experiment's seeded chaos RNG
//! stream, so a `(spec, seed)` pair replays byte-identically.
//!
//! A [`FaultSpec`] is the only fault type: the experiment runner
//! schedules each declared fault's events itself (one per rolling-restart
//! node, a degrade's restore, both ends of a report-loss window).

use toto_spec::ResourceKind;

/// One declared fault. Hours are offsets from experiment start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// A node crashes (abrupt, no drain) and restarts after
    /// `downtime_secs`. The chaos RNG picks the victim among up nodes at
    /// injection time.
    NodeCrash {
        /// Hour the crash fires.
        at_hour: u64,
        /// Seconds until the node comes back.
        downtime_secs: u64,
    },
    /// Upgrade-domain style rolling restart: node 0, 1, 2, … are each
    /// drained for `downtime_hours` in turn, like the paper's cluster
    /// maintenance upgrades (§5.3.2).
    RollingRestart {
        /// Hour the first node is drained.
        start_hour: u64,
        /// Per-node downtime (also the stagger between nodes).
        downtime_hours: u64,
    },
    /// Permanent decommission: a seeded pick among up nodes is drained
    /// and never comes back. A drain blocked by a last-replica conflict
    /// refuses the decommission (recorded, not forced).
    Decommission {
        /// Hour the decommission fires.
        at_hour: u64,
    },
    /// Shrink one resource's per-node logical capacity to
    /// `factor` × its configured value, optionally restoring later.
    CapacityDegrade {
        /// Hour the degrade fires.
        at_hour: u64,
        /// Which metric's capacity shrinks.
        resource: ResourceKind,
        /// Multiplier in (0, 1] applied to the configured capacity.
        factor: f64,
        /// Hour the original capacity is restored (`None` = never).
        restore_hour: Option<u64>,
    },
    /// Metric-report loss at the RgManager boundary: during the window
    /// each per-replica report is dropped with `drop_probability`. The
    /// PLB then keeps acting on the stale previous value, so a loss is
    /// equivalent to delaying that replica's report by one period.
    ReportLoss {
        /// Hour the lossy window opens.
        from_hour: u64,
        /// Hour the window closes.
        to_hour: u64,
        /// Per-report drop probability in [0, 1].
        drop_probability: f64,
    },
    /// Correlated failover storm: `node_count` distinct up nodes crash
    /// simultaneously and all restart after `downtime_secs`.
    FailoverStorm {
        /// Hour the storm fires.
        at_hour: u64,
        /// How many nodes go down at once.
        node_count: u32,
        /// Seconds until the nodes come back.
        downtime_secs: u64,
    },
}

/// A fault-injection plan: the chaos section of an experiment spec.
///
/// The default plan is empty; an empty plan injects nothing, draws
/// nothing from any RNG and leaves the run bitwise identical to a run
/// without chaos support at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Declared faults, in declaration order.
    pub faults: Vec<FaultSpec>,
}

impl ChaosPlan {
    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Built-in named plans (a scenario's `[chaos] plan = "<name>"`).
    ///
    /// Returns `None` for unknown names; [`ChaosPlan::NAMED`] lists the
    /// valid ones.
    pub fn named(name: &str) -> Option<ChaosPlan> {
        let faults = match name {
            "node-crash" => vec![FaultSpec::NodeCrash {
                at_hour: 2,
                downtime_secs: 1800,
            }],
            "storm" => vec![FaultSpec::FailoverStorm {
                at_hour: 2,
                node_count: 3,
                downtime_secs: 1200,
            }],
            "degrade" => vec![FaultSpec::CapacityDegrade {
                at_hour: 1,
                resource: ResourceKind::Disk,
                factor: 0.85,
                restore_hour: Some(4),
            }],
            "report-loss" => vec![FaultSpec::ReportLoss {
                from_hour: 1,
                to_hour: 4,
                drop_probability: 0.5,
            }],
            "rolling" => vec![FaultSpec::RollingRestart {
                start_hour: 1,
                downtime_hours: 1,
            }],
            "decommission" => vec![FaultSpec::Decommission { at_hour: 2 }],
            _ => return None,
        };
        Some(ChaosPlan { faults })
    }

    /// Names accepted by [`ChaosPlan::named`].
    pub const NAMED: [&'static str; 6] = [
        "node-crash",
        "storm",
        "degrade",
        "report-loss",
        "rolling",
        "decommission",
    ];
}
