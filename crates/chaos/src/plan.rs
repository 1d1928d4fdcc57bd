//! Declarative fault-injection plans.
//!
//! A [`ChaosPlan`] is part of the experiment configuration: a list of
//! [`FaultSpec`]s pinned to hours of the run. A scenario picks one of the
//! built-in plans by name ([`ChaosPlan::named`], `[chaos] plan = "…"`),
//! and everything a plan leaves unresolved — e.g. *which* node crashes —
//! is decided at injection time from the experiment's seeded chaos RNG
//! stream, so a `(spec, seed)` pair replays byte-identically.
//!
//! Plans are compiled ([`ChaosPlan::compile`]) into a flat, time-sorted
//! list of primitive [`ChaosAction`]s before the run starts; the runner
//! schedules one simulation event per action.

use toto_spec::ResourceKind;

/// One declared fault. Hours are offsets from experiment start.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// A node crashes (abrupt, no drain) and restarts after
    /// `downtime_secs`. `node: None` lets the chaos RNG pick an up node
    /// at injection time.
    NodeCrash {
        /// Hour the crash fires.
        at_hour: u64,
        /// Fixed victim, or `None` for a seeded pick among up nodes.
        node: Option<u32>,
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
    /// Permanent decommission: the node is drained and never comes back.
    /// A drain blocked by a last-replica conflict refuses the
    /// decommission (recorded, not forced).
    Decommission {
        /// Hour the decommission fires.
        at_hour: u64,
        /// Fixed victim, or `None` for a seeded pick among up nodes.
        node: Option<u32>,
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

/// A primitive, time-pinned injection produced by [`ChaosPlan::compile`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledFault {
    /// Seconds from experiment start.
    pub at_secs: u64,
    /// What to inject.
    pub action: ChaosAction,
}

/// The primitive actions the experiment runner knows how to inject.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosAction {
    /// Abrupt crash (+ scheduled restart after `downtime_secs`).
    Crash {
        /// Victim, or `None` for a seeded pick at injection time.
        node: Option<u32>,
        /// Seconds until restart.
        downtime_secs: u64,
    },
    /// Graceful drain (+ scheduled restart), one rolling-restart step.
    Drain {
        /// Node to drain.
        node: u32,
        /// Seconds until restart.
        downtime_secs: u64,
    },
    /// Drain with no restart.
    Decommission {
        /// Victim, or `None` for a seeded pick at injection time.
        node: Option<u32>,
    },
    /// Shrink a resource's per-node capacity to `factor` × configured.
    Degrade {
        /// Which metric shrinks.
        resource: ResourceKind,
        /// Multiplier in (0, 1].
        factor: f64,
    },
    /// Undo a [`ChaosAction::Degrade`] for the same resource.
    RestoreCapacity {
        /// Which metric recovers.
        resource: ResourceKind,
    },
    /// Open a report-loss window.
    ReportLossStart {
        /// Per-report drop probability in [0, 1].
        drop_probability: f64,
    },
    /// Close the report-loss window.
    ReportLossEnd,
    /// Simultaneous crash of `node_count` distinct up nodes.
    Storm {
        /// How many nodes go down.
        node_count: u32,
        /// Seconds until all restart.
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
                node: None,
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
            "decommission" => vec![FaultSpec::Decommission {
                at_hour: 2,
                node: None,
            }],
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

    /// Expand the plan into primitive actions for a run of
    /// `duration_hours` on `node_count` nodes, sorted by time (stable:
    /// ties fire in declaration order). Actions at or past the end of
    /// the run are dropped.
    pub fn compile(&self, node_count: u32, duration_hours: u64) -> Vec<ScheduledFault> {
        let end_secs = duration_hours * 3600;
        let mut out: Vec<ScheduledFault> = Vec::new();
        for fault in &self.faults {
            match fault {
                FaultSpec::NodeCrash {
                    at_hour,
                    node,
                    downtime_secs,
                } => out.push(ScheduledFault {
                    at_secs: at_hour * 3600,
                    action: ChaosAction::Crash {
                        node: *node,
                        downtime_secs: *downtime_secs,
                    },
                }),
                FaultSpec::RollingRestart {
                    start_hour,
                    downtime_hours,
                } => {
                    for i in 0..u64::from(node_count) {
                        out.push(ScheduledFault {
                            at_secs: (start_hour + i * downtime_hours) * 3600,
                            action: ChaosAction::Drain {
                                node: i as u32,
                                downtime_secs: downtime_hours * 3600,
                            },
                        });
                    }
                }
                FaultSpec::Decommission { at_hour, node } => out.push(ScheduledFault {
                    at_secs: at_hour * 3600,
                    action: ChaosAction::Decommission { node: *node },
                }),
                FaultSpec::CapacityDegrade {
                    at_hour,
                    resource,
                    factor,
                    restore_hour,
                } => {
                    out.push(ScheduledFault {
                        at_secs: at_hour * 3600,
                        action: ChaosAction::Degrade {
                            resource: *resource,
                            factor: *factor,
                        },
                    });
                    if let Some(restore) = restore_hour {
                        out.push(ScheduledFault {
                            at_secs: restore * 3600,
                            action: ChaosAction::RestoreCapacity {
                                resource: *resource,
                            },
                        });
                    }
                }
                FaultSpec::ReportLoss {
                    from_hour,
                    to_hour,
                    drop_probability,
                } => {
                    out.push(ScheduledFault {
                        at_secs: from_hour * 3600,
                        action: ChaosAction::ReportLossStart {
                            drop_probability: *drop_probability,
                        },
                    });
                    out.push(ScheduledFault {
                        at_secs: to_hour * 3600,
                        action: ChaosAction::ReportLossEnd,
                    });
                }
                FaultSpec::FailoverStorm {
                    at_hour,
                    node_count: k,
                    downtime_secs,
                } => out.push(ScheduledFault {
                    at_secs: at_hour * 3600,
                    action: ChaosAction::Storm {
                        node_count: *k,
                        downtime_secs: *downtime_secs,
                    },
                }),
            }
        }
        out.retain(|f| f.at_secs < end_secs);
        out.sort_by_key(|f| f.at_secs);
        out
    }
}
