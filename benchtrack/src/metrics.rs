//! The metric catalog. `BENCHMARK.json` declares the same names, units
//! and directions (its bounds live only there); a test keeps the two in
//! step.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// Parse the `BENCHMARK.json` spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric: name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and declared.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// The end-to-end metrics (tracing off), in output order.
pub const END_TO_END: [Metric; 5] = [
    metric("wall_s", "s", Better::Lower),
    metric("setup_s", "s", Better::Lower),
    metric("replica_reports_per_s", "reports/s", Better::Higher),
    metric("cpu_s", "s", Better::Lower),
    metric("peak_rss_mib", "MiB", Better::Lower),
];

/// A per-layer metric and, except for the profile's own health
/// metrics, the end-to-end metric and workload it should move. The
/// layer is the name's prefix before the first `.`.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Name, unit, direction.
    pub metric: Metric,
    /// `(end-to-end metric, workload)` this metric should move.
    pub moves: Option<(&'static str, &'static str)>,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        metric: metric(name, unit, better),
        moves: Some((moves, on)),
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics (traced run), in output order.
pub const PER_LAYER: &[LayerMetric] = &[
    lm("scenario.compile_ms", "ms", Lower, "setup_s", "ladder"),
    lm("scenario.ks_gate_ms", "ms", Lower, "setup_s", "ladder"),
    lm("scenario.share", "ratio", Lower, "setup_s", "ladder"),
    lm("fleet.jobs", "count", Higher, "wall_s", "ladder"),
    lm("fleet.busy_ratio", "ratio", Higher, "wall_s", "ladder"),
    lm("fleet.store_ms", "ms", Lower, "wall_s", "smoke_traced"),
    lm("fleet.share", "ratio", Lower, "wall_s", "smoke_traced"),
    lm("bootstrap.ms", "ms", Lower, "setup_s", "boot_1k"),
    lm("bootstrap.share", "ratio", Lower, "setup_s", "boot_1k"),
    lm("plb.placements", "count", Higher, "setup_s", "boot_1k"),
    lm("plb.rejections", "count", Lower, "wall_s", "ladder"),
    lm(
        "plb.anneal_iterations",
        "count",
        Lower,
        "setup_s",
        "boot_1k",
    ),
    lm(
        "plb.anneal_accept_ratio",
        "ratio",
        Higher,
        "setup_s",
        "boot_1k",
    ),
    lm("plb.failovers", "count", Lower, "wall_s", "ladder"),
    lm("plb.unresolved", "count", Lower, "wall_s", "ladder"),
    lm("plb.place_us", "us", Lower, "setup_s", "boot_1k"),
    lm("plb.place_share", "ratio", Lower, "setup_s", "boot_1k"),
    lm("plb.tick_share", "ratio", Lower, "wall_s", "ladder"),
    lm(
        "plb.place_bc_x4_ring_100_ns",
        "ns",
        Lower,
        "setup_s",
        "smoke_traced",
    ),
    lm(
        "plb.place_bc_x4_ring_1000_ns",
        "ns",
        Lower,
        "setup_s",
        "boot_1k",
    ),
    lm(
        "plb.violation_scan_ring_100_ns",
        "ns",
        Lower,
        "wall_s",
        "storm_smoke",
    ),
    lm(
        "plb.violation_scan_ring_1000_ns",
        "ns",
        Lower,
        "wall_s",
        "boot_1k",
    ),
    lm(
        "plb.fix_violations_ring_100_ns",
        "ns",
        Lower,
        "wall_s",
        "storm_smoke",
    ),
    lm(
        "plb.fix_violations_ring_1000_ns",
        "ns",
        Lower,
        "wall_s",
        "boot_1k",
    ),
    lm(
        "rgmanager.reports",
        "count",
        Higher,
        "replica_reports_per_s",
        "smoke_traced",
    ),
    lm(
        "rgmanager.report_ns",
        "ns",
        Lower,
        "replica_reports_per_s",
        "boot_1k",
    ),
    lm(
        "rgmanager.report_share",
        "ratio",
        Lower,
        "replica_reports_per_s",
        "ladder",
    ),
    lm(
        "rgmanager.model_compiles",
        "count",
        Lower,
        "setup_s",
        "boot_1k",
    ),
    lm("rgmanager.compile_ms", "ms", Lower, "setup_s", "boot_1k"),
    lm(
        "rgmanager.compile_share",
        "ratio",
        Lower,
        "setup_s",
        "boot_1k",
    ),
    lm(
        "naming.writes",
        "count",
        Lower,
        "replica_reports_per_s",
        "smoke_traced",
    ),
    lm(
        "naming.deletes",
        "count",
        Lower,
        "replica_reports_per_s",
        "storm_smoke",
    ),
    lm("controlplane.admitted", "count", Higher, "wall_s", "ladder"),
    lm(
        "controlplane.redirected",
        "count",
        Lower,
        "wall_s",
        "ladder",
    ),
    lm(
        "controlplane.redirect_ratio",
        "ratio",
        Lower,
        "wall_s",
        "ladder",
    ),
    lm("population.creates", "count", Higher, "wall_s", "ladder"),
    lm("population.drops", "count", Higher, "wall_s", "storm_smoke"),
    lm(
        "population.create_share",
        "ratio",
        Lower,
        "wall_s",
        "ladder",
    ),
    lm(
        "population.drop_share",
        "ratio",
        Lower,
        "wall_s",
        "storm_smoke",
    ),
    lm(
        "simcore.dispatches",
        "count",
        Lower,
        "wall_s",
        "storm_smoke",
    ),
    lm(
        "simcore.quiet_share",
        "ratio",
        Lower,
        "wall_s",
        "storm_smoke",
    ),
    lm(
        "chaos.oracle_checks",
        "count",
        Higher,
        "wall_s",
        "storm_smoke",
    ),
    lm(
        "chaos.oracle_violations",
        "count",
        Lower,
        "wall_s",
        "storm_smoke",
    ),
    lm("chaos.fault_share", "ratio", Lower, "wall_s", "storm_smoke"),
    lm("chaos.check_us", "us", Lower, "wall_s", "storm_smoke"),
    lm("trace.events", "count", Lower, "wall_s", "smoke_traced"),
    lm(
        "trace.bytes",
        "bytes",
        Lower,
        "peak_rss_mib",
        "smoke_traced",
    ),
    lm(
        "trace.encode_share",
        "ratio",
        Lower,
        "wall_s",
        "smoke_traced",
    ),
    lm("experiment.score_share", "ratio", Lower, "wall_s", "ladder"),
    LayerMetric {
        metric: metric("profile.coverage", "ratio", Higher),
        moves: None,
    },
    LayerMetric {
        metric: metric("profile.overhead", "ratio", Lower),
        moves: None,
    },
];
