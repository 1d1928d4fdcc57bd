//! KPI collection for benchmark runs.

use toto_simcore::time::SimTime;
use toto_spec::EditionKind;

/// An append-only time series of `(time, value)` points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point; time must be non-decreasing.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some((last, _)) = self.points.last() {
            assert!(time >= *last, "time series must be appended in order");
        }
        self.points.push((time, value));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Just the values.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|(_, v)| *v).collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }
}

/// One failover, enriched with what the QoS analysis needs.
#[derive(Clone, Debug, PartialEq)]
pub struct FailoverRecord {
    /// When it happened.
    pub time: SimTime,
    /// Raw service id.
    pub service: u64,
    /// Edition of the moved database.
    pub edition: EditionKind,
    /// Reserved cores of the moved replica ("customer capacity (in
    /// cores) that had to be moved", §1/Figure 2).
    pub cores_moved: f64,
    /// Disk carried by the replica at move time, GB (moving big BC
    /// replicas "is much more costly due to the higher disk usage").
    pub disk_gb: f64,
    /// Whether the moved replica was the primary (customer-visible).
    pub was_primary: bool,
    /// Unavailability inflicted on the database, seconds.
    pub downtime_secs: f64,
}

/// One node-level reading (for the §5.3.4 dispersion analysis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSnapshot {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// Node index.
    pub node: u32,
    /// Aggregate disk usage, GB.
    pub disk_gb: f64,
    /// Aggregate reserved cores.
    pub cores: f64,
}

/// All telemetry collected during one experiment run.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Cluster-wide reserved cores, sampled hourly (Figure 11's x-series).
    pub reserved_cores: TimeSeries,
    /// Cluster-wide disk usage GB, sampled hourly (Figure 11's y-series).
    pub disk_usage: TimeSeries,
    /// Cumulative creation redirects, sampled hourly (Figure 10).
    pub creation_redirects: TimeSeries,
    /// Every failover (Figures 12b, 13, 14).
    pub failovers: Vec<FailoverRecord>,
    /// Node-level snapshots (Figure 13).
    pub node_snapshots: Vec<NodeSnapshot>,
    /// Cumulative CPU demand throttled by node governance, in
    /// core-intervals (the density study's hidden performance tax; §5.5's
    /// RgManager-effectiveness measurement).
    pub cpu_throttling: TimeSeries,
    /// Governance passes that hit contention, cluster-wide.
    pub contended_governance_passes: u64,
    /// Databases the bootstrap phase could not place (should be zero;
    /// non-zero means the scenario over-fills the ring before the
    /// experiment even starts).
    pub bootstrap_placement_failures: u64,
}

impl Telemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total failed-over cores, optionally filtered by edition
    /// (Figure 12b splits GP vs BC).
    pub fn failed_over_cores(&self, edition: Option<EditionKind>) -> f64 {
        // `+ 0.0` normalises the IEEE negative zero an empty sum can
        // produce, which would otherwise print as "-0".
        self.failovers
            .iter()
            .filter(|f| edition.is_none_or(|e| f.edition == e))
            .map(|f| f.cores_moved)
            .sum::<f64>()
            + 0.0
    }

    /// Number of failovers, optionally filtered by edition.
    pub fn failover_count(&self, edition: Option<EditionKind>) -> usize {
        self.failovers
            .iter()
            .filter(|f| edition.is_none_or(|e| f.edition == e))
            .count()
    }

    /// Node-level values of one metric kind at all snapshot times, for
    /// the Wilcoxon comparisons: `(disk_gb, cores)` selectable by closure.
    pub fn node_values(&self, select: impl Fn(&NodeSnapshot) -> f64) -> Vec<f64> {
        self.node_snapshots.iter().map(select).collect()
    }

    /// Condense this run's telemetry into the flat KPI summary that run
    /// artifacts persist (see `toto-fleet`'s run-artifact store).
    pub fn summarize(&self) -> KpiSummary {
        KpiSummary {
            failover_count: self.failover_count(None) as u64,
            failed_over_cores: self.failed_over_cores(None),
            gp_failover_count: self.failover_count(Some(EditionKind::StandardGp)) as u64,
            bc_failover_count: self.failover_count(Some(EditionKind::PremiumBc)) as u64,
            total_downtime_secs: self.failovers.iter().map(|f| f.downtime_secs).sum::<f64>() + 0.0,
            final_reserved_cores: self.reserved_cores.last_value().unwrap_or(0.0),
            final_disk_gb: self.disk_usage.last_value().unwrap_or(0.0),
            creation_redirects: self.creation_redirects.last_value().unwrap_or(0.0) as u64,
            throttled_core_intervals: self.cpu_throttling.last_value().unwrap_or(0.0),
            contended_governance_passes: self.contended_governance_passes,
            kpi_samples: self.reserved_cores.len() as u64,
            node_snapshot_count: self.node_snapshots.len() as u64,
            bootstrap_placement_failures: self.bootstrap_placement_failures,
        }
    }
}

/// A flat, order-stable digest of one run's telemetry: everything the
/// benchmark artifact store persists per job. All fields are plain
/// numbers so records serialize deterministically and diff cleanly
/// across runs and PRs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KpiSummary {
    /// Total failovers (capacity-violation moves only).
    pub failover_count: u64,
    /// Total failed-over cores.
    pub failed_over_cores: f64,
    /// Failovers of Standard/GP databases.
    pub gp_failover_count: u64,
    /// Failovers of Premium/BC databases.
    pub bc_failover_count: u64,
    /// Sum of customer-visible downtime across all failovers, seconds.
    pub total_downtime_secs: f64,
    /// Last hourly reserved-cores sample.
    pub final_reserved_cores: f64,
    /// Last hourly cluster disk sample, GB.
    pub final_disk_gb: f64,
    /// Final cumulative creation-redirect count.
    pub creation_redirects: u64,
    /// Final cumulative throttled CPU demand, core-intervals.
    pub throttled_core_intervals: f64,
    /// Governance passes that hit contention.
    pub contended_governance_passes: u64,
    /// Number of hourly KPI samples taken.
    pub kpi_samples: u64,
    /// Number of node-level snapshots taken.
    pub node_snapshot_count: u64,
    /// Databases the bootstrap phase could not place.
    pub bootstrap_placement_failures: u64,
}

impl KpiSummary {
    /// Fold another run's summary into this one (region-level
    /// aggregation: a region's KPI summary is the field-wise sum of its
    /// rings' summaries — counts add, and the `final_*` gauges add too,
    /// because rings are disjoint capacity pools sampled at the same
    /// instant).
    pub fn accumulate(&mut self, other: &KpiSummary) {
        self.failover_count += other.failover_count;
        self.failed_over_cores += other.failed_over_cores;
        self.gp_failover_count += other.gp_failover_count;
        self.bc_failover_count += other.bc_failover_count;
        self.total_downtime_secs += other.total_downtime_secs;
        self.final_reserved_cores += other.final_reserved_cores;
        self.final_disk_gb += other.final_disk_gb;
        self.creation_redirects += other.creation_redirects;
        self.throttled_core_intervals += other.throttled_core_intervals;
        self.contended_governance_passes += other.contended_governance_passes;
        self.kpi_samples += other.kpi_samples;
        self.node_snapshot_count += other.node_snapshot_count;
        self.bootstrap_placement_failures += other.bootstrap_placement_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_ordering_enforced() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(10), 2.0); // equal is allowed
        ts.push(SimTime::from_secs(20), 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last_value(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn time_series_rejects_rewind() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(5), 2.0);
    }

    fn record(edition: EditionKind, cores: f64, service: u64) -> FailoverRecord {
        FailoverRecord {
            time: SimTime::ZERO,
            service,
            edition,
            cores_moved: cores,
            disk_gb: 10.0,
            was_primary: true,
            downtime_secs: 30.0,
        }
    }

    #[test]
    fn failover_aggregations() {
        let mut t = Telemetry::new();
        t.failovers.push(record(EditionKind::StandardGp, 4.0, 1));
        t.failovers.push(record(EditionKind::PremiumBc, 8.0, 2));
        t.failovers.push(record(EditionKind::PremiumBc, 8.0, 2));
        assert_eq!(t.failed_over_cores(None), 20.0);
        assert_eq!(t.failed_over_cores(Some(EditionKind::PremiumBc)), 16.0);
        assert_eq!(t.failover_count(Some(EditionKind::StandardGp)), 1);
    }

    #[test]
    fn node_values_projection() {
        let mut t = Telemetry::new();
        t.node_snapshots.push(NodeSnapshot {
            time: SimTime::ZERO,
            node: 0,
            disk_gb: 100.0,
            cores: 8.0,
        });
        t.node_snapshots.push(NodeSnapshot {
            time: SimTime::ZERO,
            node: 1,
            disk_gb: 50.0,
            cores: 4.0,
        });
        assert_eq!(t.node_values(|s| s.disk_gb), vec![100.0, 50.0]);
        assert_eq!(t.node_values(|s| s.cores), vec![8.0, 4.0]);
    }

    #[test]
    fn accumulate_sums_fieldwise() {
        let a = KpiSummary {
            failover_count: 2,
            failed_over_cores: 8.0,
            final_reserved_cores: 800.0,
            creation_redirects: 1,
            kpi_samples: 24,
            ..KpiSummary::default()
        };
        let b = KpiSummary {
            failover_count: 3,
            failed_over_cores: 4.0,
            final_reserved_cores: 600.0,
            kpi_samples: 24,
            ..KpiSummary::default()
        };
        let mut region = KpiSummary::default();
        region.accumulate(&a);
        region.accumulate(&b);
        assert_eq!(region.failover_count, 5);
        assert_eq!(region.failed_over_cores, 12.0);
        assert_eq!(region.final_reserved_cores, 1400.0);
        assert_eq!(region.creation_redirects, 1);
        assert_eq!(region.kpi_samples, 48);
    }
}
