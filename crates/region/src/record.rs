//! The region run record: the creation-redirect KPI promoted to a
//! *region* KPI with per-ring attribution, plus region-level adjusted
//! revenue.
//!
//! Like `toto-fleet`'s per-job [`RunRecord`](toto_fleet::RunRecord), the
//! region record is **deterministic**: no wall-clock, no thread counts —
//! records from a 1-worker and an 8-worker region run are byte-identical
//! (the region determinism integration test asserts exactly this). It is
//! stored as a `region.json` artifact next to the per-ring run records.

use toto_controlplane::RingAdmissionStats;
use toto_fleet::{kpis_to_json, revenue_to_json, Json};
use toto_telemetry::kpi::KpiSummary;
use toto_telemetry::revenue::RevenueBreakdown;

/// Region record schema version. Bump on any field change.
pub const REGION_SCHEMA_VERSION: u64 = 1;

/// One ring's row in the region record.
#[derive(Clone, Debug, PartialEq)]
pub struct RingEntry {
    /// Ring name (also the per-ring run record's label).
    pub name: String,
    /// The ring's density ladder value.
    pub density_percent: u32,
    /// Node count.
    pub node_count: u32,
    /// Build-out hour (0 = present from the start).
    pub start_hour: u64,
    /// Decommission hour, if the ring was drained.
    pub decommission_hour: Option<u64>,
    /// The ring experiment's KPI digest.
    pub kpis: KpiSummary,
    /// The ring experiment's revenue split.
    pub revenue: RevenueBreakdown,
    /// Region-admission attribution for this ring.
    pub stats: RingAdmissionStats,
    /// Create directives the region routed to this ring.
    pub directed_creates: u64,
    /// Drop directives the region routed to this ring.
    pub directed_drops: u64,
}

/// The region-level artifact: per-ring breakdown plus aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionRunRecord {
    /// Schema version this record was written with.
    pub schema_version: u64,
    /// Region name.
    pub region: String,
    /// Region root seed.
    pub seed: u64,
    /// Placement policy name.
    pub policy: String,
    /// Run length, hours.
    pub duration_hours: u64,
    /// Per-ring rows, spec order.
    pub rings: Vec<RingEntry>,
    /// Field-wise sum of the rings' KPI summaries.
    pub region_kpis: KpiSummary,
    /// Sum of the rings' revenue splits (region adjusted revenue is
    /// `region_revenue.adjusted()`).
    pub region_revenue: RevenueBreakdown,
    /// Cross-ring and out-of-region redirects the control plane decided.
    pub cross_ring_redirects: u64,
    /// Creates (or drained tenants) no ring could take.
    pub out_of_region: u64,
}

impl RegionRunRecord {
    /// Serialize. Field order is fixed, so equal records render to
    /// equal bytes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(self.schema_version)),
            ("region", Json::Str(self.region.clone())),
            ("seed", Json::Uint(self.seed)),
            ("policy", Json::Str(self.policy.clone())),
            ("duration_hours", Json::Uint(self.duration_hours)),
            (
                "rings",
                Json::Arr(self.rings.iter().map(ring_to_json).collect()),
            ),
            ("region_kpis", kpis_to_json(&self.region_kpis)),
            ("region_revenue", revenue_to_json(&self.region_revenue)),
            (
                "cross_ring_redirects",
                Json::Uint(self.cross_ring_redirects),
            ),
            ("out_of_region", Json::Uint(self.out_of_region)),
        ])
    }
}

fn ring_to_json(r: &RingEntry) -> Json {
    let mut fields = vec![
        ("name", Json::Str(r.name.clone())),
        ("density_percent", Json::Uint(u64::from(r.density_percent))),
        ("node_count", Json::Uint(u64::from(r.node_count))),
        ("start_hour", Json::Uint(r.start_hour)),
    ];
    if let Some(h) = r.decommission_hour {
        fields.push(("decommission_hour", Json::Uint(h)));
    }
    fields.extend([
        ("kpis", kpis_to_json(&r.kpis)),
        ("revenue", revenue_to_json(&r.revenue)),
        (
            "stats",
            Json::obj(vec![
                (
                    "admitted_first_choice",
                    Json::Uint(r.stats.admitted_first_choice),
                ),
                ("redirects_out", Json::Uint(r.stats.redirects_out)),
                ("redirects_in", Json::Uint(r.stats.redirects_in)),
            ]),
        ),
        ("directed_creates", Json::Uint(r.directed_creates)),
        ("directed_drops", Json::Uint(r.directed_drops)),
    ]);
    Json::obj(fields)
}
