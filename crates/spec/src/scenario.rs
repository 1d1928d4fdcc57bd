//! Whole-benchmark scenario specifications.
//!
//! A scenario captures everything §5.2 fixes per experiment: the cluster
//! shape (14-node gen5 stage cluster), the density level under test, the
//! experiment duration (6 days), the bootstrap population (Table 2), the
//! target bootstrap disk utilization (Table 3's 77 %), and every seed.

use crate::xml::XmlElement;

/// A complete, declarative benchmark scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// Number of data-plane nodes in the ring (paper: 14).
    pub node_count: u32,
    /// Fault domains the ring spans (Service Fabric spreads replicas
    /// across them; BC's four replicas need at least four).
    pub fault_domains: u32,
    /// Physical CPU cores per node.
    pub cores_per_node: f64,
    /// Physical local disk per node, GB.
    pub disk_per_node_gb: f64,
    /// Physical DRAM per node, GB.
    pub memory_per_node_gb: f64,
    /// Fraction of physical cores exposed as the *base* (100 %) logical
    /// CPU capacity; Azure sets logical capacities "conservatively" (§3.1).
    pub base_cpu_logical_fraction: f64,
    /// Fraction of physical disk exposed as the logical disk capacity.
    pub base_disk_logical_fraction: f64,
    /// Density level in percent: 100, 110, 120, 140 in the paper. Scales
    /// the logical CPU capacity only — disk is physically bounded.
    pub density_percent: u32,
    /// Experiment duration in hours (paper: 144 = 6 days).
    pub duration_hours: u64,
    /// Bootstrap population: Standard/GP databases (Table 2: 187).
    pub bootstrap_standard_gp: u32,
    /// Bootstrap population: Premium/BC databases (Table 2: 33).
    pub bootstrap_premium_bc: u32,
    /// Target initial disk utilization as a fraction of logical disk
    /// capacity (Table 3: 0.77).
    pub bootstrap_disk_fill: f64,
    /// Population Manager seed (one seed fixes create order and SLOs).
    pub population_seed: u64,
    /// Root seed for the model objects (expanded per node).
    pub model_seed: u64,
    /// PLB simulated-annealing seed. Varies across repeat runs, as in
    /// production (§5.2: "we were not able to use the same PLB random
    /// seed for each experiment").
    pub plb_seed: u64,
    /// Metric report period, seconds (disk deltas are 20-minute, §4.2.1).
    pub report_period_secs: u64,
    /// How often RgManager re-reads the model XML (paper: 15 minutes).
    pub model_refresh_secs: u64,
}

impl ScenarioSpec {
    /// The paper's gen5 stage-cluster density study scenario at a given
    /// density percent (§5.2 and Tables 2–3).
    pub fn gen5_stage_cluster(density_percent: u32) -> Self {
        ScenarioSpec {
            name: format!("gen5-stage-density-{density_percent}"),
            node_count: 14,
            fault_domains: 7,
            cores_per_node: 128.0,
            disk_per_node_gb: 8192.0,
            memory_per_node_gb: 512.0,
            base_cpu_logical_fraction: 0.75,
            base_disk_logical_fraction: 0.92,
            density_percent,
            duration_hours: 144,
            bootstrap_standard_gp: 187,
            bootstrap_premium_bc: 33,
            bootstrap_disk_fill: 0.77,
            population_seed: 0x0702_2021,
            model_seed: 0x544F_544F, // "TOTO"
            plb_seed: 1,
            report_period_secs: 1200,
            model_refresh_secs: 900,
        }
    }

    /// Base (100 % density) logical CPU capacity per node, cores.
    pub fn base_cpu_capacity_per_node(&self) -> f64 {
        self.cores_per_node * self.base_cpu_logical_fraction
    }

    /// Density-scaled logical CPU capacity per node, cores.
    pub fn cpu_capacity_per_node(&self) -> f64 {
        self.base_cpu_capacity_per_node() * self.density_percent as f64 / 100.0
    }

    /// Logical disk capacity per node, GB (not density-scaled: disk is a
    /// physical bound, which is exactly why high density pressures it).
    pub fn disk_capacity_per_node(&self) -> f64 {
        self.disk_per_node_gb * self.base_disk_logical_fraction
    }

    /// Total density-scaled logical cores in the cluster.
    pub fn total_logical_cores(&self) -> f64 {
        self.cpu_capacity_per_node() * self.node_count as f64
    }

    /// Total logical disk in the cluster, GB.
    pub fn total_logical_disk_gb(&self) -> f64 {
        self.disk_capacity_per_node() * self.node_count as f64
    }

    /// Serialise to XML (every run record embeds it as `scenario_xml`).
    pub fn to_xml_string(&self) -> String {
        XmlElement::new("Scenario")
            .attr("name", &self.name)
            .attr("nodeCount", self.node_count)
            .attr("faultDomains", self.fault_domains)
            .attr("coresPerNode", self.cores_per_node)
            .attr("diskPerNodeGb", self.disk_per_node_gb)
            .attr("memoryPerNodeGb", self.memory_per_node_gb)
            .attr("baseCpuLogicalFraction", self.base_cpu_logical_fraction)
            .attr("baseDiskLogicalFraction", self.base_disk_logical_fraction)
            .attr("densityPercent", self.density_percent)
            .attr("durationHours", self.duration_hours)
            .attr("bootstrapStandardGp", self.bootstrap_standard_gp)
            .attr("bootstrapPremiumBc", self.bootstrap_premium_bc)
            .attr("bootstrapDiskFill", self.bootstrap_disk_fill)
            .attr("populationSeed", self.population_seed)
            .attr("modelSeed", self.model_seed)
            .attr("plbSeed", self.plb_seed)
            .attr("reportPeriodSecs", self.report_period_secs)
            .attr("modelRefreshSecs", self.model_refresh_secs)
            .to_xml_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen5_defaults_match_paper() {
        let s = ScenarioSpec::gen5_stage_cluster(100);
        assert_eq!(s.node_count, 14);
        assert_eq!(s.duration_hours, 144);
        assert_eq!(s.bootstrap_standard_gp, 187);
        assert_eq!(s.bootstrap_premium_bc, 33);
        assert_eq!(s.bootstrap_standard_gp + s.bootstrap_premium_bc, 220);
        assert!((s.bootstrap_disk_fill - 0.77).abs() < 1e-12);
        assert_eq!(s.model_refresh_secs, 900);
    }

    #[test]
    fn density_scales_cpu_not_disk() {
        let base = ScenarioSpec::gen5_stage_cluster(100);
        let dense = ScenarioSpec::gen5_stage_cluster(140);
        assert!((dense.cpu_capacity_per_node() - 1.4 * base.cpu_capacity_per_node()).abs() < 1e-9);
        assert_eq!(
            dense.disk_capacity_per_node(),
            base.disk_capacity_per_node()
        );
    }

    #[test]
    fn totals_multiply_by_node_count() {
        let s = ScenarioSpec::gen5_stage_cluster(110);
        assert!((s.total_logical_cores() - s.cpu_capacity_per_node() * 14.0).abs() < 1e-9);
        assert!((s.total_logical_disk_gb() - s.disk_capacity_per_node() * 14.0).abs() < 1e-9);
    }
}
