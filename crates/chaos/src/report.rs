//! Per-run chaos accounting: what was injected, what it cost.

/// KPI deltas attributed to one injected fault.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosFaultRecord {
    /// Seconds from experiment start at which the fault fired.
    pub at_secs: u64,
    /// Stable fault kind name: `node_crash`, `storm`, `drain`,
    /// `drain_blocked`, `decommission`, `decommission_blocked`,
    /// `capacity_degrade:<resource>` (e.g. `capacity_degrade:Disk`) or
    /// `report_loss`.
    pub kind: String,
    /// The node hit, when the fault targets exactly one.
    pub node: Option<u32>,
    /// Replica moves the fault forced immediately.
    pub failovers: u64,
    /// Reserved cores of the services whose replicas failed over.
    pub failed_over_cores: f64,
    /// Creation redirects that accumulated between the fault and its
    /// recovery. Only node restarts (after a crash, storm or drain) fill
    /// it; capacity restores and loss-window ends, and faults that
    /// recover instantly or never, leave it 0.
    pub redirects_delta: u64,
    /// Seconds until the fault's effect was undone (node restarted,
    /// capacity restored, loss window closed). `None` = permanent.
    pub recovery_secs: Option<u64>,
}

/// Everything one chaos-enabled run reports beyond its normal KPIs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosReport {
    /// One record per injected fault, in injection order.
    pub faults: Vec<ChaosFaultRecord>,
    /// Post-event invariant checks performed.
    pub oracle_checks: u64,
    /// Invariant violations detected (must be 0 for a healthy engine).
    pub oracle_violations: u64,
}

impl ChaosReport {
    /// Canonical JSON, schema-stable for artifact diffing: fixed key
    /// order, `{:?}` float formatting (shortest round-trip), `null` for
    /// absent options.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": 1,\n  \"faults\": [");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"at_secs\": {}, ", f.at_secs));
            out.push_str(&format!("\"kind\": \"{}\", ", f.kind));
            match f.node {
                Some(n) => out.push_str(&format!("\"node\": {n}, ")),
                None => out.push_str("\"node\": null, "),
            }
            out.push_str(&format!("\"failovers\": {}, ", f.failovers));
            out.push_str(&format!(
                "\"failed_over_cores\": {:?}, ",
                f.failed_over_cores
            ));
            out.push_str(&format!("\"redirects_delta\": {}, ", f.redirects_delta));
            match f.recovery_secs {
                Some(s) => out.push_str(&format!("\"recovery_secs\": {s}")),
                None => out.push_str("\"recovery_secs\": null"),
            }
            out.push('}');
        }
        if !self.faults.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"oracle_checks\": {},\n", self.oracle_checks));
        out.push_str(&format!(
            "  \"oracle_violations\": {}\n",
            self.oracle_violations
        ));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_complete() {
        let report = ChaosReport {
            faults: vec![
                ChaosFaultRecord {
                    at_secs: 7200,
                    kind: "node_crash".into(),
                    node: Some(3),
                    failovers: 5,
                    failed_over_cores: 40.5,
                    redirects_delta: 2,
                    recovery_secs: Some(1800),
                },
                ChaosFaultRecord {
                    at_secs: 10800,
                    kind: "decommission".into(),
                    node: None,
                    failovers: 0,
                    failed_over_cores: 0.0,
                    redirects_delta: 0,
                    recovery_secs: None,
                },
            ],
            oracle_checks: 1234,
            oracle_violations: 0,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"kind\": \"node_crash\""));
        assert!(json.contains("\"failed_over_cores\": 40.5"));
        assert!(json.contains("\"node\": null"));
        assert!(json.contains("\"recovery_secs\": null"));
        assert!(json.contains("\"oracle_checks\": 1234"));
        assert_eq!(json, report.to_json(), "serialisation must be pure");
    }

    #[test]
    fn empty_report_serialises() {
        let json = ChaosReport::default().to_json();
        assert!(json.contains("\"faults\": []"));
        assert!(json.contains("\"oracle_violations\": 0"));
    }
}
