//! Built-in scenarios.
//!
//! The `scenarios/` directory ships the studies this workspace
//! previously hard-coded, re-expressed as data, plus one workload study
//! that only exists as a scenario. They are embedded so
//! `toto run density_sweep` works from any directory
//! — and so the compiler tests can assert that the data form lowers to
//! exactly the hard-coded plans.

/// Names accepted by [`builtin`], in display order.
pub const NAMED_SCENARIOS: [&str; 7] = [
    "density_sweep",
    "chaos_storm",
    "region_mixed4",
    "pool_packing",
    "cohort_mix",
    "hyperscale",
    "hyperscale_smoke",
];

/// The source text of a built-in scenario, or `None` for unknown names.
pub fn builtin(name: &str) -> Option<&'static str> {
    match name {
        "density_sweep" => Some(include_str!("../scenarios/density_sweep.toml")),
        "chaos_storm" => Some(include_str!("../scenarios/chaos_storm.toml")),
        "region_mixed4" => Some(include_str!("../scenarios/region_mixed4.toml")),
        "pool_packing" => Some(include_str!("../scenarios/pool_packing.toml")),
        "cohort_mix" => Some(include_str!("../scenarios/cohort_mix.toml")),
        "hyperscale" => Some(include_str!("../scenarios/hyperscale.toml")),
        "hyperscale_smoke" => Some(include_str!("../scenarios/hyperscale_smoke.toml")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::ScenarioDoc;

    #[test]
    fn every_builtin_parses_and_names_match() {
        for name in NAMED_SCENARIOS {
            let text = builtin(name).expect("builtin exists");
            let doc = ScenarioDoc::parse(text).unwrap_or_else(|e| panic!("builtin {name}: {e}"));
            assert_eq!(doc.name, name.replace('_', "-"), "builtin {name}");
        }
        assert!(builtin("no-such-scenario").is_none());
    }
}
