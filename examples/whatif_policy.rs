//! Toto as a what-if tool (§1's use case (b): "quantify the benefits of
//! proposals"): compare PLB policy variants on the same scenario without
//! touching production — here, a placement-headroom change and a tighter
//! per-pass failover budget. The PLB balances continuously in every run
//! (as SF's does), so balancing itself is not a variant.
//!
//! ```text
//! cargo run --release --example whatif_policy -- 72
//! ```

use toto::experiment::{DensityExperiment, ExperimentOverrides};
use toto_fabric::plb::PlbConfig;
use toto_spec::ScenarioSpec;

fn run(name: &str, hours: u64, overrides: ExperimentOverrides) {
    let mut scenario = ScenarioSpec::gen5_stage_cluster(120);
    scenario.duration_hours = hours;
    let r = DensityExperiment::new(scenario, overrides).run();
    println!(
        "{name:<28} reserved {:>5.0} cores | {:>3} redirects | {:>3} failovers ({:>4.0} cores) | adjusted ${:>8.0}",
        r.final_reserved_cores,
        r.redirect_count,
        r.telemetry.failover_count(None),
        r.telemetry.failed_over_cores(None),
        r.revenue.adjusted(),
    );
}

fn main() {
    let hours: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(72);
    println!("what-if study at 120% density, {hours} simulated hours each\n");

    run("baseline", hours, ExperimentOverrides::default());

    let headroom = ExperimentOverrides {
        plb: Some(PlbConfig {
            placement_headroom: 0.9,
            ..PlbConfig::default()
        }),
        ..Default::default()
    };
    run("placement headroom 90%", hours, headroom);

    let aggressive = ExperimentOverrides {
        plb: Some(PlbConfig {
            max_moves_per_pass: 2,
            ..PlbConfig::default()
        }),
        ..Default::default()
    };
    run("failover budget 2/pass", hours, aggressive);

    println!("\neach variant runs the identical benchmark scenario (same population");
    println!("stream, same models) — exactly the reliable, repeatable comparison");
    println!("the paper built Toto for (§2: 'Production Environments').");
}
