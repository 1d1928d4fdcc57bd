//! Ablation: PLB annealing vs pure greedy placement (§5.2 cites SF's use
//! of simulated annealing "to prevent getting stuck in locally optimal
//! solutions").

use toto::experiment::ExperimentOverrides;
use toto_bench::BenchArgs;
use toto_fabric::plb::PlbConfig;
use toto_fleet::{FleetPlan, StderrProgress};
use toto_spec::ScenarioSpec;

fn add(plan: &mut FleetPlan, label: &str, plb: PlbConfig, hours: u64) {
    let mut scenario = ScenarioSpec::gen5_stage_cluster(120);
    scenario.duration_hours = hours;
    let overrides = ExperimentOverrides {
        plb: Some(plb),
        ..ExperimentOverrides::default()
    };
    plan.add_pinned(label, scenario, overrides);
}

fn main() {
    let args = BenchArgs::parse();
    let hours = args.hours_or(144);
    println!("ablation: PLB search strategy at 120% density, {hours}h\n");
    let mut plan = FleetPlan::new(120);
    add(
        &mut plan,
        "annealing (default)",
        PlbConfig::default(),
        hours,
    );
    add(
        &mut plan,
        "greedy (0 anneal iterations)",
        PlbConfig {
            anneal_iterations: 0,
            ..PlbConfig::default()
        },
        hours,
    );
    add(
        &mut plan,
        "hot annealing (T x20)",
        PlbConfig {
            initial_temperature: 1.0,
            ..PlbConfig::default()
        },
        hours,
    );

    let report = args.executor().run(plan.jobs(), &StderrProgress);
    for job in &report.jobs {
        let r = &job
            .outcome
            .output()
            .unwrap_or_else(|| panic!("{} did not complete", job.label))
            .result;
        println!(
            "{:<30} reserved {:>5.0} | {:>3} redirects | {:>3} failovers | adjusted ${:>8.0}",
            job.label,
            r.final_reserved_cores,
            r.redirect_count,
            r.telemetry.failover_count(None),
            r.revenue.adjusted(),
        );
    }
}
