//! Figure 13: quantifying PLB non-determinism — three identical 18-hour
//! experiments differing only in the PLB's (unfixable) annealing seed.
//! Node-level 10-minute readings of disk usage and reserved cores are
//! compared pairwise with the Wilcoxon signed-rank test; the paper found
//! all but one of six tests insignificant at α = 0.05 and failover counts
//! of 1 / 0 / 1.

use toto::experiment::ExperimentOverrides;
use toto_bench::{outputs, render_table, BenchArgs};
use toto_fleet::{FleetPlan, StderrProgress};
use toto_spec::ScenarioSpec;
use toto_stats::describe::five_number_summary;
use toto_stats::wilcoxon::wilcoxon_signed_rank;

const PLB_SEEDS: [u64; 3] = [11, 222, 3333];

fn main() {
    let args = BenchArgs::parse();
    // The three repeats differ only in the PLB annealing seed, so they
    // are pinned jobs (scenario seeds held fixed, not derived) in one
    // fleet — the repeats run concurrently instead of back to back.
    let mut plan = FleetPlan::new(13);
    for plb_seed in PLB_SEEDS {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(110);
        scenario.duration_hours = args.hours_or(18);
        scenario.plb_seed = plb_seed;
        plan.add_pinned(
            format!("plb-seed-{plb_seed}"),
            scenario,
            ExperimentOverrides::default(),
        );
    }
    let report = args.executor().run(plan.jobs(), &StderrProgress);
    let mut runs = Vec::new();
    for (i, out) in outputs(report).into_iter().enumerate() {
        let r = out.result;
        println!(
            "experiment {} (plb seed {}): {} failovers",
            i + 1,
            PLB_SEEDS[i],
            r.telemetry.failover_count(None)
        );
        runs.push(r);
    }

    println!("\nFigure 13(a) — dispersion of mean node-level disk usage (GB)\n");
    let disk: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| r.telemetry.node_values(|s| s.disk_gb))
        .collect();
    let cores: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| r.telemetry.node_values(|s| s.cores))
        .collect();
    let mut rows = Vec::new();
    for (i, d) in disk.iter().enumerate() {
        rows.push(vec![
            format!("exp {}", i + 1),
            five_number_summary(d).render(),
        ]);
    }
    println!("{}", render_table(&["run", "disk GB box plot"], &rows));

    println!("Figure 13(b) — dispersion of node-level reserved cores\n");
    let mut rows = Vec::new();
    for (i, c) in cores.iter().enumerate() {
        rows.push(vec![
            format!("exp {}", i + 1),
            five_number_summary(c).render(),
        ]);
    }
    println!("{}", render_table(&["run", "cores box plot"], &rows));

    // Pair per-node averages: readings within a node are strongly
    // autocorrelated, so the honest pairing unit is the node (n = 14),
    // matching the paper's node-level comparison.
    let node_means = |values: &[f64], nodes: usize| -> Vec<f64> {
        let mut sums = vec![0.0f64; nodes];
        let mut counts = vec![0usize; nodes];
        for (i, v) in values.iter().enumerate() {
            sums[i % nodes] += v;
            counts[i % nodes] += 1;
        }
        sums.iter().zip(counts).map(|(s, c)| s / c as f64).collect()
    };
    let nodes = 14;
    let disk_means: Vec<Vec<f64>> = disk.iter().map(|d| node_means(d, nodes)).collect();
    let core_means: Vec<Vec<f64>> = cores.iter().map(|c| node_means(c, nodes)).collect();
    println!("Wilcoxon signed-rank over paired per-node means, pairwise (α = 0.05):\n");
    let mut rows = Vec::new();
    for (metric, data) in [("disk", &disk_means), ("cores", &core_means)] {
        for (a, b) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let n = data[a].len().min(data[b].len());
            let res = wilcoxon_signed_rank(&data[a][..n], &data[b][..n]);
            let (p, verdict) = match res {
                Some(r) => (
                    format!("{:.4}", r.p_value),
                    if r.same_distribution(0.05) {
                        "insignificant"
                    } else {
                        "SIGNIFICANT"
                    },
                ),
                None => ("n/a".to_string(), "identical"),
            };
            rows.push(vec![
                format!("{metric}: exp {} vs exp {}", a + 1, b + 1),
                p,
                verdict.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["comparison", "p-value", "verdict"], &rows)
    );
}
