//! Figure 2: the headline summary scatter — relative difference in final
//! CPU reservation level (y) vs relative difference in customer capacity
//! moved due to failovers (x), with the modeled relative adjusted revenue
//! over the 100 % run as the circle size.

use toto_bench::{render_table, run_density_study, BenchArgs, DENSITIES};

fn main() {
    let results = run_density_study(BenchArgs::parse().hours);
    let base_cores = results[0].final_reserved_cores;
    let base_moved = results[0].telemetry.failed_over_cores(None).max(1.0);
    let base_revenue = results[0].revenue.adjusted();

    println!("Figure 2 — density study summary (all relative to the 100% run)\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(&results)
        .skip(1)
        .map(|(d, r)| {
            vec![
                format!("{d}%"),
                format!(
                    "{:+.1}%",
                    (r.final_reserved_cores / base_cores - 1.0) * 100.0
                ),
                format!(
                    "{:.0}%",
                    r.telemetry.failed_over_cores(None) / base_moved * 100.0
                ),
                format!("{:.0}%", r.revenue.adjusted() / base_revenue * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "density",
                "rel diff final CPU reservation",
                "rel capacity moved (100% = 100)",
                "rel adjusted revenue (circle size)"
            ],
            &rows
        )
    );
    println!("expected shape: reservation rises with density; capacity moved is largest");
    println!("at 140%, whose adjusted revenue falls back below the 120% run.");
}
