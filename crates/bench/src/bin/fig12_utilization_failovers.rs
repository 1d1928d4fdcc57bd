//! Figure 12: (a) disk and reserved-core utilization at the end of each
//! experiment, relative to the 100 % run; (b) total failed-over cores,
//! split GP vs BC.
//!
//! Expected shape: reserved-core utilization grows with density (≈ +30 %
//! at 140 %); 140 % fails over the most cores, predominantly Premium/BC;
//! 120 % is lowest.

use toto_bench::{render_table, run_density_study, BenchArgs, DENSITIES};
use toto_spec::EditionKind;

fn main() {
    let results = run_density_study(BenchArgs::parse().hours);
    let base_cores = results[0].final_reserved_cores;
    let base_disk = results[0].final_disk_gb;

    println!("Figure 12(a) — relative utilization at end of run (100% = 1.00)\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(&results)
        .map(|(d, r)| {
            vec![
                format!("{d}%"),
                format!("{:.3}", r.final_reserved_cores / base_cores),
                format!("{:.3}", r.final_disk_gb / base_disk),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["density", "rel reserved cores", "rel disk"], &rows)
    );

    println!("Figure 12(b) — total failed-over cores over the run\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(&results)
        .map(|(d, r)| {
            let gp = r.telemetry.failed_over_cores(Some(EditionKind::StandardGp));
            let bc = r.telemetry.failed_over_cores(Some(EditionKind::PremiumBc));
            vec![
                format!("{d}%"),
                format!("{gp:.0}"),
                format!("{bc:.0}"),
                format!("{:.0}", gp + bc),
                format!("{}", r.telemetry.failover_count(None)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "density",
                "GP cores",
                "BC cores",
                "total cores",
                "failovers"
            ],
            &rows
        )
    );
}
