//! Figure 14: total modeled adjusted revenue per density level (§5.1,
//! §5.3.5).
//!
//! Expected shape: revenue rises with density up to 120 % and *drops* at
//! 140 %, whose SLA penalty dwarfs the other runs (paper: > 60x).

use toto_bench::{render_table, run_density_study, BenchArgs, DENSITIES};

fn main() {
    let results = run_density_study(BenchArgs::parse().hours);
    println!("Figure 14 — modeled adjusted revenue over the run\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(&results)
        .map(|(d, r)| {
            vec![
                format!("{d}%"),
                format!("{:.0}", r.revenue.compute),
                format!("{:.0}", r.revenue.storage),
                format!("{:.2}", r.revenue.penalty),
                format!("{:.0}", r.revenue.adjusted()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "density",
                "compute $",
                "storage $",
                "penalty $",
                "adjusted $"
            ],
            &rows
        )
    );
    let base = results[0].revenue.adjusted();
    println!("relative adjusted revenue vs 100%:");
    for (d, r) in DENSITIES.iter().zip(&results) {
        println!("  {d:>3}%: {:.3}", r.revenue.adjusted() / base);
    }
}
