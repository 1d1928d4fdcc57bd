//! Figure 10: creation attempts redirected because the ring ran out of a
//! resource, cumulative over the 6-day run, one series per density level.
//!
//! Expected shape (§5.3.1): lower densities redirect first (the paper saw
//! hour 23 at 100 %, 28 at 110 %, 55 at 120 %); the highest density sees
//! few or none.

use toto_bench::{render_table, run_density_study, BenchArgs, DENSITIES};

fn main() {
    let results = run_density_study(BenchArgs::parse().hours);
    println!("Figure 10 — cumulative creation redirects per hour\n");
    let mut rows = Vec::new();
    let hours = results[0].telemetry.creation_redirects.len();
    // Print every 12th hour to keep the table readable, plus the last.
    for h in (0..hours).step_by(12).chain([hours - 1]) {
        let mut row = vec![format!("{h}")];
        for r in &results {
            let v = r.telemetry.creation_redirects.points()[h].1;
            row.push(format!("{v:.0}"));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("hour".to_string())
        .chain(DENSITIES.iter().map(|d| format!("{d}%")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("{}", render_table(&header_refs, &rows));
    println!("first redirect hour per density:");
    for (d, r) in DENSITIES.iter().zip(&results) {
        match r.first_redirect_hour {
            Some(h) => println!("  {d:>3}%: hour {h}"),
            None => println!("  {d:>3}%: no redirects"),
        }
    }
}
