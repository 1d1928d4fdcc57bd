//! Figure 11: reserved cores vs cluster disk usage, one point per hour
//! over the 6-day run, one series per density level.
//!
//! Expected shape: higher densities reach higher reserved-core levels;
//! the 120 %/140 % runs separate upward in disk from 100 %/110 % (the
//! paper traces this to a single high-initial-growth BC database admitted
//! only at the higher densities).

use toto_bench::{render_table, run_density_study, BenchArgs, DENSITIES};

fn main() {
    let results = run_density_study(BenchArgs::parse().hours);
    println!("Figure 11 — reserved cores vs disk usage (hourly samples)\n");
    let hours = results[0].telemetry.reserved_cores.len();
    let mut rows = Vec::new();
    for h in (0..hours).step_by(12).chain([hours - 1]) {
        let mut row = vec![format!("{h}")];
        for r in &results {
            let cores = r.telemetry.reserved_cores.points()[h].1;
            let disk = r.telemetry.disk_usage.points()[h].1;
            row.push(format!("{cores:.0}c/{:.1}T", disk / 1024.0));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("hour".to_string())
        .chain(DENSITIES.iter().map(|d| format!("{d}%")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("{}", render_table(&header_refs, &rows));
    println!(
        "(cores / disk-TB; logical capacity: {:.0} cores at 100%, {:.1} TB disk)",
        results[0].scenario.total_logical_cores(),
        results[0].scenario.total_logical_disk_gb() / 1024.0
    );
    println!("\nfailovers per 24h window:");
    for (d, r) in DENSITIES.iter().zip(&results) {
        let t0 = r.telemetry.reserved_cores.points()[0].0;
        let mut windows = vec![0usize; (hours / 24) + 1];
        for f in &r.telemetry.failovers {
            let idx = (f.time.saturating_since(t0).as_secs() / 86_400) as usize;
            if idx < windows.len() {
                windows[idx] += 1;
            }
        }
        println!("  {d:>3}%: {windows:?}");
    }
}
