//! The paper's §5 density study, run once: four experiments at
//! 100/110/120/140 % density on an identical bootstrap population, with
//! every artifact the paper reads off it printed in paper order — Table 2,
//! Table 3, Figures 2, 10, 11, 12 and 14.
//!
//! Tables 2 and 3 read the bootstrap reports, which are taken before the
//! run length matters, so `--hours` shortens only the figures.

use std::collections::BTreeMap;
use toto::experiment::ExperimentResult;
use toto_bench::{render_table, run_density_study, BenchArgs, DENSITIES};
use toto_controlplane::slo::SloCatalog;
use toto_spec::EditionKind;

fn main() {
    let args = BenchArgs::parse();
    let results = run_density_study(args.hours, args.threads);
    table2_population(&results);
    table3_parameters(&results);
    fig02_density_summary(&results);
    fig10_redirects(&results);
    fig11_cores_disk(&results);
    fig12_utilization_failovers(&results);
    fig14_revenue(&results);
}

/// An hourly series table, one column per density level: every 12th
/// hour to keep it readable, plus the last.
fn hourly_table(
    results: &[ExperimentResult],
    hours: usize,
    cell: impl Fn(&ExperimentResult, usize) -> String,
) -> String {
    let rows: Vec<Vec<String>> = (0..hours)
        .step_by(12)
        .chain([hours - 1])
        .map(|h| {
            let cells = results.iter().map(|r| cell(r, h));
            std::iter::once(format!("{h}")).chain(cells).collect()
        })
        .collect();
    let headers: Vec<String> = std::iter::once("hour".to_string())
        .chain(DENSITIES.iter().map(|d| format!("{d}%")))
        .collect();
    render_table(&headers, &rows)
}

/// Table 2: the bootstrap population — 33 Premium/BC databases, 187
/// Standard/GP databases, 220 total — plus the SLO breakdown our
/// representative mix produced.
fn table2_population(results: &[ExperimentResult]) {
    let result = &results[0];
    let catalog = SloCatalog::gen5();

    let bc = result
        .bootstrap
        .services
        .iter()
        .filter(|(_, e, _, _)| *e == EditionKind::PremiumBc)
        .count();
    let gp = result.bootstrap.services.len() - bc;
    println!("Table 2 — initial population\n");
    println!(
        "{}",
        render_table(
            &["Premium/BC Databases", "Standard/GP Databases", "Total"],
            &[vec![bc.to_string(), gp.to_string(), (bc + gp).to_string()]]
        )
    );

    let mut by_slo: BTreeMap<String, usize> = BTreeMap::new();
    for (_, _, slo_index, _) in &result.bootstrap.services {
        let name = catalog.get(*slo_index).expect("slo").name.clone();
        *by_slo.entry(name).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = by_slo
        .iter()
        .map(|(name, count)| vec![name.clone(), count.to_string()])
        .collect();
    println!("SLO breakdown of the bootstrap population:\n");
    println!("{}", render_table(&["SLO", "databases"], &rows));
    println!(
        "reserved cores {:.0}, free cores {:.0}, disk fill {:.1}%",
        result.bootstrap.reserved_cores,
        result.bootstrap.free_cores,
        result.bootstrap.disk_utilization * 100.0
    );
}

/// Table 3: experiment parameters — free remaining logical cores and
/// initial disk usage percentage per density level. The population (and
/// hence reserved cores and disk) is identical across densities; only the
/// density-scaled logical core capacity changes.
fn table3_parameters(results: &[ExperimentResult]) {
    println!("Table 3 — experiment parameters\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(results)
        .map(|(density, r)| {
            vec![
                format!("{density}"),
                format!("{:.0}", r.bootstrap.free_cores),
                format!("{:.0}", r.bootstrap.disk_utilization * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Density Level %",
                "Free Remaining Logical Cores",
                "Disk Usage %"
            ],
            &rows
        )
    );
    println!("(paper: 65 / 158 / 224 / 326 free cores, 77% disk at every level)");
}

/// Figure 2: the headline summary scatter — relative difference in final
/// CPU reservation level (y) vs relative difference in customer capacity
/// moved due to failovers (x), with the modeled relative adjusted revenue
/// over the 100 % run as the circle size.
fn fig02_density_summary(results: &[ExperimentResult]) {
    let base_cores = results[0].final_reserved_cores;
    let base_moved = results[0].telemetry.failed_over_cores(None).max(1.0);
    let base_revenue = results[0].revenue.adjusted();

    println!("Figure 2 — density study summary (all relative to the 100% run)\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(results)
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

/// Figure 10: creation attempts redirected because the ring ran out of a
/// resource, cumulative over the 6-day run, one series per density level.
///
/// Expected shape (§5.3.1): lower densities redirect first (the paper saw
/// hour 23 at 100 %, 28 at 110 %, 55 at 120 %); the highest density sees
/// few or none.
fn fig10_redirects(results: &[ExperimentResult]) {
    println!("Figure 10 — cumulative creation redirects per hour\n");
    let hours = results[0].telemetry.creation_redirects.len();
    let table = hourly_table(results, hours, |r, h| {
        let v = r.telemetry.creation_redirects.points()[h].1;
        format!("{v:.0}")
    });
    println!("{table}");
    println!("first redirect hour per density:");
    for (d, r) in DENSITIES.iter().zip(results) {
        match r.first_redirect_hour {
            Some(h) => println!("  {d:>3}%: hour {h}"),
            None => println!("  {d:>3}%: no redirects"),
        }
    }
}

/// Figure 11: reserved cores vs cluster disk usage, one point per hour
/// over the 6-day run, one series per density level.
///
/// Expected shape: higher densities reach higher reserved-core levels;
/// the 120 %/140 % runs separate upward in disk from 100 %/110 % (the
/// paper traces this to a single high-initial-growth BC database admitted
/// only at the higher densities).
fn fig11_cores_disk(results: &[ExperimentResult]) {
    println!("Figure 11 — reserved cores vs disk usage (hourly samples)\n");
    let hours = results[0].telemetry.reserved_cores.len();
    let table = hourly_table(results, hours, |r, h| {
        let cores = r.telemetry.reserved_cores.points()[h].1;
        let disk = r.telemetry.disk_usage.points()[h].1;
        format!("{cores:.0}c/{:.1}T", disk / 1024.0)
    });
    println!("{table}");
    println!(
        "(cores / disk-TB; logical capacity: {:.0} cores at 100%, {:.1} TB disk)",
        results[0].scenario.total_logical_cores(),
        results[0].scenario.total_logical_disk_gb() / 1024.0
    );
    println!("\nfailovers per 24h window:");
    for (d, r) in DENSITIES.iter().zip(results) {
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

/// Figure 12: (a) disk and reserved-core utilization at the end of each
/// experiment, relative to the 100 % run; (b) total failed-over cores,
/// split GP vs BC.
///
/// Expected shape: reserved-core utilization grows with density (≈ +30 %
/// at 140 %); 140 % fails over the most cores, predominantly Premium/BC;
/// 120 % is lowest.
fn fig12_utilization_failovers(results: &[ExperimentResult]) {
    let base_cores = results[0].final_reserved_cores;
    let base_disk = results[0].final_disk_gb;

    println!("Figure 12(a) — relative utilization at end of run (100% = 1.00)\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(results)
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
        .zip(results)
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

/// Figure 14: total modeled adjusted revenue per density level (§5.1,
/// §5.3.5).
///
/// Expected shape: revenue rises with density up to 120 % and *drops* at
/// 140 %, whose SLA penalty dwarfs the other runs (paper: > 60x).
fn fig14_revenue(results: &[ExperimentResult]) {
    println!("Figure 14 — modeled adjusted revenue over the run\n");
    let rows: Vec<Vec<String>> = DENSITIES
        .iter()
        .zip(results)
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
    for (d, r) in DENSITIES.iter().zip(results) {
        println!("  {d:>3}%: {:.3}", r.revenue.adjusted() / base);
    }
}
