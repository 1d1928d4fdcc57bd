//! §5.3.1 region study: what is cross-ring admission worth?
//!
//! The paper measures creation redirects from the rejecting ring's
//! perspective only. This study quantifies the *region* side of the
//! mechanism: the same four heterogeneous rings (the §5.2 density ladder
//! at 100/110/120/140 %, with mixed node counts) are run twice —
//!
//! * **single-ring**: each ring is an isolated experiment with its own
//!   population stream; a create its own ring cannot take is simply a
//!   creation redirect (revenue lost to some other, unmodelled region);
//! * **region**: the `mixed4` region routes one regional population
//!   stream across all four rings, so overflow redirects land on
//!   siblings instead of leaving.
//!
//! The comparison holds hardware and seeds fixed: the single-ring
//! baselines run *exactly* the per-ring scenarios the region's Phase B
//! replays (same node counts, densities, bootstrap populations and
//! seeds), differing only in who admits creates.
//!
//! ```text
//! study_region [--hours H] [--threads T]
//! ```

use toto_bench::BenchArgs;
use toto_fleet::{FleetPlan, NullObserver, RunRecord};
use toto_scenario::{RegionRunner, RegionSpec};

fn main() {
    let args = BenchArgs::parse();

    let mut spec = RegionSpec::named("mixed4").expect("built-in region");
    spec.duration_hours = args.hours_or(spec.duration_hours);

    // Single-ring baselines: the region's own per-ring scenarios, run
    // undirected (each ring admits from its own population stream).
    let mut baseline = FleetPlan::new(spec.seed);
    for i in 0..spec.rings.len() {
        baseline.add_pinned(
            format!("single-{}", spec.rings[i].name),
            spec.ring_scenario(i),
            toto::experiment::ExperimentOverrides::default(),
        );
    }
    eprintln!(
        "[study_region] {} single-ring baselines + region {} on {} threads, {}h",
        baseline.jobs().len(),
        spec.name,
        args.threads,
        spec.duration_hours
    );
    let report = args.executor().run(baseline.jobs(), &NullObserver);
    let singles = RunRecord::from_report(&report);
    assert_eq!(
        singles.len(),
        spec.rings.len(),
        "baseline jobs must complete"
    );

    // The region run: same rings, one regional admission layer.
    let runner = RegionRunner {
        threads: args.threads,
        ..RegionRunner::default()
    };
    let region = runner.run(&spec);
    assert!(
        region.report.all_completed(),
        "region ring jobs must complete"
    );

    println!(
        "\nregion study — {} ({} policy, {}h, seed {})\n",
        spec.name,
        spec.policy.name(),
        spec.duration_hours,
        spec.seed
    );
    println!(
        "{:<8} {:>7} {:>6} | {:>14} {:>10} | {:>14} {:>8} {:>8}",
        "ring", "density", "nodes", "single_adj_$", "rejected", "region_adj_$", "red_out", "red_in"
    );
    let mut single_total = 0.0;
    for (single, ring) in singles.iter().zip(&region.record.rings) {
        single_total += single.revenue.adjusted();
        println!(
            "{:<8} {:>7} {:>6} | {:>14.2} {:>10} | {:>14.2} {:>8} {:>8}",
            ring.name,
            ring.density_percent,
            ring.node_count,
            single.revenue.adjusted(),
            single.kpis.creation_redirects,
            ring.revenue.adjusted(),
            ring.stats.redirects_out,
            ring.stats.redirects_in
        );
    }
    let region_total = region.record.region_revenue.adjusted();
    println!(
        "\n{:<23} | {:>14.2} {:>10} | {:>14.2}",
        "total",
        single_total,
        singles
            .iter()
            .map(|r| r.kpis.creation_redirects)
            .sum::<u64>(),
        region_total
    );
    let kept: u64 = region
        .record
        .rings
        .iter()
        .map(|r| r.stats.redirects_in)
        .sum();
    println!(
        "region admission: {} redirect events ({} landed on siblings, {} left the region)",
        region.record.cross_ring_redirects, kept, region.record.out_of_region
    );
    println!(
        "adjusted revenue delta (region − single): {:+.2} $ ({:+.2} %)",
        region_total - single_total,
        (region_total - single_total) / single_total * 100.0
    );

    // Policy comparison: the regional stream realization is a pure
    // function of the region seed, so swapping the placement policy
    // re-routes the *identical* sequence of creates and drops — the
    // tightest possible apples-to-apples comparison.
    println!("\npolicy comparison — same rings, same regional stream");
    println!(
        "{:<16} {:>14} {:>10} {:>6} {:>14}",
        "policy", "adj_revenue_$", "redirects", "kept", "out_of_region"
    );
    for policy in [
        toto_controlplane::PlacementPolicy::DensityTarget,
        toto_controlplane::PlacementPolicy::Spread,
        toto_controlplane::PlacementPolicy::BestFit,
    ] {
        let mut spec = spec.clone();
        spec.policy = policy;
        let out = runner.run(&spec);
        assert!(out.report.all_completed());
        let kept: u64 = out.record.rings.iter().map(|r| r.stats.redirects_in).sum();
        println!(
            "{:<16} {:>14.2} {:>10} {:>6} {:>14}",
            policy.name(),
            out.record.region_revenue.adjusted(),
            out.record.cross_ring_redirects,
            kept,
            out.record.out_of_region
        );
    }
}
