//! PLB benchmarks: placement decisions, violation-fixing and balancing
//! passes on a realistically loaded 14-node/220-service ring (the paper's
//! Table 2 population on its gen5 stage-ring node count), plus
//! pruned-candidate variants at 100 and 1,000 nodes — the hyperscale
//! rings where `pick_target` walks the cost-ordered candidate index
//! instead of scanning every node.
//!
//! These are the simulator's hottest paths: every density-study tick runs
//! placement and violation fixing, so a six-day 140%-density fleet calls
//! them hundreds of thousands of times. The fixtures live in
//! `toto_bench::fixtures` and are shared with `benchtrack`'s PLB probes,
//! so criterion numbers and the benchmark's `plb.*_ns` metrics measure
//! identical work. The fixture intentionally leaves headroom (≈66% CPU,
//! ≈48% disk) so placement always succeeds; a `create` failure here is a
//! broken fixture, not a benchmark result.
//!
//! Placement starts its node scan from the previous decision's ranking,
//! so an id that reuses one `Plb` on a frozen ring times only the
//! already-sorted path. Each `plb_place_*` id therefore has a `_cold`
//! twin that places with a fresh `Plb` per iteration, scanning in id
//! order as the first placement on a ring does.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use toto_bench::fixtures::{
    bc_spec, loaded_cluster, loaded_cluster_at, push_three_disk_violations,
};
use toto_fabric::cluster::{Cluster, ServiceSpec};
use toto_fabric::ids::NodeId;
use toto_fabric::plb::{Plb, PlbConfig};
use toto_simcore::time::SimTime;

/// Benchmark one placement twice: as `id`, reusing one `Plb` (the warm
/// path), and as `{id}_cold`, with a fresh `Plb` built untimed per
/// iteration.
fn bench_place(c: &mut Criterion, id: &str, cluster: &Cluster, spec: &ServiceSpec, seed: u64) {
    c.bench_function(id, |b| {
        let mut plb = Plb::new(PlbConfig::default(), seed);
        b.iter(|| black_box(plb.place_new_service(cluster, spec).unwrap()))
    });
    c.bench_function(&format!("{id}_cold"), |b| {
        b.iter_batched(
            || Plb::new(PlbConfig::default(), seed),
            |mut plb| {
                black_box(plb.place_new_service(cluster, spec).unwrap());
                plb
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_placement(c: &mut Criterion) {
    let (cluster, cpu, disk) = loaded_cluster();
    let spec = bc_spec(&cluster, cpu, disk);
    bench_place(c, "plb_place_bc_x4_on_loaded_ring", &cluster, &spec, 77);
    let single = ServiceSpec {
        replica_count: 1,
        ..spec.clone()
    };
    bench_place(c, "plb_place_gp_x1_on_loaded_ring", &cluster, &single, 78);
}

fn bench_violation_fixing(c: &mut Criterion) {
    c.bench_function("plb_fix_violations_pass", |b| {
        b.iter_batched(
            || {
                let (mut cluster, _, disk) = loaded_cluster();
                push_three_disk_violations(&mut cluster, disk);
                (cluster, Plb::new(PlbConfig::default(), 3))
            },
            |(mut cluster, mut plb)| {
                black_box(plb.fix_violations(&mut cluster, SimTime::from_secs(60)));
                // Return the cluster so its teardown lands outside the
                // timed region (criterion drops batched outputs untimed).
                cluster
            },
            criterion::BatchSize::LargeInput,
        )
    });
    c.bench_function("plb_violation_scan_clean_ring", |b| {
        let (cluster, _, _) = loaded_cluster();
        b.iter(|| black_box(cluster.violations()))
    });
}

fn bench_balancing(c: &mut Criterion) {
    c.bench_function("plb_balance_pass", |b| {
        b.iter_batched(
            || {
                let (mut cluster, cpu, _) = loaded_cluster();
                // Heat node 0 well past the balancing threshold.
                let hot: Vec<_> = cluster.node(NodeId(0)).replicas.clone();
                for rid in hot {
                    let load = cluster.replica(rid).expect("exists").load[cpu];
                    cluster.report_load(rid, cpu, load + 4.0);
                }
                (cluster, Plb::new(PlbConfig::default(), 4))
            },
            |(mut cluster, mut plb)| {
                black_box(plb.balance(&mut cluster, SimTime::from_secs(60)));
                cluster
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

/// Pruned-candidate paths on hyperscale rings. On ≥ 64 nodes
/// `pick_target` walks the cost-ordered candidate index (capped at
/// `candidate_limit`), so per-decision cost must stay roughly flat from
/// 100 to 1,000 nodes.
fn bench_hyperscale_rings(c: &mut Criterion) {
    for &nodes in &[100u32, 1000] {
        let services = nodes as u64 * 16;
        let (cluster, cpu, disk) = loaded_cluster_at(nodes, services);
        let spec = bc_spec(&cluster, cpu, disk);
        let place_id = format!("plb_place_bc_x4_ring_{nodes}");
        bench_place(c, &place_id, &cluster, &spec, 77);
        c.bench_function(&format!("plb_fix_violations_pass_ring_{nodes}"), |b| {
            b.iter_batched(
                || {
                    let (mut cluster, _, disk) = loaded_cluster_at(nodes, services);
                    push_three_disk_violations(&mut cluster, disk);
                    (cluster, Plb::new(PlbConfig::default(), 3))
                },
                |(mut cluster, mut plb)| {
                    black_box(plb.fix_violations(&mut cluster, SimTime::from_secs(60)));
                    cluster
                },
                criterion::BatchSize::LargeInput,
            )
        });
        c.bench_function(&format!("plb_violation_scan_ring_{nodes}"), |b| {
            b.iter(|| black_box(cluster.violations()))
        });
    }
}

criterion_group!(
    benches,
    bench_placement,
    bench_violation_fixing,
    bench_balancing,
    bench_hyperscale_rings
);
criterion_main!(benches);
