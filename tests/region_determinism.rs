//! Parallel-determinism contract of the region subsystem (toto-region).
//!
//! A region run is a pure function of its `(spec, seed)` pair, and the
//! per-ring Phase B jobs run on a worker pool — so the whole artifact
//! set (per-ring run records, per-ring traces, the region record and
//! the region control-plane trace) must be **byte-identical at any
//! worker count**. On top of that, the region preserves the paper's
//! §5.2 seed-isolation discipline: perturbing one ring's PLB seed may
//! change that ring's placement decisions, but sibling rings — and
//! every routing decision the control plane makes — stay byte-identical.

use toto_fleet::RunRecord;
use toto_region::{RegionRunner, RegionSpec};

fn run_region(spec: &RegionSpec, threads: usize) -> toto_region::RegionRunOutput {
    let runner = RegionRunner {
        threads,
        trace: true,
        ..RegionRunner::default()
    };
    let out = runner.run(spec);
    assert!(out.report.all_completed(), "every ring job must complete");
    out
}

/// Each ring's rendered run record, spec order.
fn ring_records(out: &toto_region::RegionRunOutput) -> Vec<String> {
    RunRecord::from_report(&out.report)
        .iter()
        .map(|r| r.to_json().render())
        .collect()
}

/// Each ring's trace bytes, spec order.
fn ring_traces(out: &toto_region::RegionRunOutput) -> Vec<Vec<u8>> {
    out.report
        .completed()
        .map(|(_, o)| o.trace.clone().expect("rings are traced"))
        .collect()
}

#[test]
fn region_run_is_byte_identical_on_1_and_8_threads() {
    let spec = RegionSpec::named("ci2").expect("built-in region");
    let serial = run_region(&spec, 1);
    let parallel = run_region(&spec, 8);

    assert_eq!(
        serial.record.to_json().render(),
        parallel.record.to_json().render(),
        "region record must not depend on worker count"
    );
    assert_eq!(
        serial.plan.trace, parallel.plan.trace,
        "region control-plane trace must not depend on worker count"
    );
    assert_eq!(
        ring_records(&serial),
        ring_records(&parallel),
        "ring records must not depend on worker count"
    );
    assert!(
        ring_traces(&serial) == ring_traces(&parallel),
        "ring traces must not depend on worker count"
    );
}

#[test]
fn plb_perturbation_of_one_ring_leaves_siblings_byte_identical() {
    let spec = RegionSpec::named("ci2").expect("built-in region");
    let mut perturbed = spec.clone();
    perturbed.rings[0].plb_seed = Some(0xDEAD_BEEF);

    let base = run_region(&spec, 4);
    let other = run_region(&perturbed, 4);
    let (base_traces, other_traces) = (ring_traces(&base), ring_traces(&other));

    // The perturbed ring's placement decisions (hence its trace) move...
    assert_ne!(
        base_traces[0], other_traces[0],
        "a PLB perturbation must actually change the perturbed ring"
    );
    // ...but the sibling replays byte-identically: record and trace.
    assert_eq!(
        ring_records(&base)[1],
        ring_records(&other)[1],
        "sibling ring record must be unaffected by the perturbation"
    );
    assert_eq!(
        base_traces[1], other_traces[1],
        "sibling ring trace must be byte-identical under the perturbation"
    );
    // The control plane never consumes a PLB seed at all.
    assert_eq!(
        base.plan.trace, other.plan.trace,
        "routing must be blind to PLB seeds"
    );
    for (a, b) in base.plan.rings.iter().zip(&other.plan.rings) {
        assert_eq!(a.schedule, b.schedule, "directed schedules must match");
    }
}
