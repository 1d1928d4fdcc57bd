//! The trace sinks on synthetic event streams: phase split,
//! dispatch-ordinal classes, gap charging and trace forwarding.

use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};
use toto_benchtrack::layer::{
    JobSink, KindCounter, LayerClock, PhaseMarks, Probe, Slot, PER_REPORT,
};
use toto_trace::{mask, BufferSink, EventBody, EventKind, TraceEvent, TraceSink};

fn ev(seq: u64, body: EventBody) -> TraceEvent {
    TraceEvent {
        time_secs: seq,
        seq,
        body,
    }
}

fn phase(label: &str) -> EventBody {
    EventBody::Phase {
        label: label.to_string(),
    }
}

fn report() -> EventBody {
    EventBody::MetricReport {
        service: 1,
        replica: 2,
        node: 3,
        resource: "Disk".to_string(),
        value: 0.5,
    }
}

/// A job: bootstrap with one placement, then four dispatches (reports,
/// a create, a failover, nothing), then scoring.
fn job_stream() -> Vec<EventBody> {
    vec![
        phase("bootstrap"),
        EventBody::AnnealSummary {
            service: u64::MAX,
            iterations: 200,
            accepted: 150,
        },
        EventBody::Placement {
            service: 0,
            replicas: 4,
            primary_node: 1,
        },
        EventBody::ModelRefresh {
            node: 0,
            version: 1,
        },
        phase("run"),
        EventBody::Dispatch { queue_seq: 0 },
        report(),
        report(),
        EventBody::Dispatch { queue_seq: 1 },
        EventBody::AdmissionAdmitted {
            service: 9,
            cores: 4.0,
        },
        EventBody::DbCreate {
            service: 9,
            edition: 0,
            slo: 1,
        },
        EventBody::Dispatch { queue_seq: 2 },
        EventBody::Failover {
            service: 9,
            replica: 1,
            from: 0,
            to: 2,
            primary: false,
            reason: "capacity_violation".to_string(),
            promoted: u64::MAX,
        },
        EventBody::Dispatch { queue_seq: 3 },
        phase("score"),
    ]
}

#[test]
fn counting_pass_counts_kinds_and_classes_dispatches_by_ordinal() {
    let mut counter = KindCounter::new(None);
    assert_eq!(counter.kind_mask(), mask::ALL);
    for (seq, body) in job_stream().into_iter().enumerate() {
        counter.record(&ev(seq as u64, body));
    }
    let (Probe::Counts(counts), None) = counter.finish(Instant::now()) else {
        panic!("a counter without a trace returns counts only");
    };
    assert_eq!(
        counts.classes,
        vec![Slot::Report, Slot::Create, Slot::PlbTick, Slot::Quiet]
    );
    assert_eq!(counts.of(EventKind::Dispatch), 4);
    assert_eq!(counts.of(EventKind::MetricReport), 2);
    assert_eq!(counts.of(EventKind::Phase), 3);
    assert_eq!(
        (counts.anneal_iterations, counts.anneal_accepted),
        (200, 150)
    );
}

#[test]
fn span_classes_follow_the_priority_order() {
    let bits = |kinds: &[EventKind]| kinds.iter().fold(0, |m, k| m | k.bit());
    assert_eq!(Slot::of_span(0), Slot::Quiet);
    assert_eq!(
        Slot::of_span(bits(&[EventKind::ChaosNodeCrash, EventKind::Failover])),
        Slot::Chaos
    );
    assert_eq!(
        Slot::of_span(bits(&[EventKind::DbCreate, EventKind::NamingWrite])),
        Slot::Create
    );
    assert_eq!(
        Slot::of_span(bits(&[EventKind::DbDrop, EventKind::NamingDelete])),
        Slot::Drop
    );
    assert_eq!(
        Slot::of_span(bits(&[EventKind::ChaosReportDropped])),
        Slot::Report
    );
    assert_eq!(
        Slot::of_span(bits(&[EventKind::ViolationUnresolved])),
        Slot::PlbTick
    );
    assert_eq!(
        Slot::of_setup_event(EventKind::AnnealSummary),
        Slot::PlbPlace
    );
    assert_eq!(Slot::of_setup_event(EventKind::ModelRefresh), Slot::Compile);
    assert_eq!(Slot::of_setup_event(EventKind::Phase), Slot::Bootstrap);
}

/// Feed `job_stream` to a clock, sleeping before chosen events so each
/// slot has a known lower bound.
fn timed_job(
    trace: Option<BufferSink>,
) -> (
    toto_benchtrack::layer::LayerTimes,
    Duration,
    Option<Vec<u8>>,
) {
    let classes: Arc<[Slot]> = vec![Slot::Report, Slot::Create, Slot::PlbTick, Slot::Quiet].into();
    let start = Instant::now();
    let mut clock = LayerClock::new(trace, classes, start);
    // (event index, ms to sleep before it)
    let naps: &[(usize, u64)] = &[(0, 4), (1, 6), (3, 3), (6, 8), (10, 2), (12, 5), (14, 3)];
    for (seq, body) in job_stream().into_iter().enumerate() {
        if let Some((_, ms)) = naps.iter().find(|(i, _)| *i == seq) {
            sleep(Duration::from_millis(*ms));
        }
        clock.record(&ev(seq as u64, body));
    }
    sleep(Duration::from_millis(4));
    let end = Instant::now();
    let (Probe::Layers(times), trace) = clock.finish(end) else {
        panic!("a clock returns layer times");
    };
    (times, end - start, trace)
}

#[test]
fn timing_pass_charges_each_gap_to_its_layer() {
    let (times, wall, _) = timed_job(None);
    let at_least = |slot: Slot, ms: u64| {
        assert!(
            times.slots[slot.index()] >= Duration::from_millis(ms),
            "{slot:?} got {:?}, slept {ms} ms in it",
            times.slots[slot.index()]
        );
    };
    // Before Phase{bootstrap} and before Phase{run}.
    at_least(Slot::Bootstrap, 4);
    // Before the AnnealSummary.
    at_least(Slot::PlbPlace, 6);
    // Before the ModelRefresh.
    at_least(Slot::Compile, 3);
    // Inside dispatch 0 (a report span): before the first report, and
    // the per-report events leave the gap open.
    at_least(Slot::Report, 8);
    // Inside dispatch 1 (create), 2 (failover) and 3 (quiet).
    at_least(Slot::Create, 2);
    at_least(Slot::PlbTick, 5);
    at_least(Slot::Quiet, 3);
    // After Phase{score}.
    at_least(Slot::Score, 4);
    assert_eq!(times.slots[Slot::Encode.index()], Duration::ZERO);
    assert_eq!(times.dispatches, 4);
    assert_eq!(times.setup_placements, 1);
    assert!(times.marks.run < times.marks.score);
    // The slots partition the job: every gap is charged exactly once.
    let total: Duration = times.slots.iter().sum();
    assert_eq!(total, wall);
}

#[test]
fn traced_jobs_forward_every_event_and_carve_out_encode_time() {
    let (times, wall, trace) = timed_job(Some(BufferSink::new()));
    let mut direct = BufferSink::new();
    for (seq, body) in job_stream().into_iter().enumerate() {
        direct.record(&ev(seq as u64, body));
    }
    assert_eq!(trace.as_deref(), Some(direct.bytes()));
    assert!(times.slots[Slot::Encode.index()] > Duration::ZERO);
    // Report spans keep their sleeps even though the reports now arrive.
    assert!(times.slots[Slot::Report.index()] >= Duration::from_millis(8));
    let total: Duration = times.slots.iter().sum();
    assert_eq!(total, wall);
}

#[test]
fn masks_build_only_what_each_pass_needs() {
    assert_eq!(PhaseMarks::new(None).kind_mask(), EventKind::Phase.bit());
    assert_eq!(
        PhaseMarks::new(Some(BufferSink::new())).kind_mask(),
        mask::ALL
    );
    let clock = LayerClock::new(None, Arc::from([]), Instant::now());
    assert_eq!(clock.kind_mask(), mask::ALL & !PER_REPORT);
    assert_eq!(clock.kind_mask() & EventKind::MetricReport.bit(), 0);
    let traced = LayerClock::new(Some(BufferSink::new()), Arc::from([]), Instant::now());
    assert_eq!(traced.kind_mask(), mask::ALL);
}

#[test]
fn phase_marks_stamp_run_and_score_and_forward_the_trace() {
    let mut marks = PhaseMarks::new(Some(BufferSink::new()));
    for (seq, body) in job_stream().into_iter().enumerate() {
        marks.record(&ev(seq as u64, body));
    }
    let (Probe::Marks(m), Some(bytes)) = marks.finish(Instant::now()) else {
        panic!("phase marks return marks and the forwarded trace");
    };
    assert!(m.run <= m.score);
    let events: Vec<TraceEvent> = job_stream()
        .into_iter()
        .enumerate()
        .map(|(seq, body)| ev(seq as u64, body))
        .collect();
    assert_eq!(bytes, toto_trace::codec::encode_all(&events));
}
