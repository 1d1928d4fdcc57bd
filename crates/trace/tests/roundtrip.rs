//! Codec round-trip coverage: every event kind (including the chaos
//! kinds) must survive encode → decode → re-encode byte-identically
//! through the in-memory sink, and malformed inputs must produce a typed
//! [`DecodeError`], never a panic.

use toto_trace::codec::{decode, encode_all, retype, DecodeError, FORMAT_VERSION, MAGIC};
use toto_trace::{BufferSink, EventBody, TraceEvent, TraceSink, ALL_KINDS, KIND_COUNT};

/// One representative event per kind, in kind-id order.
fn one_event_per_kind() -> Vec<TraceEvent> {
    let bodies = vec![
        EventBody::Phase {
            label: "run".into(),
        },
        EventBody::Dispatch { queue_seq: 7 },
        EventBody::Placement {
            service: 1,
            replicas: 2,
            primary_node: 3,
        },
        EventBody::PlacementRejected {
            needed: 4,
            feasible: 1,
        },
        EventBody::AnnealSummary {
            service: 1,
            iterations: 200,
            accepted: 12,
        },
        EventBody::ViolationUnresolved {
            node: 5,
            resource: 0,
        },
        EventBody::Failover {
            service: 9,
            replica: 1,
            from: 2,
            to: 3,
            primary: true,
            reason: "node_crash".into(),
            promoted: u64::MAX,
        },
        EventBody::NamingWrite {
            key: "toto/models".into(),
            version: 3,
        },
        EventBody::MetricReport {
            service: 9,
            replica: 0,
            node: 2,
            resource: "cpu".into(),
            value: -0.0, // signed zero must survive bitwise
        },
        EventBody::ModelRefresh {
            node: 2,
            version: 4,
        },
        EventBody::AdmissionAdmitted {
            service: 10,
            cores: 4.0,
        },
        EventBody::AdmissionRedirected {
            cores: 8.0,
            available: 2.5,
        },
        EventBody::DbCreate {
            service: 10,
            edition: 1,
            slo: 42,
        },
        EventBody::DbDrop {
            service: 10,
            edition: 1,
        },
        EventBody::BootstrapPlacementFailed {
            draft: 3,
            vcores: 16,
            disk_gb: 1024.0,
        },
        EventBody::ChaosNodeCrash {
            node: 4,
            downtime_secs: 1800,
        },
        EventBody::ChaosNodeRestart { node: 4 },
        EventBody::ChaosNodeDecommission { node: 6 },
        EventBody::ChaosCapacityDegrade {
            resource: "Disk".into(),
            node_capacity: 18_000.0,
        },
        EventBody::ChaosReportDropped {
            service: 9,
            replica: 0,
            node: 2,
            resource: "cpu".into(),
        },
        EventBody::ChaosStorm {
            nodes: 3,
            downtime_secs: 900,
        },
        EventBody::OracleViolation {
            oracle: "replica_on_down_node".into(),
            detail: "replica 7 on node 4".into(),
        },
        EventBody::ChaosNodeDrain {
            node: 5,
            downtime_secs: 3600,
        },
        EventBody::RegionRingAdmit {
            ring: "ring-1".into(),
            db: "gp_4-17".into(),
            cores: 4.0,
        },
        EventBody::RegionRingRedirect {
            from: "ring-0".into(),
            to: "ring-2".into(),
            cores: 96.0,
        },
        EventBody::RegionRingUp {
            ring: "ring-3".into(),
            nodes: 14,
            logical_cores: 1344.0,
        },
        EventBody::RegionRingDrain {
            ring: "ring-1".into(),
            tenants: 42,
            cores: 380.0,
        },
        EventBody::NamingDelete {
            key: "services/gp_4-17".into(),
            existed: 1,
        },
        EventBody::ScenarioFit {
            family: "creates/gp".into(),
            tested: 48,
            accepted: 47,
            min_p: 0.03,
        },
    ];
    assert_eq!(bodies.len(), KIND_COUNT, "one sample body per kind");
    for (i, (body, kind)) in bodies.iter().zip(ALL_KINDS).enumerate() {
        assert_eq!(body.kind(), kind, "sample {i} out of kind-id order");
    }
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| TraceEvent {
            time_secs: (i as u64) * 60,
            seq: i as u64,
            body,
        })
        .collect()
}

#[test]
fn every_kind_round_trips_through_buffer_sink() {
    let events = one_event_per_kind();
    let mut sink = BufferSink::new();
    for ev in &events {
        sink.record(ev);
    }
    let bytes = sink.into_bytes();
    let file = decode(&bytes).expect("buffer trace decodes");
    assert_eq!(file.format_version, FORMAT_VERSION);
    assert_eq!(file.events.len(), KIND_COUNT);
    // Re-type every decoded event back into the writer vocabulary and
    // re-encode: the bytes must be identical to the first encoding.
    let retyped: Vec<TraceEvent> = file
        .events
        .iter()
        .map(|dec| TraceEvent {
            time_secs: dec.time_secs,
            seq: dec.seq,
            body: retype(&file, dec).expect("current vocabulary retypes"),
        })
        .collect();
    assert_eq!(retyped, events);
    assert_eq!(encode_all(&retyped), bytes, "re-encode is byte-identical");
}

#[test]
fn truncated_trace_yields_typed_error_at_every_cut() {
    let bytes = encode_all(&one_event_per_kind());
    // Cutting the stream anywhere inside the header or mid-record must
    // produce a DecodeError (never a panic). Cuts that land exactly on a
    // record boundary decode fine — just to fewer events.
    for cut in 0..bytes.len() {
        let truncated = &bytes[..cut];
        match decode(truncated) {
            Ok(file) => assert!(file.events.len() <= KIND_COUNT),
            Err(DecodeError { offset, .. }) => assert!(offset <= cut),
        }
    }
}

#[test]
fn single_byte_overwrites_never_panic() {
    let bytes = encode_all(&one_event_per_kind());
    // A fixed-seed LCG: the same 4,096 overwrites every run.
    let mut state: u64 = 42;
    for _ in 0..4096 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = state >> 16;
        let at = (r % bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        // A non-zero XOR always changes the byte.
        damaged[at] ^= ((r >> 24) % 255 + 1) as u8;
        // Whatever decodes must also render and retype without panicking,
        // as `trace_tool dump` and `diff` do.
        if let Ok(file) = decode(&damaged) {
            for ev in &file.events {
                let _ = file.render(ev);
                let _ = retype(&file, ev);
            }
        }
    }
}

#[test]
fn corrupt_header_yields_typed_error() {
    // Bad magic.
    let err = decode(b"NOTATRACE").expect_err("bad magic rejected");
    assert!(err.message.contains("magic"), "got: {err}");

    // Unsupported format version.
    let mut bytes = encode_all(&[]);
    bytes[MAGIC.len()] = FORMAT_VERSION + 1;
    let err = decode(&bytes).expect_err("future version rejected");
    assert!(err.message.contains("version"), "got: {err}");

    // Undeclared kind id in the event stream.
    let mut bytes = encode_all(&[]);
    bytes.push(0xFE);
    let err = decode(&bytes).expect_err("undeclared kind rejected");
    assert!(err.message.contains("kind"), "got: {err}");
}
