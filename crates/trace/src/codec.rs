//! Compact self-describing binary trace encoding.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic    8 bytes  "TOTOTRC\0"
//! version  1 byte   FORMAT_VERSION
//! kinds    1 byte   kind count, then per kind:
//!            id: 1 byte, name: str, field count: 1 byte,
//!            per field: type: 1 byte, name: str
//! events   repeated until EOF:
//!            kind id: 1 byte, time_secs: varint, seq: varint,
//!            fields in schema order (u64: varint, f64: 8 bytes LE bits,
//!            str: varint length + UTF-8 bytes)
//! ```
//!
//! The schema table makes the format self-describing: a reader built
//! against an older event vocabulary can still dump, summarize, and diff
//! newer traces generically. Nothing in the stream depends on wall-clock
//! time, pointer values, or map iteration order, so identical runs encode
//! to identical bytes.

use crate::event::{EventBody, EventKind, FieldDef, FieldType, TraceEvent, Value, ALL_KINDS};

/// File magic; the trailing NUL pads it to 8 bytes.
pub const MAGIC: &[u8; 8] = b"TOTOTRC\0";

/// Bump on any layout change (kind table entries are append-only and do
/// NOT require a bump; readers skip unknown kinds by schema).
pub const FORMAT_VERSION: u8 = 1;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode the header (magic + version + schema table) into `out`.
pub fn encode_header(out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    out.push(ALL_KINDS.len() as u8);
    for kind in ALL_KINDS {
        out.push(kind.id());
        write_str(out, kind.name());
        let fields = kind.fields();
        out.push(fields.len() as u8);
        for f in fields {
            out.push(f.ty as u8);
            write_str(out, f.name);
        }
    }
}

/// Encode one event record into `out`.
pub fn encode_event(out: &mut Vec<u8>, ev: &TraceEvent) {
    out.push(ev.body.kind().id());
    write_varint(out, ev.time_secs);
    write_varint(out, ev.seq);
    for value in ev.body.values() {
        match value {
            Value::U64(v) => write_varint(out, v),
            Value::F64(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            Value::Str(s) => write_str(out, &s),
        }
    }
}

/// A decoding failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

/// Schema of one kind as read back from a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindSchema {
    pub id: u8,
    pub name: String,
    pub fields: Vec<(String, FieldType)>,
}

/// One decoded event; `kind` indexes into [`TraceFile::kinds`] by id.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedEvent {
    pub time_secs: u64,
    pub seq: u64,
    pub kind: u8,
    pub values: Vec<Value>,
}

/// A fully decoded trace: embedded schema plus the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    pub format_version: u8,
    pub kinds: Vec<KindSchema>,
    pub events: Vec<DecodedEvent>,
}

impl TraceFile {
    /// Schema entry for a kind id, if present in this file.
    pub fn schema(&self, id: u8) -> Option<&KindSchema> {
        self.kinds.iter().find(|k| k.id == id)
    }

    /// Kind name for an id ("kind<N>" if the schema is missing it).
    pub fn kind_name(&self, id: u8) -> String {
        match self.schema(id) {
            Some(k) => k.name.clone(),
            None => format!("kind{id}"),
        }
    }

    /// Render one event as a stable human-readable line.
    pub fn render(&self, ev: &DecodedEvent) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "[{:>8}s #{:>6}] {}",
            ev.time_secs,
            ev.seq,
            self.kind_name(ev.kind)
        );
        let names: Vec<&str> = match self.schema(ev.kind) {
            Some(k) => k.fields.iter().map(|(n, _)| n.as_str()).collect(),
            None => Vec::new(),
        };
        for (i, val) in ev.values.iter().enumerate() {
            match names.get(i) {
                Some(name) => {
                    let _ = write!(line, " {name}={val}");
                }
                None => {
                    let _ = write!(line, " f{i}={val}");
                }
            }
        }
        line
    }

    /// Value of the first field with the given name, if any.
    pub fn field<'a>(&self, ev: &'a DecodedEvent, name: &str) -> Option<&'a Value> {
        let schema = self.schema(ev.kind)?;
        let idx = schema.fields.iter().position(|(n, _)| n == name)?;
        ev.values.get(idx)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        match self.buf.get(self.pos) {
            Some(b) => {
                self.pos += 1;
                Ok(*b)
            }
            None => Err(self.err("unexpected end of trace")),
        }
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 64 {
                return Err(self.err("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.varint()? as usize;
        // `len` comes from the input; `pos + len` could overflow.
        if len > self.buf.len() - self.pos {
            return Err(self.err("string runs past end of trace"));
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(self.err("invalid UTF-8 in string field")),
        }
    }

    fn f64_bits(&mut self) -> Result<f64, DecodeError> {
        if self.pos + 8 > self.buf.len() {
            return Err(self.err("f64 runs past end of trace"));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }
}

/// Decode a complete trace byte stream.
pub fn decode(bytes: &[u8]) -> Result<TraceFile, DecodeError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(r.err("bad magic: not a toto trace file"));
    }
    r.pos = MAGIC.len();
    let format_version = r.byte()?;
    if format_version != FORMAT_VERSION {
        return Err(r.err(format!(
            "unsupported format version {format_version} (reader supports {FORMAT_VERSION})"
        )));
    }
    let kind_count = r.byte()?;
    let mut kinds = Vec::with_capacity(kind_count as usize);
    for _ in 0..kind_count {
        let id = r.byte()?;
        let name = r.string()?;
        let field_count = r.byte()?;
        let mut fields = Vec::with_capacity(field_count as usize);
        for _ in 0..field_count {
            let ty_id = r.byte()?;
            let ty = FieldType::from_id(ty_id)
                .ok_or_else(|| r.err(format!("unknown field type {ty_id}")))?;
            let fname = r.string()?;
            fields.push((fname, ty));
        }
        kinds.push(KindSchema { id, name, fields });
    }

    let mut events = Vec::new();
    while r.pos < bytes.len() {
        let kind = r.byte()?;
        let schema = kinds
            .iter()
            .find(|k| k.id == kind)
            .ok_or_else(|| r.err(format!("event with undeclared kind id {kind}")))?;
        let time_secs = r.varint()?;
        let seq = r.varint()?;
        let mut values = Vec::with_capacity(schema.fields.len());
        for (_, ty) in &schema.fields {
            let value = match ty {
                FieldType::U64 => Value::U64(r.varint()?),
                FieldType::F64 => Value::F64(r.f64_bits()?),
                FieldType::Str => Value::Str(r.string()?),
            };
            values.push(value);
        }
        events.push(DecodedEvent {
            time_secs,
            seq,
            kind,
            values,
        });
    }
    Ok(TraceFile {
        format_version,
        kinds,
        events,
    })
}

/// Encode a batch of events (header + records) into a fresh buffer.
pub fn encode_all(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(512 + events.len() * 16);
    encode_header(&mut out);
    for ev in events {
        encode_event(&mut out, ev);
    }
    out
}

/// The writer-side schema (what [`encode_header`] emits), for comparing
/// against a decoded file's embedded schema.
pub fn writer_schema() -> Vec<KindSchema> {
    ALL_KINDS
        .iter()
        .map(|k| KindSchema {
            id: k.id(),
            name: k.name().to_string(),
            fields: k
                .fields()
                .iter()
                .map(|FieldDef { name, ty }| (name.to_string(), *ty))
                .collect(),
        })
        .collect()
}

/// Convenience: re-type a decoded event back into the writer's enum if the
/// schema matches the current vocabulary. Used by tests.
pub fn retype(file: &TraceFile, ev: &DecodedEvent) -> Option<EventBody> {
    let kind = EventKind::from_id(ev.kind)?;
    let schema = file.schema(ev.kind)?;
    let expected: Vec<(String, FieldType)> = kind
        .fields()
        .iter()
        .map(|f| (f.name.to_string(), f.ty))
        .collect();
    if schema.fields != expected {
        return None;
    }
    let vals = &ev.values;
    let u = |i: usize| -> Option<u64> {
        match vals.get(i)? {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    };
    let f = |i: usize| -> Option<f64> {
        match vals.get(i)? {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    };
    let s = |i: usize| -> Option<String> {
        match vals.get(i)? {
            Value::Str(v) => Some(v.clone()),
            _ => None,
        }
    };
    Some(match kind {
        EventKind::Phase => EventBody::Phase { label: s(0)? },
        EventKind::Dispatch => EventBody::Dispatch { queue_seq: u(0)? },
        EventKind::Placement => EventBody::Placement {
            service: u(0)?,
            replicas: u(1)?,
            primary_node: u(2)?,
        },
        EventKind::PlacementRejected => EventBody::PlacementRejected {
            needed: u(0)?,
            feasible: u(1)?,
        },
        EventKind::AnnealSummary => EventBody::AnnealSummary {
            service: u(0)?,
            iterations: u(1)?,
            accepted: u(2)?,
        },
        EventKind::ViolationUnresolved => EventBody::ViolationUnresolved {
            node: u(0)?,
            resource: u(1)?,
        },
        EventKind::Failover => EventBody::Failover {
            service: u(0)?,
            replica: u(1)?,
            from: u(2)?,
            to: u(3)?,
            primary: u(4)? != 0,
            reason: s(5)?,
            promoted: u(6)?,
        },
        EventKind::NamingWrite => EventBody::NamingWrite {
            key: s(0)?,
            version: u(1)?,
        },
        EventKind::MetricReport => EventBody::MetricReport {
            service: u(0)?,
            replica: u(1)?,
            node: u(2)?,
            resource: s(3)?,
            value: f(4)?,
        },
        EventKind::ModelRefresh => EventBody::ModelRefresh {
            node: u(0)?,
            version: u(1)?,
        },
        EventKind::AdmissionAdmitted => EventBody::AdmissionAdmitted {
            service: u(0)?,
            cores: f(1)?,
        },
        EventKind::AdmissionRedirected => EventBody::AdmissionRedirected {
            cores: f(0)?,
            available: f(1)?,
        },
        EventKind::DbCreate => EventBody::DbCreate {
            service: u(0)?,
            edition: u(1)?,
            slo: u(2)?,
        },
        EventKind::DbDrop => EventBody::DbDrop {
            service: u(0)?,
            edition: u(1)?,
        },
        EventKind::BootstrapPlacementFailed => EventBody::BootstrapPlacementFailed {
            draft: u(0)?,
            vcores: u(1)?,
            disk_gb: f(2)?,
        },
        EventKind::ChaosNodeCrash => EventBody::ChaosNodeCrash {
            node: u(0)?,
            downtime_secs: u(1)?,
        },
        EventKind::ChaosNodeRestart => EventBody::ChaosNodeRestart { node: u(0)? },
        EventKind::ChaosNodeDecommission => EventBody::ChaosNodeDecommission { node: u(0)? },
        EventKind::ChaosCapacityDegrade => EventBody::ChaosCapacityDegrade {
            resource: s(0)?,
            node_capacity: f(1)?,
        },
        EventKind::ChaosReportDropped => EventBody::ChaosReportDropped {
            service: u(0)?,
            replica: u(1)?,
            node: u(2)?,
            resource: s(3)?,
        },
        EventKind::ChaosStorm => EventBody::ChaosStorm {
            nodes: u(0)?,
            downtime_secs: u(1)?,
        },
        EventKind::OracleViolation => EventBody::OracleViolation {
            oracle: s(0)?,
            detail: s(1)?,
        },
        EventKind::ChaosNodeDrain => EventBody::ChaosNodeDrain {
            node: u(0)?,
            downtime_secs: u(1)?,
        },
        EventKind::RegionRingAdmit => EventBody::RegionRingAdmit {
            ring: s(0)?,
            db: s(1)?,
            cores: f(2)?,
        },
        EventKind::RegionRingRedirect => EventBody::RegionRingRedirect {
            from: s(0)?,
            to: s(1)?,
            cores: f(2)?,
        },
        EventKind::RegionRingUp => EventBody::RegionRingUp {
            ring: s(0)?,
            nodes: u(1)?,
            logical_cores: f(2)?,
        },
        EventKind::RegionRingDrain => EventBody::RegionRingDrain {
            ring: s(0)?,
            tenants: u(1)?,
            cores: f(2)?,
        },
        EventKind::NamingDelete => EventBody::NamingDelete {
            key: s(0)?,
            existed: u(1)?,
        },
        EventKind::ScenarioFit => EventBody::ScenarioFit {
            family: s(0)?,
            tested: u(1)?,
            accepted: u(2)?,
            min_p: f(3)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                time_secs: 0,
                seq: 0,
                body: EventBody::Phase {
                    label: "bootstrap".into(),
                },
            },
            TraceEvent {
                time_secs: 1200,
                seq: 1,
                body: EventBody::MetricReport {
                    service: 42,
                    replica: 1,
                    node: 7,
                    resource: "cpu".into(),
                    value: 0.375,
                },
            },
            TraceEvent {
                time_secs: 3600,
                seq: 2,
                body: EventBody::Failover {
                    service: 42,
                    replica: 0,
                    from: 7,
                    to: 9,
                    primary: true,
                    reason: "node_drain".into(),
                    promoted: u64::MAX,
                },
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let events = sample_events();
        let bytes = encode_all(&events);
        let file = decode(&bytes).expect("decodes");
        assert_eq!(file.format_version, FORMAT_VERSION);
        assert_eq!(file.kinds, writer_schema());
        assert_eq!(file.events.len(), events.len());
        for (orig, dec) in events.iter().zip(&file.events) {
            assert_eq!(dec.time_secs, orig.time_secs);
            assert_eq!(dec.seq, orig.seq);
            assert_eq!(dec.kind, orig.body.kind().id());
            assert_eq!(dec.values, orig.body.values());
            assert_eq!(retype(&file, dec), Some(orig.body.clone()));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode_all(&sample_events());
        let b = encode_all(&sample_events());
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"not a trace").is_err());
        let mut bytes = encode_all(&sample_events());
        bytes.truncate(bytes.len() - 1);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_oversized_string_length() {
        // A one-kind header whose kind-name length is u64::MAX.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[FORMAT_VERSION, 1, 0]);
        write_varint(&mut bytes, u64::MAX);
        let err = decode(&bytes).expect_err("length exceeds the input");
        assert_eq!(err.message, "string runs past end of trace");
    }

    #[test]
    fn varint_round_trip_extremes() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader { buf: &buf, pos: 0 };
            assert_eq!(r.varint().expect("valid varint"), v);
            assert_eq!(r.pos, buf.len());
        }
    }
}
