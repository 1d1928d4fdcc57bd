//! Trace sinks: where emitted events go.
//!
//! All sinks are single-threaded by design — the session that feeds them
//! is thread-local (one sink per fleet worker / test thread), so sharing
//! uses `Rc<RefCell<…>>`, not locks.

use crate::event::{mask, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Destination for emitted trace events.
///
/// `kind_mask` is sampled once at install time; emit callsites whose kind
/// bit is clear never construct their event payload at all.
pub trait TraceSink {
    fn record(&mut self, ev: &TraceEvent);

    /// Bit mask of [`crate::EventKind`]s this sink wants (default: all).
    fn kind_mask(&self) -> u64 {
        mask::ALL
    }
}

/// Discards everything; its empty kind mask means emit closures never run,
/// making installed-but-disabled tracing cost one thread-local flag check.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {}

    fn kind_mask(&self) -> u64 {
        mask::NONE
    }
}

/// Bounded in-memory flight recorder: keeps the most recent `capacity`
/// events, counting (not storing) everything older.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    mask: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity: capacity.max(1),
            dropped: 0,
            mask: mask::ALL,
        }
    }

    /// Restrict which kinds are recorded (bits from [`crate::EventKind::bit`]).
    pub fn with_mask(mut self, mask: u64) -> RingSink {
        self.mask = mask;
        self
    }

    /// Events currently held, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev.clone());
    }

    fn kind_mask(&self) -> u64 {
        self.mask
    }
}

/// Buffers the full encoded trace in memory; `bytes()` yields the header
/// followed by every recorded event, as [`crate::codec::encode_all`] would.
#[derive(Debug)]
pub struct BufferSink {
    out: Vec<u8>,
    mask: u64,
}

impl BufferSink {
    pub fn new() -> BufferSink {
        let mut out = Vec::with_capacity(4096);
        crate::codec::encode_header(&mut out);
        BufferSink {
            out,
            mask: mask::ALL,
        }
    }

    pub fn with_mask(mut self, mask: u64) -> BufferSink {
        self.mask = mask;
        self
    }

    /// The encoded trace so far (header + events).
    pub fn bytes(&self) -> &[u8] {
        &self.out
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

impl Default for BufferSink {
    fn default() -> Self {
        BufferSink::new()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        crate::codec::encode_event(&mut self.out, ev);
    }

    fn kind_mask(&self) -> u64 {
        self.mask
    }
}

/// Clonable handle around a sink, so the caller can keep inspecting it
/// (flight-recorder snapshots, encoded bytes) while a clone is installed
/// as the thread's active sink.
pub struct Shared<S: TraceSink>(Rc<RefCell<S>>);

impl<S: TraceSink> Shared<S> {
    pub fn new(sink: S) -> Shared<S> {
        Shared(Rc::new(RefCell::new(sink)))
    }

    /// Run `f` against the underlying sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl<S: TraceSink> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

impl<S: TraceSink> TraceSink for Shared<S> {
    fn record(&mut self, ev: &TraceEvent) {
        self.0.borrow_mut().record(ev);
    }

    fn kind_mask(&self) -> u64 {
        self.0.borrow().kind_mask()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBody;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            time_secs: seq * 10,
            seq,
            body: EventBody::Dispatch { queue_seq: seq },
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&ev(i));
        }
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn null_sink_wants_nothing() {
        assert_eq!(NullSink.kind_mask(), mask::NONE);
    }

    #[test]
    fn buffer_sink_matches_batch_encoding() {
        let mut sink = BufferSink::new();
        let events: Vec<TraceEvent> = (0..4).map(ev).collect();
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.bytes(), crate::codec::encode_all(&events).as_slice());
    }

    #[test]
    fn shared_handle_observes_records() {
        let ring = Shared::new(RingSink::new(8));
        let mut installed = ring.clone();
        installed.record(&ev(1));
        installed.record(&ev(2));
        assert_eq!(ring.with(|r| r.len()), 2);
    }
}
