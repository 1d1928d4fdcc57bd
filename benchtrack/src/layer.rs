//! Trace sinks that turn the simulator's event stream into host-time
//! measurements, from outside the simulator.
//!
//! The simulator emits [`TraceEvent`]s through the thread-local
//! `toto_trace` session and never reads a clock. Each fleet job the
//! benchmark runs installs one of three sinks for its whole run:
//!
//! * [`PhaseMarks`] (end-to-end pass): its mask covers only `Phase`, so
//!   no other event payload is ever built. It stamps the `run` and
//!   `score` markers, which split a job into set-up, run and score.
//! * [`KindCounter`] (counting pass): every kind. It counts events per
//!   kind and labels each dispatch, by its ordinal, with the [`Slot`]
//!   its span belongs to.
//! * [`LayerClock`] (timing pass): every kind except the per-report
//!   ones ([`PER_REPORT`]). It stamps `Instant::now()` on each event and
//!   charges the host time since the previous event to a [`Slot`]:
//!   during set-up, to the layer that emits the event; during the run,
//!   to the class the counting pass gave the current dispatch.
//!
//! A job that records the product's trace (`FleetJob::trace`) forwards
//! every event to a [`BufferSink`] from whichever sink is installed, so
//! the trace bytes are exactly those `FleetJob::run` would produce.

use std::sync::Arc;
use std::time::{Duration, Instant};
use toto_trace::{mask, BufferSink, EventBody, EventKind, TraceEvent, TraceSink, KIND_COUNT};

/// Where a stretch of a job's host time is charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Set-up outside PLB placement and model compiles: ring
    /// construction, persisted-state seeding, scheduling the run.
    Bootstrap,
    /// PLB placement during set-up (bootstrap placements and balance).
    PlbPlace,
    /// Run-phase dispatches that failed over replicas or left a
    /// violation unresolved.
    PlbTick,
    /// Run-phase dispatches of the replica metric-report loop.
    Report,
    /// RgManager model compiles.
    Compile,
    /// Run-phase dispatches that pushed a create through admission.
    Create,
    /// Run-phase dispatches that dropped a database.
    Drop,
    /// Run-phase dispatches that injected a chaos fault.
    Chaos,
    /// Run-phase dispatches that emitted no layer event: idle ticks,
    /// snapshots, the event queue itself.
    Quiet,
    /// Encoding the product's trace (forwarded `BufferSink::record`).
    Encode,
    /// Scoring after the event loop ends.
    Score,
}

/// Number of [`Slot`]s.
pub const SLOTS: usize = 11;

/// Kinds emitted once per replica report or naming operation. The
/// timing pass leaves them out of its mask: building and stamping
/// millions of them would cost more than the code they delimit.
pub const PER_REPORT: u64 =
    bit(EventKind::MetricReport) | bit(EventKind::NamingWrite) | bit(EventKind::NamingDelete);

const CHAOS_FAULTS: u64 = bit(EventKind::ChaosNodeCrash)
    | bit(EventKind::ChaosNodeRestart)
    | bit(EventKind::ChaosNodeDecommission)
    | bit(EventKind::ChaosCapacityDegrade)
    | bit(EventKind::ChaosStorm)
    | bit(EventKind::ChaosNodeDrain);
const CREATES: u64 = bit(EventKind::DbCreate)
    | bit(EventKind::AdmissionAdmitted)
    | bit(EventKind::AdmissionRedirected);
const REPORTS: u64 = bit(EventKind::MetricReport) | bit(EventKind::ChaosReportDropped);
const PLB_MOVES: u64 = bit(EventKind::Failover) | bit(EventKind::ViolationUnresolved);
const PLACEMENT: u64 = bit(EventKind::Placement)
    | bit(EventKind::PlacementRejected)
    | bit(EventKind::AnnealSummary)
    | bit(EventKind::BootstrapPlacementFailed)
    | PLB_MOVES;

const fn bit(kind: EventKind) -> u64 {
    1u64 << (kind as u8)
}

impl Slot {
    /// Index into a `[_; SLOTS]` table.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The class of one run-phase dispatch span, from the kinds it
    /// emitted. A span that did several things takes the first match in
    /// this order, so a crash that fails replicas over counts as chaos.
    pub fn of_span(kinds: u64) -> Slot {
        if kinds & CHAOS_FAULTS != 0 {
            Slot::Chaos
        } else if kinds & CREATES != 0 {
            Slot::Create
        } else if kinds & bit(EventKind::DbDrop) != 0 {
            Slot::Drop
        } else if kinds & REPORTS != 0 {
            Slot::Report
        } else if kinds & bit(EventKind::ModelRefresh) != 0 {
            Slot::Compile
        } else if kinds & PLB_MOVES != 0 {
            Slot::PlbTick
        } else {
            Slot::Quiet
        }
    }

    /// The slot charged with the set-up time that ends in an event of
    /// `kind`. Without per-report kinds in the mask, the persisted-state
    /// seeding before the first model compile lands in `Compile`.
    pub fn of_setup_event(kind: EventKind) -> Slot {
        if bit(kind) & PLACEMENT != 0 {
            Slot::PlbPlace
        } else if kind == EventKind::ModelRefresh {
            Slot::Compile
        } else {
            Slot::Bootstrap
        }
    }
}

fn phase_label(ev: &TraceEvent) -> Option<&str> {
    match &ev.body {
        EventBody::Phase { label } => Some(label),
        _ => None,
    }
}

/// What a job's sink hands back when the job ends.
pub trait JobSink: TraceSink + 'static {
    /// The probe's result and the product's trace bytes (if the job
    /// traces). `end` is the host time the job returned.
    fn finish(&mut self, end: Instant) -> (Probe, Option<Vec<u8>>);
}

/// One job's measurement, by pass.
#[derive(Debug)]
pub enum Probe {
    /// End-to-end pass: the phase markers.
    Marks(Marks),
    /// Counting pass.
    Counts(KindCounts),
    /// Timing pass.
    Layers(LayerTimes),
}

/// Host time of the `run` and `score` phase markers.
#[derive(Clone, Copy, Debug)]
pub struct Marks {
    /// `Phase{"run"}`: set-up ends, the event loop starts.
    pub run: Instant,
    /// `Phase{"score"}`: the event loop ended.
    pub score: Instant,
}

/// End-to-end pass sink.
pub struct PhaseMarks {
    trace: Option<BufferSink>,
    run: Option<Instant>,
    score: Option<Instant>,
}

impl PhaseMarks {
    /// A sink that forwards to `trace` when the job records one.
    pub fn new(trace: Option<BufferSink>) -> Self {
        PhaseMarks {
            trace,
            run: None,
            score: None,
        }
    }
}

impl TraceSink for PhaseMarks {
    fn record(&mut self, ev: &TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(ev);
        }
        match phase_label(ev) {
            Some("run") => self.run = Some(Instant::now()),
            Some("score") => self.score = Some(Instant::now()),
            _ => {}
        }
    }

    fn kind_mask(&self) -> u64 {
        if self.trace.is_some() {
            mask::ALL
        } else {
            bit(EventKind::Phase)
        }
    }
}

impl JobSink for PhaseMarks {
    fn finish(&mut self, _end: Instant) -> (Probe, Option<Vec<u8>>) {
        let marks = Marks {
            run: self.run.expect("the experiment emits Phase{run}"),
            score: self.score.expect("the experiment emits Phase{score}"),
        };
        (
            Probe::Marks(marks),
            self.trace.take().map(BufferSink::into_bytes),
        )
    }
}

/// What the counting pass saw in one job.
#[derive(Clone, Debug, Default)]
pub struct KindCounts {
    /// Events per kind, by kind id.
    pub kinds: [u64; KIND_COUNT],
    /// Sum of `AnnealSummary.iterations`.
    pub anneal_iterations: u64,
    /// Sum of `AnnealSummary.accepted`.
    pub anneal_accepted: u64,
    /// The class of each run-phase dispatch, by ordinal.
    pub classes: Vec<Slot>,
}

impl KindCounts {
    /// Events of `kind`.
    pub fn of(&self, kind: EventKind) -> u64 {
        self.kinds[kind.id() as usize]
    }
}

/// Counting pass sink.
pub struct KindCounter {
    trace: Option<BufferSink>,
    counts: KindCounts,
    /// Kinds seen since the open dispatch started, if one is open.
    span: Option<u64>,
}

impl KindCounter {
    /// A sink that forwards to `trace` when the job records one.
    pub fn new(trace: Option<BufferSink>) -> Self {
        KindCounter {
            trace,
            counts: KindCounts::default(),
            span: None,
        }
    }

    fn close_span(&mut self) {
        if let Some(kinds) = self.span.take() {
            self.counts.classes.push(Slot::of_span(kinds));
        }
    }
}

impl TraceSink for KindCounter {
    fn record(&mut self, ev: &TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(ev);
        }
        let kind = ev.body.kind();
        self.counts.kinds[kind.id() as usize] += 1;
        match &ev.body {
            EventBody::Dispatch { .. } => {
                self.close_span();
                self.span = Some(0);
            }
            EventBody::Phase { .. } => self.close_span(),
            EventBody::AnnealSummary {
                iterations,
                accepted,
                ..
            } => {
                self.counts.anneal_iterations += iterations;
                self.counts.anneal_accepted += accepted;
            }
            _ => {}
        }
        if let Some(kinds) = &mut self.span {
            *kinds |= kind.bit();
        }
    }
}

impl JobSink for KindCounter {
    fn finish(&mut self, _end: Instant) -> (Probe, Option<Vec<u8>>) {
        self.close_span();
        (
            Probe::Counts(std::mem::take(&mut self.counts)),
            self.trace.take().map(BufferSink::into_bytes),
        )
    }
}

/// What the timing pass measured in one job.
#[derive(Clone, Debug)]
pub struct LayerTimes {
    /// Host time charged to each slot, by [`Slot::index`].
    pub slots: [Duration; SLOTS],
    /// `Placement` events before the run phase.
    pub setup_placements: u64,
    /// Phase markers.
    pub marks: Marks,
    /// Dispatches seen; must equal the counting pass's class count.
    pub dispatches: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Run,
    Score,
}

/// Timing pass sink.
pub struct LayerClock {
    trace: Option<BufferSink>,
    classes: Arc<[Slot]>,
    phase: Phase,
    /// Where run-phase time goes until the next boundary.
    current: Slot,
    /// Host time the previous boundary event was handled.
    last: Instant,
    /// Encode time inside the open gap, carved out of it at its end.
    encode_in_gap: Duration,
    dispatches: usize,
    slots: [Duration; SLOTS],
    setup_placements: u64,
    run: Option<Instant>,
    score: Option<Instant>,
}

impl LayerClock {
    /// A clock for a job that started at `start`, with the dispatch
    /// classes its counting pass recorded.
    pub fn new(trace: Option<BufferSink>, classes: Arc<[Slot]>, start: Instant) -> Self {
        LayerClock {
            trace,
            classes,
            phase: Phase::Setup,
            current: Slot::Bootstrap,
            last: start,
            encode_in_gap: Duration::ZERO,
            dispatches: 0,
            slots: [Duration::ZERO; SLOTS],
            setup_placements: 0,
            run: None,
            score: None,
        }
    }

    fn charge(&mut self, slot: Slot, now: Instant) {
        let gap = now.saturating_duration_since(self.last);
        self.slots[slot.index()] += gap.saturating_sub(self.encode_in_gap);
        self.encode_in_gap = Duration::ZERO;
    }

    fn encode(&mut self, ev: &TraceEvent) -> Instant {
        let before = Instant::now();
        let Some(trace) = &mut self.trace else {
            return before;
        };
        trace.record(ev);
        let after = Instant::now();
        let spent = after - before;
        self.slots[Slot::Encode.index()] += spent;
        self.encode_in_gap += spent;
        after
    }
}

impl TraceSink for LayerClock {
    fn record(&mut self, ev: &TraceEvent) {
        let kind = ev.body.kind();
        if kind.bit() & PER_REPORT != 0 {
            // Only here because the product traces: time the encode, and
            // leave the gap open so the attribution matches untraced jobs.
            self.encode(ev);
            return;
        }
        let now = Instant::now();
        let target = match self.phase {
            Phase::Setup => Slot::of_setup_event(kind),
            Phase::Run | Phase::Score => self.current,
        };
        self.charge(target, now);
        match (&ev.body, self.phase) {
            (EventBody::Phase { label }, _) if label == "run" => {
                self.phase = Phase::Run;
                self.current = Slot::Quiet;
                self.run = Some(now);
            }
            (EventBody::Phase { label }, _) if label == "score" => {
                self.phase = Phase::Score;
                self.current = Slot::Score;
                self.score = Some(now);
            }
            (EventBody::Dispatch { .. }, Phase::Run) => {
                // A missing class shows as a dispatch-count mismatch.
                self.current = self
                    .classes
                    .get(self.dispatches)
                    .copied()
                    .unwrap_or(Slot::Quiet);
                self.dispatches += 1;
            }
            (EventBody::Placement { .. }, Phase::Setup) => self.setup_placements += 1,
            _ => {}
        }
        self.encode(ev);
        self.last = now;
    }

    fn kind_mask(&self) -> u64 {
        if self.trace.is_some() {
            mask::ALL
        } else {
            mask::ALL & !PER_REPORT
        }
    }
}

impl JobSink for LayerClock {
    fn finish(&mut self, end: Instant) -> (Probe, Option<Vec<u8>>) {
        self.charge(self.current, end);
        let times = LayerTimes {
            slots: self.slots,
            setup_placements: self.setup_placements,
            marks: Marks {
                run: self.run.expect("the experiment emits Phase{run}"),
                score: self.score.expect("the experiment emits Phase{score}"),
            },
            dispatches: self.dispatches,
        };
        (
            Probe::Layers(times),
            self.trace.take().map(BufferSink::into_bytes),
        )
    }
}
