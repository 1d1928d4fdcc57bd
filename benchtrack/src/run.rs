//! One benchmark run: a counting pass that also warms caches and pins
//! the outputs, then timed passes for `--seconds`, then the metrics.
//!
//! * End-to-end run (`--trace 0`): repeated passes with only phase
//!   markers installed; every metric is the median over the passes.
//! * Profile run (`--trace 1`): alternating untraced and timing passes;
//!   counts come from the counting pass, times are medians over the
//!   timing passes, and `profile.overhead` compares the two kinds.
//!
//! Every pass must reproduce the counting pass's run records (and
//! trace bytes) exactly; at seed 42 they must also match the digests
//! pinned in `expected/`.

use crate::layer::{KindCounts, LayerTimes, Probe, Slot};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{digest, run_iteration, Iteration, JobResult, Pass, Workload};
use crate::{quartiles, ratio};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use toto_trace::EventKind;

/// The seed whose outputs are pinned in `expected/`.
pub const PINNED_SEED: u64 = 42;

/// Fewest timed passes an end-to-end run takes, however short
/// `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Fewest untraced/timing pairs a profile run takes.
pub const MIN_PAIRS: usize = 2;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Median over the passes.
    pub value: f64,
    /// First quartile over the passes.
    pub q1: f64,
    /// Third quartile over the passes.
    pub q3: f64,
    /// Passes the value summarises.
    pub n: usize,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Fleet jobs run, over every pass.
    pub attempted: u64,
    /// Every check that failed, as a message.
    pub failures: Vec<String>,
    /// The metrics, in catalog order.
    pub readings: Vec<Reading>,
}

impl Outcome {
    /// Failed checks, capped at the jobs attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }
}

/// Run workload `w` at `seed` for about `seconds` of timed passes.
/// Artifacts go under `root` and are deleted after each pass.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    profile: bool,
    root: &Path,
) -> Result<Outcome, String> {
    let count = run_iteration(w, seed, &Pass::Count, root)?;
    let mut checker = Checker::new(w, seed, &count);
    let budget = Duration::from_secs(seconds);
    let readings = if profile {
        profile_run(w, seed, budget, root, &count, &mut checker)?
    } else {
        end_to_end_run(w, seed, budget, root, &count, &mut checker)?
    };
    Ok(Outcome {
        attempted: checker.attempted,
        failures: checker.failures,
        readings,
    })
}

/// Keep starting passes while one more fits in the budget.
fn keep_going(done: usize, min: usize, began: Instant, last: Duration, budget: Duration) -> bool {
    done < min || began.elapsed() + last <= budget
}

fn counts(job: &JobResult) -> &KindCounts {
    match &job.probe {
        Probe::Counts(c) => c,
        _ => unreachable!("the counting pass installs KindCounter"),
    }
}

fn kind_total(count: &Iteration, kind: EventKind) -> u64 {
    count.jobs.iter().map(|j| counts(j).of(kind)).sum()
}

fn end_to_end_run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    root: &Path,
    count: &Iteration,
    checker: &mut Checker,
) -> Result<Vec<Reading>, String> {
    let reports = kind_total(count, EventKind::MetricReport) as f64;
    if reports == 0.0 {
        checker.fail("the workload made no replica metric reports".to_string());
    }
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let began = Instant::now();
    let (mut passes, mut last) = (0, Duration::ZERO);
    while keep_going(passes, MIN_PASSES, began, last, budget) {
        let t = Instant::now();
        let it = run_iteration(w, seed, &Pass::Measure, root)?;
        checker.same_as_reference(&it);
        let (mut setup, mut run) = (it.compile + it.ks_gate, Duration::ZERO);
        for job in &it.jobs {
            let Probe::Marks(marks) = &job.probe else {
                unreachable!("the measure pass installs PhaseMarks")
            };
            setup += marks.run - job.start;
            run += marks.score - marks.run;
        }
        for (name, value) in [
            ("wall_s", it.wall.as_secs_f64()),
            ("setup_s", setup.as_secs_f64()),
            ("replica_reports_per_s", ratio(reports, run.as_secs_f64())),
            ("cpu_s", it.cpu),
        ] {
            samples.entry(name).or_default().push(value);
        }
        passes += 1;
        last = t.elapsed();
    }
    samples.insert("peak_rss_mib", vec![crate::peak_rss_mib()]);
    Ok(END_TO_END
        .iter()
        .map(|m| reading(m.name, m.unit, &samples[m.name]))
        .collect())
}

fn reading(name: &'static str, unit: &'static str, values: &[f64]) -> Reading {
    let [q1, value, q3] = quartiles(values).expect("every metric has a sample");
    Reading {
        name,
        unit,
        value,
        q1,
        q3,
        n: values.len(),
    }
}

fn profile_run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    root: &Path,
    count: &Iteration,
    checker: &mut Checker,
) -> Result<Vec<Reading>, String> {
    let mut classes: Vec<Arc<[Slot]>> = vec![Arc::from([]); count.planned];
    for job in &count.jobs {
        classes[job.index] = counts(job).classes.clone().into();
    }
    let timing = Pass::Time(classes.clone());
    let reports = kind_total(count, EventKind::MetricReport) as f64;

    let mut untraced_walls = Vec::new();
    let mut timed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let began = Instant::now();
    let mut last = Duration::ZERO;
    while keep_going(untraced_walls.len(), MIN_PAIRS, began, last, budget) {
        let t = Instant::now();
        let base = run_iteration(w, seed, &Pass::Measure, root)?;
        checker.same_as_reference(&base);
        untraced_walls.push(base.wall.as_secs_f64());
        let it = run_iteration(w, seed, &timing, root)?;
        checker.same_as_reference(&it);
        for (name, value) in layer_times(&it, &classes, reports, checker) {
            timed.entry(name).or_default().push(value);
        }
        last = t.elapsed();
    }
    let overhead = ratio(
        quartiles(&timed["profile.wall_s"]).expect("a timing pass ran")[1],
        quartiles(&untraced_walls).expect("an untraced pass ran")[1],
    );
    timed.insert("profile.overhead", vec![overhead]);

    let mut exact: BTreeMap<&str, f64> = count_metrics(count);
    exact.extend(crate::probes::plb());
    let check_us = crate::probes::oracle_check_us(seed).unwrap_or_else(|e| {
        checker.fail(e);
        0.0
    });
    exact.insert("chaos.check_us", check_us);
    for (name, value) in exact {
        timed.insert(name, vec![value]);
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let values = timed
                .get(m.metric.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.metric.name))?;
            Ok(reading(m.metric.name, m.metric.unit, values))
        })
        .collect()
}

/// Exact counts from the counting pass.
fn count_metrics(count: &Iteration) -> BTreeMap<&'static str, f64> {
    let total = |kind| kind_total(count, kind) as f64;
    let anneal: (u64, u64) = count.jobs.iter().fold((0, 0), |(i, a), j| {
        let c = counts(j);
        (i + c.anneal_iterations, a + c.anneal_accepted)
    });
    let chaos: (u64, u64) = count
        .jobs
        .iter()
        .filter_map(|j| j.chaos)
        .fold((0, 0), |(c, v), (jc, jv)| (c + jc, v + jv));
    let admitted = total(EventKind::AdmissionAdmitted);
    let redirected = total(EventKind::AdmissionRedirected);
    let events: u64 = count
        .jobs
        .iter()
        .map(|j| counts(j).kinds.iter().sum::<u64>())
        .sum();
    BTreeMap::from([
        ("fleet.jobs", count.planned as f64),
        ("plb.placements", total(EventKind::Placement)),
        ("plb.rejections", total(EventKind::PlacementRejected)),
        ("plb.anneal_iterations", anneal.0 as f64),
        (
            "plb.anneal_accept_ratio",
            ratio(anneal.1 as f64, anneal.0 as f64),
        ),
        ("plb.failovers", total(EventKind::Failover)),
        ("plb.unresolved", total(EventKind::ViolationUnresolved)),
        ("rgmanager.reports", total(EventKind::MetricReport)),
        ("rgmanager.model_compiles", total(EventKind::ModelRefresh)),
        ("naming.writes", total(EventKind::NamingWrite)),
        ("naming.deletes", total(EventKind::NamingDelete)),
        ("controlplane.admitted", admitted),
        ("controlplane.redirected", redirected),
        (
            "controlplane.redirect_ratio",
            ratio(redirected, admitted + redirected),
        ),
        ("population.creates", total(EventKind::DbCreate)),
        ("population.drops", total(EventKind::DbDrop)),
        ("simcore.dispatches", total(EventKind::Dispatch)),
        ("chaos.oracle_checks", chaos.0 as f64),
        ("chaos.oracle_violations", chaos.1 as f64),
        ("trace.events", events as f64),
        (
            "trace.bytes",
            count
                .jobs
                .iter()
                .filter_map(|j| j.trace)
                .map(|t| t.0)
                .sum::<usize>() as f64,
        ),
    ])
}

/// Times and shares from one timing pass. Shares are of the pass's
/// worker time: the serial steps plus `workers` × the executor's wall.
fn layer_times(
    it: &Iteration,
    classes: &[Arc<[Slot]>],
    reports: f64,
    checker: &mut Checker,
) -> Vec<(&'static str, f64)> {
    let secs = |d: Duration| d.as_secs_f64();
    let workers = it.workers as f64;
    let worker_time = secs(it.wall) - secs(it.exec) + workers * secs(it.exec);
    let mut slots = [Duration::ZERO; crate::layer::SLOTS];
    let (mut job_wall, mut bootstrap, mut placements) = (Duration::ZERO, Duration::ZERO, 0u64);
    for job in &it.jobs {
        let Probe::Layers(times) = &job.probe else {
            unreachable!("the timing pass installs LayerClock")
        };
        let LayerTimes {
            slots: job_slots,
            setup_placements,
            marks,
            dispatches,
        } = times;
        if *dispatches != classes[job.index].len() {
            checker.fail(format!(
                "job {}: timing pass dispatched {dispatches} events, counting pass {}",
                job.label,
                classes[job.index].len()
            ));
        }
        for (total, s) in slots.iter_mut().zip(job_slots) {
            *total += *s;
        }
        job_wall += job.wall;
        bootstrap += marks.run - job.start;
        placements += setup_placements;
    }
    let share = |slot: Slot| ratio(secs(slots[slot.index()]), worker_time);
    let fleet_idle = (workers * secs(it.exec) - secs(job_wall)).max(0.0);
    let mut out = vec![
        ("profile.wall_s", secs(it.wall)),
        ("scenario.compile_ms", secs(it.compile) * 1e3),
        ("scenario.ks_gate_ms", secs(it.ks_gate) * 1e3),
        (
            "scenario.share",
            ratio(secs(it.compile + it.ks_gate), worker_time),
        ),
        (
            "fleet.busy_ratio",
            ratio(secs(job_wall), workers * secs(it.exec)),
        ),
        ("fleet.store_ms", secs(it.store) * 1e3),
        (
            "fleet.share",
            ratio(secs(it.store) + fleet_idle, worker_time),
        ),
        ("bootstrap.ms", secs(bootstrap) * 1e3),
        ("bootstrap.share", share(Slot::Bootstrap)),
        (
            "plb.place_us",
            ratio(secs(slots[Slot::PlbPlace.index()]) * 1e6, placements as f64),
        ),
        ("plb.place_share", share(Slot::PlbPlace)),
        ("plb.tick_share", share(Slot::PlbTick)),
        (
            "rgmanager.report_ns",
            ratio(secs(slots[Slot::Report.index()]) * 1e9, reports),
        ),
        ("rgmanager.report_share", share(Slot::Report)),
        (
            "rgmanager.compile_ms",
            secs(slots[Slot::Compile.index()]) * 1e3,
        ),
        ("rgmanager.compile_share", share(Slot::Compile)),
        ("population.create_share", share(Slot::Create)),
        ("population.drop_share", share(Slot::Drop)),
        ("simcore.quiet_share", share(Slot::Quiet)),
        ("chaos.fault_share", share(Slot::Chaos)),
        ("trace.encode_share", share(Slot::Encode)),
        ("experiment.score_share", share(Slot::Score)),
    ];
    let coverage: f64 = out
        .iter()
        .filter(|(name, _)| name.ends_with("share"))
        .map(|(_, v)| v)
        .sum();
    out.push(("profile.coverage", coverage));
    out
}

/// Output checks: every pass must reproduce the counting pass, and at
/// [`PINNED_SEED`] the counting pass must match `expected/`.
struct Checker {
    /// `(label, record digest, trace digest)` from the counting pass.
    reference: Vec<(String, u64, Option<u64>)>,
    attempted: u64,
    failures: Vec<String>,
}

/// Pinned digests, one line per job: `label record-digest [trace-digest]`.
fn pins(workload: &str) -> &'static str {
    match workload {
        "ladder" => include_str!("../expected/ladder.txt"),
        "smoke_traced" => include_str!("../expected/smoke_traced.txt"),
        "boot_1k" => include_str!("../expected/boot_1k.txt"),
        "storm_smoke" => include_str!("../expected/storm_smoke.txt"),
        _ => "",
    }
}

/// The `hyperscale_smoke` golden run record; `smoke_traced` replica 0
/// at seed 42 must reproduce it byte for byte.
const GOLDEN_SMOKE: &str = include_str!("../../tests/golden/hyperscale-smoke.json");

fn digests(job: &JobResult) -> (u64, Option<u64>) {
    (digest(job.record.as_bytes()), job.trace.map(|t| t.1))
}

fn pin_line(label: &str, (record, trace): (u64, Option<u64>)) -> String {
    match trace {
        Some(trace) => format!("{label} {record:016x} {trace:016x}"),
        None => format!("{label} {record:016x}"),
    }
}

impl Checker {
    fn new(w: &Workload, seed: u64, count: &Iteration) -> Self {
        let mut checker = Checker {
            reference: count
                .jobs
                .iter()
                .map(|j| {
                    let (record, trace) = digests(j);
                    (j.label.clone(), record, trace)
                })
                .collect(),
            attempted: 0,
            failures: Vec::new(),
        };
        checker.completed(count);
        if seed == PINNED_SEED {
            let expected: Vec<&str> = pins(w.name)
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .collect();
            let actual: Vec<String> = count
                .jobs
                .iter()
                .map(|j| pin_line(&j.label, digests(j)))
                .collect();
            if expected != actual {
                checker.fail(format!(
                    "outputs at seed {PINNED_SEED} differ from expected/{}.txt; they are:\n{}",
                    w.name,
                    actual.join("\n")
                ));
            }
            if w.name == "smoke_traced" {
                match count.jobs.first() {
                    Some(j) if j.record == GOLDEN_SMOKE => {}
                    _ => checker.fail(
                        "smoke_traced replica 0 differs from tests/golden/hyperscale-smoke.json"
                            .to_string(),
                    ),
                }
            }
        }
        checker
    }

    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Jobs that did not complete, and chaos oracle violations.
    fn completed(&mut self, it: &Iteration) {
        self.attempted += it.planned as u64;
        for message in &it.failed {
            self.failures.push(message.clone());
        }
        for job in &it.jobs {
            if let Some((_, violations)) = job.chaos.filter(|c| c.1 > 0) {
                self.fail(format!(
                    "job {}: {violations} invariant oracle violations",
                    job.label
                ));
            }
        }
    }

    /// A pass must reproduce the counting pass's records and traces.
    fn same_as_reference(&mut self, it: &Iteration) {
        self.completed(it);
        if it.jobs.len() != self.reference.len() {
            self.fail(format!(
                "{} jobs completed, the counting pass completed {}",
                it.jobs.len(),
                self.reference.len()
            ));
        }
        let differing: Vec<String> = it
            .jobs
            .iter()
            .zip(&self.reference)
            .filter(|(job, (label, record, trace))| {
                (&job.label, digests(job)) != (label, (*record, *trace))
            })
            .map(|(job, _)| {
                format!(
                    "job {}: run record or trace differs from the counting pass",
                    job.label
                )
            })
            .collect();
        self.failures.extend(differing);
    }
}
