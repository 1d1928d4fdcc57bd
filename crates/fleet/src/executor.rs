//! The channel-fed parallel fleet executor.
//!
//! Job indices flow through an MPMC channel to a fixed pool of scoped
//! worker threads; completed reports land in a shared, lock-guarded
//! registry slot keyed by job index, so the final report order is the
//! submission order regardless of which worker finished when. Each job
//! runs under `catch_unwind`: a panicking job becomes a
//! [`JobOutcome::Failed`] entry — the fleet never aborts. A shared
//! [`CancelToken`] lets callers stop scheduling new jobs; already-running
//! jobs finish, unstarted ones are recorded [`JobOutcome::Cancelled`].

use crate::job::FleetTask;
use crossbeam::channel;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Cooperative cancellation flag shared between the caller and the pool.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation: jobs not yet started will not start.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// How one job ended.
#[derive(Debug)]
pub enum JobOutcome<O> {
    /// Ran to completion.
    Completed(O),
    /// Panicked; the payload is the panic message.
    Failed(String),
    /// Never started because the fleet was cancelled first.
    Cancelled,
}

impl<O> JobOutcome<O> {
    /// The output, if the job completed.
    pub fn output(&self) -> Option<&O> {
        match self {
            JobOutcome::Completed(o) => Some(o),
            _ => None,
        }
    }

    /// Short status word for manifests: `completed` / `failed` /
    /// `cancelled`.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

/// One job's report.
#[derive(Debug)]
pub struct JobReport<O> {
    /// Submission index within the fleet.
    pub index: usize,
    /// The task's label.
    pub label: String,
    /// The task's seed.
    pub seed: u64,
    /// How it ended.
    pub outcome: JobOutcome<O>,
    /// Wall-clock the job took, seconds (0 for cancelled jobs). Timing
    /// lives here — in the report/manifest layer — and never in run
    /// records, which must be byte-identical across thread counts.
    pub wall_secs: f64,
}

/// Everything the executor observed about one fleet run.
#[derive(Debug)]
pub struct FleetReport<O> {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport<O>>,
    /// Worker threads used.
    pub threads: usize,
    /// Total wall-clock, seconds.
    pub wall_secs: f64,
}

impl<O> FleetReport<O> {
    /// Iterate `(label, output)` over completed jobs, submission order.
    pub fn completed(&self) -> impl Iterator<Item = (&JobReport<O>, &O)> {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.output().map(|o| (j, o)))
    }

    /// True iff every job completed.
    pub fn all_completed(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| matches!(j.outcome, JobOutcome::Completed(_)))
    }
}

/// A completed job's progress snapshot, handed to
/// [`FleetObserver::job_finished`].
#[derive(Debug)]
pub struct JobProgress<'a> {
    /// Submission index of the job that just finished.
    pub index: usize,
    /// Its label.
    pub label: &'a str,
    /// Wall-clock the job took, seconds.
    pub wall_secs: f64,
    /// Jobs finished or failed so far.
    pub done: usize,
    /// Total jobs in the fleet.
    pub total: usize,
    /// Fleet-level throughput estimate.
    pub jobs_per_sec: f64,
    /// Estimated seconds until the fleet drains at the current rate.
    pub eta_secs: f64,
}

/// Progress hook. All methods have no-op defaults; implementations must
/// be `Sync` — they are called concurrently from worker threads.
pub trait FleetObserver: Sync {
    /// A job was picked up by a worker.
    fn job_started(&self, _index: usize, _label: &str) {}

    /// A job completed.
    fn job_finished(&self, _progress: &JobProgress) {}

    /// A job panicked.
    fn job_failed(&self, _index: usize, _label: &str, _message: &str) {}
}

/// The do-nothing observer.
pub struct NullObserver;

impl FleetObserver for NullObserver {}

/// Default observer: one `eprintln!` line per finished job with
/// throughput and ETA, plus a line per failure.
pub struct StderrProgress;

impl FleetObserver for StderrProgress {
    fn job_finished(&self, p: &JobProgress) {
        eprintln!(
            "[fleet] {}/{} {} in {:.2}s ({:.2} jobs/s, eta {:.0}s)",
            p.done, p.total, p.label, p.wall_secs, p.jobs_per_sec, p.eta_secs
        );
    }

    fn job_failed(&self, index: usize, label: &str, message: &str) {
        eprintln!("[fleet] job #{index} {label} FAILED: {message}");
    }
}

/// The worker pool.
#[derive(Clone, Copy, Debug)]
pub struct FleetExecutor {
    threads: usize,
}

impl FleetExecutor {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        FleetExecutor {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every task to completion (or cancellation) and report.
    pub fn run<T: FleetTask>(
        &self,
        tasks: &[T],
        observer: &dyn FleetObserver,
    ) -> FleetReport<T::Output> {
        self.run_cancellable(tasks, observer, &CancelToken::new())
    }

    /// Like [`run`](Self::run), with caller-controlled cancellation.
    pub fn run_cancellable<T: FleetTask>(
        &self,
        tasks: &[T],
        observer: &dyn FleetObserver,
        cancel: &CancelToken,
    ) -> FleetReport<T::Output> {
        let started = Instant::now();
        let total = tasks.len();
        let workers = self.threads.min(total.max(1));

        // One registry slot per job, filled by whichever worker ran it.
        let registry: Mutex<Vec<Option<JobReport<T::Output>>>> =
            Mutex::new((0..total).map(|_| None).collect());
        let done = AtomicUsize::new(0);

        let (tx, rx) = channel::unbounded::<usize>();
        for index in 0..total {
            tx.send(index)
                .expect("queue send cannot fail with receiver held");
        }
        drop(tx); // workers drain until disconnect

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let registry = &registry;
                let done = &done;
                scope.spawn(move || {
                    while let Ok(index) = rx.recv() {
                        let task = &tasks[index];
                        let label = task.label();
                        let report = if cancel.is_cancelled() {
                            JobReport {
                                index,
                                label,
                                seed: task.seed(),
                                outcome: JobOutcome::Cancelled,
                                wall_secs: 0.0,
                            }
                        } else {
                            observer.job_started(index, &label);
                            let job_start = Instant::now();
                            let outcome = match catch_unwind(AssertUnwindSafe(|| task.run())) {
                                Ok(output) => JobOutcome::Completed(output),
                                Err(payload) => {
                                    let message = panic_message(payload.as_ref());
                                    observer.job_failed(index, &label, &message);
                                    JobOutcome::Failed(message)
                                }
                            };
                            let wall_secs = job_start.elapsed().as_secs_f64();
                            if matches!(outcome, JobOutcome::Completed(_)) {
                                let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                                let elapsed = started.elapsed().as_secs_f64().max(1e-9);
                                let rate = finished as f64 / elapsed;
                                let eta = (total - finished) as f64 / rate;
                                observer.job_finished(&JobProgress {
                                    index,
                                    label: &label,
                                    wall_secs,
                                    done: finished,
                                    total,
                                    jobs_per_sec: rate,
                                    eta_secs: eta,
                                });
                            } else {
                                done.fetch_add(1, Ordering::SeqCst);
                            }
                            JobReport {
                                index,
                                label,
                                seed: task.seed(),
                                outcome,
                                wall_secs,
                            }
                        };
                        registry.lock()[index] = Some(report);
                    }
                });
            }
        });

        let jobs: Vec<JobReport<T::Output>> = registry
            .into_inner()
            .into_iter()
            .map(|slot| slot.expect("every job index was dispatched exactly once"))
            .collect();
        FleetReport {
            jobs,
            threads: workers,
            wall_secs: started.elapsed().as_secs_f64(),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of non-string type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SquareTask(u64);

    impl FleetTask for SquareTask {
        type Output = u64;

        fn label(&self) -> String {
            format!("square-{}", self.0)
        }

        fn seed(&self) -> u64 {
            self.0
        }

        fn run(&self) -> u64 {
            self.0 * self.0
        }
    }

    struct PanickyTask {
        id: u64,
        panics: bool,
    }

    impl FleetTask for PanickyTask {
        type Output = u64;

        fn label(&self) -> String {
            format!("task-{}", self.id)
        }

        fn run(&self) -> u64 {
            if self.panics {
                panic!("job {} exploded on purpose", self.id);
            }
            self.id
        }
    }

    #[test]
    fn outputs_arrive_in_submission_order() {
        let tasks: Vec<SquareTask> = (0..32).map(SquareTask).collect();
        for threads in [1, 4, 8] {
            let report = FleetExecutor::new(threads).run(&tasks, &NullObserver);
            assert!(report.all_completed());
            let outputs: Vec<u64> = report
                .jobs
                .iter()
                .map(|j| *j.outcome.output().unwrap())
                .collect();
            assert_eq!(outputs, (0..32).map(|i| i * i).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn panicking_job_fails_without_sinking_the_fleet() {
        let tasks: Vec<PanickyTask> = (0..8)
            .map(|id| PanickyTask {
                id,
                panics: id == 3,
            })
            .collect();
        let report = FleetExecutor::new(4).run(&tasks, &NullObserver);
        match &report.jobs[3].outcome {
            JobOutcome::Failed(msg) => assert!(msg.contains("exploded on purpose")),
            other => panic!("expected Failed, got {}", other.status()),
        }
        // Every other job still completed.
        assert_eq!(report.completed().count(), 7);
    }

    #[test]
    fn cancel_stops_unstarted_jobs() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let tasks: Vec<SquareTask> = (0..6).map(SquareTask).collect();
        let report = FleetExecutor::new(2).run_cancellable(&tasks, &NullObserver, &cancel);
        assert!(report
            .jobs
            .iter()
            .all(|j| matches!(j.outcome, JobOutcome::Cancelled)));
    }

    #[test]
    fn observer_sees_every_terminal_event() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct Counting {
            started: AtomicUsize,
            finished: AtomicUsize,
            failed: AtomicUsize,
        }

        impl FleetObserver for Counting {
            fn job_started(&self, _: usize, _: &str) {
                self.started.fetch_add(1, Ordering::SeqCst);
            }
            fn job_finished(&self, _: &JobProgress) {
                self.finished.fetch_add(1, Ordering::SeqCst);
            }
            fn job_failed(&self, _: usize, _: &str, _: &str) {
                self.failed.fetch_add(1, Ordering::SeqCst);
            }
        }

        let observer = Counting::default();
        let tasks: Vec<PanickyTask> = (0..10)
            .map(|id| PanickyTask {
                id,
                panics: id % 5 == 0,
            })
            .collect();
        FleetExecutor::new(3).run(&tasks, &observer);
        assert_eq!(observer.started.load(Ordering::SeqCst), 10);
        assert_eq!(observer.finished.load(Ordering::SeqCst), 8);
        assert_eq!(observer.failed.load(Ordering::SeqCst), 2);
    }
}
