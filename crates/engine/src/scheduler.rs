//! The parallel job scheduler: a bounded worker pool over `crossbeam`
//! scoped threads that retries a panicking job once and stops the batch
//! when a job fails again.
//!
//! Determinism: workers pull job *indexes* from a shared atomic counter and
//! write results back *by index*, so the output order equals the submission
//! order regardless of which worker ran what — the merged analysis tables
//! are byte-identical to a sequential run.
//!
//! Under [`crate::pipeline`] the worker budget is split: the DAG runner
//! executes independent passes on its own pool and hands each pass a
//! fresh `Scheduler` with the remaining per-pass share, so cross-pass and
//! intra-pass parallelism never oversubscribe `EngineConfig::jobs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use decisive_obs::Telemetry;

/// Outcome of one batch run.
#[derive(Debug)]
pub struct BatchOutput<T> {
    /// One result per job, in submission order.
    pub results: Vec<T>,
    /// How many jobs panicked and were retried.
    pub retries: usize,
    /// Wall-clock milliseconds of the single slowest job (retry included);
    /// `0` for an empty batch. The straggler detector for campaign health.
    pub max_job_ms: f64,
    /// Indexes (submission order) of jobs whose elapsed time exceeded the
    /// scheduler's deadline — see [`Scheduler::with_deadline_ms`]. Their
    /// results are still valid; the classification lets the engine report
    /// them as degraded instead of trusting a wedged-then-finished job's
    /// latency silently.
    pub timed_out: Vec<usize>,
}

/// What went wrong running a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// A job panicked on its first run and again on its retry.
    JobFailed {
        /// Index of the failed job.
        index: usize,
    },
}

/// A bounded worker pool configuration.
#[derive(Debug, Clone)]
pub struct Scheduler {
    workers: usize,
    deadline_ms: Option<f64>,
    telemetry: Telemetry,
    label: String,
}

impl Scheduler {
    /// A scheduler with `workers` threads (clamped to at least one). The
    /// pool is bounded per batch: at most `min(workers, jobs)` threads run.
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            deadline_ms: None,
            telemetry: Telemetry::noop(),
            label: "batch".to_owned(),
        }
    }

    /// Attaches a telemetry handle (and a batch label naming the job
    /// spans): each executed job records a `job:{label}` span and a
    /// queue-wait observation, each batch its retry/timeout counters, and
    /// the handle is installed as the thread-current one inside every
    /// worker so leaf code (e.g. the circuit solver) reports too.
    pub fn with_telemetry(mut self, telemetry: Telemetry, label: &str) -> Self {
        self.telemetry = telemetry;
        self.label = label.to_owned();
        self
    }

    /// Sets a per-job deadline in milliseconds (building on the
    /// `max_job_ms` straggler detector): any job whose wall time exceeds
    /// it is classified in [`BatchOutput::timed_out`].
    ///
    /// The check is cooperative — jobs are plain closures, so a wedged
    /// one cannot be pre-empted mid-flight — but classification means a
    /// hung-then-recovered job degrades the run's health report instead
    /// of passing silently.
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms.max(0.0));
        self
    }

    /// Runs every job, in parallel when the pool has more than one worker.
    ///
    /// A job that panics is retried once, immediately; a job that panics
    /// again fails the batch, and no job starts after that.
    ///
    /// # Errors
    ///
    /// [`BatchError::JobFailed`] naming the first failed job in
    /// submission order.
    pub fn run_batch<T, F>(&self, jobs: &[F]) -> Result<BatchOutput<T>, BatchError>
    where
        T: Send,
        F: Fn() -> T + Sync,
    {
        self.run_until_stopped(jobs, &AtomicBool::new(false))
    }

    /// [`Scheduler::run_batch`] over a stop flag the caller owns. On
    /// several workers the job that fails raises it, and no worker starts
    /// a job once it is up; one worker returns at the failed job instead.
    fn run_until_stopped<T, F>(
        &self,
        jobs: &[F],
        stop: &AtomicBool,
    ) -> Result<BatchOutput<T>, BatchError>
    where
        T: Send,
        F: Fn() -> T + Sync,
    {
        let retries = AtomicUsize::new(0);
        let max_job_ms = Mutex::new(0.0f64);
        let timed_out = Mutex::new(Vec::new());
        let instrumented = self.telemetry.enabled();
        let batch_epoch = Instant::now();
        let run_one = |index: usize| -> Result<T, BatchError> {
            let started = Instant::now();
            let _job_span = instrumented.then(|| {
                self.telemetry.duration_ms(
                    &format!("scheduler.{}.queue_wait_ms", self.label),
                    batch_epoch.elapsed().as_secs_f64() * 1e3,
                );
                let mut span = self.telemetry.span(format!("job:{}", self.label), "scheduler");
                span.arg("index", index.to_string());
                span
            });
            // A panicking job is retried once, at once: a poisoned job
            // might have tripped on transient state.
            let outcome = catch_unwind(AssertUnwindSafe(&jobs[index]))
                .or_else(|_| {
                    retries.fetch_add(1, Ordering::SeqCst);
                    catch_unwind(AssertUnwindSafe(&jobs[index]))
                })
                .map_err(|_| BatchError::JobFailed { index });
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            let mut max = max_job_ms.lock().expect("max-job slot");
            if elapsed > *max {
                *max = elapsed;
            }
            drop(max);
            if self.deadline_ms.is_some_and(|d| elapsed > d) {
                timed_out.lock().expect("timed-out slot").push(index);
            }
            outcome
        };

        let workers = self.workers.min(jobs.len()).max(1);
        let mut out = Vec::with_capacity(jobs.len());
        if workers == 1 {
            // Install on the caller thread only when this scheduler has a
            // live handle — a no-op one must not mask whatever handle the
            // caller already installed.
            let _telemetry =
                instrumented.then(|| decisive_obs::set_current(self.telemetry.clone()));
            for index in 0..jobs.len() {
                // A failed job fails the batch at once: the jobs after it
                // never start.
                out.push(run_one(index)?);
            }
        } else {
            let next = AtomicUsize::new(0);
            let results: Vec<Mutex<Option<Result<T, BatchError>>>> =
                (0..jobs.len()).map(|_| Mutex::new(None)).collect();
            crossbeam::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        // Fresh threads have no thread-current telemetry;
                        // install this batch's handle so jobs and the leaf
                        // code under them can record.
                        let _telemetry = decisive_obs::set_current(self.telemetry.clone());
                        // Spans nest per thread: a worker span keeps this
                        // thread's job spans inside the trace tree.
                        let _worker_span = instrumented.then(|| {
                            self.telemetry.span(format!("worker:{}", self.label), "worker")
                        });
                        loop {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            if index >= jobs.len() {
                                break;
                            }
                            let outcome = run_one(index);
                            let failed = outcome.is_err();
                            *results[index].lock().expect("result slot") = Some(outcome);
                            if failed {
                                // Stop scheduling further jobs; finished
                                // work stays valid for the error report.
                                stop.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                    });
                }
            })
            .expect("scheduler workers never propagate panics");
            // Workers claim indexes in order and finish every job they
            // claim, so only slots after a failed job's can be empty: the
            // first failure in submission order is reached first.
            for slot in results {
                match slot.into_inner().expect("result slot") {
                    Some(Ok(result)) => out.push(result),
                    Some(Err(e)) => return Err(e),
                    None => unreachable!("only a failed job stops the batch"),
                }
            }
        }
        let mut timed_out = timed_out.into_inner().expect("timed-out slot");
        timed_out.sort_unstable();
        let retries = retries.load(Ordering::SeqCst);
        if instrumented {
            self.telemetry.count("scheduler.jobs", jobs.len() as u64);
            if retries > 0 {
                self.telemetry.count("scheduler.retries", retries as u64);
            }
            if !timed_out.is_empty() {
                self.telemetry.count("scheduler.timeouts", timed_out.len() as u64);
            }
        }
        Ok(BatchOutput {
            results: out,
            retries,
            max_job_ms: max_job_ms.into_inner().expect("max-job slot"),
            timed_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_keep_submission_order() {
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * 2
                }
            })
            .collect();
        for workers in [1, 4] {
            let out = Scheduler::new(workers).run_batch(&jobs).unwrap();
            assert_eq!(out.results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(out.retries, 0);
        }
    }

    #[test]
    fn flaky_job_succeeds_on_retry() {
        let attempts = AtomicU32::new(0);
        let jobs = vec![|| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            42
        }];
        let out = Scheduler::new(2).run_batch(&jobs).unwrap();
        assert_eq!(out.results, vec![42]);
        assert_eq!(out.retries, 1);
    }

    #[test]
    fn persistent_panic_fails_the_batch_with_its_index() {
        let jobs: Vec<Box<dyn Fn() -> u32 + Sync>> =
            vec![Box::new(|| 1), Box::new(|| panic!("poisoned")), Box::new(|| 3)];
        let err = Scheduler::new(2).run_batch(&jobs).unwrap_err();
        assert_eq!(err, BatchError::JobFailed { index: 1 });
    }

    /// A job that exhausts its retries stops the jobs not yet started, on
    /// one worker as on several. Each counting job waits until the batch
    /// is stopped, so on two workers both are busy until the failure and
    /// at most one counter runs; the wait is bounded so a batch that is
    /// never stopped still ends.
    #[test]
    fn a_failed_job_stops_the_batch_at_every_width() {
        for workers in [1, 2] {
            let scheduler = Scheduler::new(workers);
            let stop = AtomicBool::new(false);
            let ran = AtomicU32::new(0);
            let count = || {
                let waited = Instant::now();
                while !stop.load(Ordering::SeqCst) && waited.elapsed().as_secs() < 5 {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::SeqCst);
                0u8
            };
            let jobs: Vec<Box<dyn Fn() -> u8 + Sync>> =
                vec![Box::new(|| panic!("always")), Box::new(count), Box::new(count)];
            let err = scheduler.run_until_stopped(&jobs, &stop).unwrap_err();
            assert_eq!(err, BatchError::JobFailed { index: 0 });
            assert!(
                ran.load(Ordering::SeqCst) <= 1,
                "{workers} worker(s) ran every job after the failure"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let jobs: Vec<fn() -> u8> = Vec::new();
        let out = Scheduler::new(4).run_batch(&jobs).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.max_job_ms, 0.0);
    }

    #[test]
    fn deadline_classifies_slow_jobs_without_dropping_results() {
        let jobs: Vec<Box<dyn Fn() -> u8 + Sync>> = vec![
            Box::new(|| 1),
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                2
            }),
            Box::new(|| 3),
        ];
        let out = Scheduler::new(2).with_deadline_ms(5.0).run_batch(&jobs).unwrap();
        assert_eq!(out.results, vec![1, 2, 3], "timed-out jobs still return results");
        assert!(out.timed_out.contains(&1), "slow job classified: {:?}", out.timed_out);
        assert!(!out.timed_out.contains(&0));
    }

    #[test]
    fn no_deadline_never_times_out() {
        let jobs: Vec<_> = (0..4).map(|i| move || i).collect();
        let out = Scheduler::new(2).run_batch(&jobs).unwrap();
        assert!(out.timed_out.is_empty());
    }

    #[test]
    fn slowest_job_sets_max_job_ms() {
        let jobs: Vec<Box<dyn Fn() -> u8 + Sync>> = vec![
            Box::new(|| 1),
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                2
            }),
        ];
        let out = Scheduler::new(2).run_batch(&jobs).unwrap();
        assert!(out.max_job_ms >= 5.0, "got {}", out.max_job_ms);
    }
}
