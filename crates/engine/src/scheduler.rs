//! The parallel job scheduler: a bounded worker pool over `crossbeam`
//! scoped threads, with a configurable per-job retry policy (exponential
//! backoff + deterministic jitter) and cooperative cancellation.
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
use std::sync::{Arc, Mutex};
use std::time::Instant;

use decisive_obs::Telemetry;

use crate::fingerprint::Hasher;

/// How failed (panicking) jobs are retried: up to [`RetryPolicy::max_retries`]
/// extra attempts, each preceded by an exponential backoff delay with
/// deterministic jitter.
///
/// The default policy — one retry, zero backoff — reproduces the
/// scheduler's historical retry-once behaviour exactly; sleeps only enter
/// the picture when `base_ms` is raised. Jitter is derived from the
/// repository's standard content [`Hasher`] over `(salt, attempt)` rather
/// than a random source, so a given (job, attempt) pair always backs off
/// by the same amount — campaigns replay deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure. `0` fails fast.
    pub max_retries: usize,
    /// Backoff before the first retry, in milliseconds. `0` never sleeps.
    pub base_ms: f64,
    /// Multiplier applied per further retry (`base * factor^attempt`).
    pub factor: f64,
    /// Upper bound on one backoff delay, in milliseconds.
    pub max_ms: f64,
    /// Fraction of each delay subject to jitter, in `[0, 1]`: the delay is
    /// scaled by a deterministic factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 1, base_ms: 0.0, factor: 2.0, max_ms: 30_000.0, jitter: 0.5 }
    }
}

impl RetryPolicy {
    /// No retries at all: the first panic fails the batch.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// A policy with `max_retries` attempts backing off exponentially from
    /// `base_ms` (factor 2, jittered, capped by the default `max_ms`).
    pub fn backoff(max_retries: usize, base_ms: f64) -> Self {
        RetryPolicy { max_retries, base_ms: base_ms.max(0.0), ..RetryPolicy::default() }
    }

    /// The backoff before retry `attempt` (0-based) of the job identified
    /// by `salt`. Deterministic: same `(policy, attempt, salt)` ⇒ same
    /// delay.
    pub fn delay_ms(&self, attempt: usize, salt: u64) -> f64 {
        if self.base_ms <= 0.0 {
            return 0.0;
        }
        let raw = self.base_ms * self.factor.max(1.0).powi(attempt.min(63) as i32);
        let capped = raw.min(self.max_ms.max(self.base_ms));
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter <= 0.0 {
            return capped;
        }
        let digest = Hasher::new().write_u64(salt).write_u64(attempt as u64).finish().0;
        // Top 53 bits → a uniform unit interval, exactly representable.
        let unit = (digest >> 11) as f64 / (1u64 << 53) as f64;
        capped * (1.0 - jitter * unit)
    }
}

/// Cooperative cancellation handle: cheap to clone, checked between jobs.
/// Cancelling never interrupts a running job; it stops further jobs from
/// starting.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Outcome of one batch run.
#[derive(Debug)]
pub struct BatchOutput<T> {
    /// One result per job, in submission order.
    pub results: Vec<T>,
    /// How many retry attempts were made across the batch (a job that
    /// panicked twice and succeeded on the third attempt counts two).
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
    /// A job exhausted its retry budget (it panicked on the initial run
    /// and on every retry the [`RetryPolicy`] allowed).
    JobFailed {
        /// Index of the failed job.
        index: usize,
    },
    /// The batch was cancelled before every job ran.
    Cancelled,
}

/// A bounded worker pool configuration.
#[derive(Debug, Clone)]
pub struct Scheduler {
    workers: usize,
    cancel: CancelToken,
    deadline_ms: Option<f64>,
    retry: RetryPolicy,
    telemetry: Telemetry,
    label: String,
}

impl Scheduler {
    /// A scheduler with `workers` threads (clamped to at least one). The
    /// pool is bounded per batch: at most `min(workers, jobs)` threads run.
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            cancel: CancelToken::new(),
            deadline_ms: None,
            retry: RetryPolicy::default(),
            telemetry: Telemetry::noop(),
            label: "batch".to_owned(),
        }
    }

    /// Replaces the default retry-once policy (see [`RetryPolicy`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The configured retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
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

    /// The configured per-job deadline, if any.
    pub fn deadline_ms(&self) -> Option<f64> {
        self.deadline_ms
    }

    /// A scheduler sized to the machine.
    pub fn with_available_parallelism() -> Self {
        Scheduler::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pool's cancellation token (clone it into whatever should be
    /// able to stop the run).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs every job, in parallel when the pool has more than one worker.
    ///
    /// Each job that panics is retried under the configured
    /// [`RetryPolicy`] (a poisoned job might have tripped on transient
    /// state) — by default once, immediately; exhausting the budget fails
    /// the batch and cancels the remaining jobs.
    ///
    /// # Errors
    ///
    /// [`BatchError::JobFailed`] when a job exhausted its retries,
    /// [`BatchError::Cancelled`] when the token fired before completion.
    pub fn run_batch<T, F>(&self, jobs: &[F]) -> Result<BatchOutput<T>, BatchError>
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
            let mut attempt = 0usize;
            let outcome = loop {
                match catch_unwind(AssertUnwindSafe(&jobs[index])) {
                    Ok(result) => break Ok(result),
                    Err(_) if attempt < self.retry.max_retries => {
                        retries.fetch_add(1, Ordering::SeqCst);
                        let delay = self.retry.delay_ms(attempt, index as u64);
                        if delay > 0.0 {
                            std::thread::sleep(std::time::Duration::from_secs_f64(delay / 1e3));
                        }
                        attempt += 1;
                    }
                    Err(_) => break Err(BatchError::JobFailed { index }),
                }
            };
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
                if self.cancel.is_cancelled() {
                    return Err(BatchError::Cancelled);
                }
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
                            if self.cancel.is_cancelled() {
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
                                self.cancel.cancel();
                                break;
                            }
                        }
                    });
                }
            })
            .expect("scheduler workers never propagate panics");
            // First hard failure wins; any unfilled slot means cancellation.
            for slot in results {
                match slot.into_inner().expect("result slot") {
                    Some(Ok(result)) => out.push(result),
                    Some(Err(e)) => return Err(e),
                    None => return Err(BatchError::Cancelled),
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
    /// is cancelled, so on two workers both are busy until the failure
    /// and at most one counter runs; the wait is bounded so a batch that
    /// is never cancelled still ends.
    #[test]
    fn a_failed_job_stops_the_batch_at_every_width() {
        for workers in [1, 2] {
            let scheduler = Scheduler::new(workers);
            let token = scheduler.cancel_token();
            let ran = AtomicU32::new(0);
            let count = || {
                let waited = Instant::now();
                while !token.is_cancelled() && waited.elapsed().as_secs() < 5 {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::SeqCst);
                0u8
            };
            let jobs: Vec<Box<dyn Fn() -> u8 + Sync>> =
                vec![Box::new(|| panic!("always")), Box::new(count), Box::new(count)];
            let err = scheduler.run_batch(&jobs).unwrap_err();
            assert_eq!(err, BatchError::JobFailed { index: 0 });
            assert!(
                ran.load(Ordering::SeqCst) <= 1,
                "{workers} worker(s) ran every job after the failure"
            );
        }
    }

    #[test]
    fn retry_none_fails_on_the_first_panic() {
        let attempts = AtomicU32::new(0);
        let jobs: Vec<Box<dyn Fn() -> u32 + Sync>> = vec![Box::new(|| {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("always")
        })];
        let err = Scheduler::new(1).with_retry(RetryPolicy::none()).run_batch(&jobs).unwrap_err();
        assert_eq!(err, BatchError::JobFailed { index: 0 });
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "no retry attempted");
    }

    #[test]
    fn raised_retry_budget_survives_repeated_panics() {
        let attempts = AtomicU32::new(0);
        let jobs = vec![|| {
            if attempts.fetch_add(1, Ordering::SeqCst) < 3 {
                panic!("transient");
            }
            7u32
        }];
        let out =
            Scheduler::new(1).with_retry(RetryPolicy::backoff(5, 0.0)).run_batch(&jobs).unwrap();
        assert_eq!(out.results, vec![7]);
        assert_eq!(out.retries, 3, "three panics, three retries, fourth attempt succeeds");
    }

    #[test]
    fn backoff_delays_are_deterministic_capped_and_growing() {
        let policy = RetryPolicy { max_retries: 8, base_ms: 10.0, ..RetryPolicy::default() };
        let first = policy.delay_ms(0, 42);
        assert_eq!(first, policy.delay_ms(0, 42), "same (attempt, salt) ⇒ same delay");
        assert!((5.0..=10.0).contains(&first), "jitter stays within [1-j, 1]·base: {first}");
        assert_ne!(policy.delay_ms(0, 42), policy.delay_ms(0, 43), "salt decorrelates jobs");
        let late = policy.delay_ms(20, 42);
        assert!(late <= policy.max_ms, "cap holds: {late}");
        let no_jitter = RetryPolicy { jitter: 0.0, ..policy.clone() };
        assert_eq!(no_jitter.delay_ms(2, 9), 40.0, "base·factor² without jitter");
        assert_eq!(RetryPolicy::default().delay_ms(0, 1), 0.0, "default never sleeps");
    }

    #[test]
    fn cancellation_stops_the_batch() {
        let scheduler = Scheduler::new(2);
        scheduler.cancel_token().cancel();
        let jobs: Vec<_> = (0..8).map(|i| move || i).collect();
        assert_eq!(scheduler.run_batch(&jobs).unwrap_err(), BatchError::Cancelled);
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
