//! A dependency-free scoped thread pool for embarrassingly parallel,
//! deterministically ordered work.
//!
//! The workspace is offline (no rayon), so this crate hand-rolls the one
//! pattern the compile matrix needs: run `f(0..jobs)` across up to
//! `workers` OS threads and hand the results back **in index order**,
//! regardless of which worker finished which job when. Work distribution
//! is self-scheduling: every worker repeatedly claims the next unclaimed
//! index from a shared atomic counter, so a slow job (one big ISAX ILP)
//! never stalls the queue behind it the way static chunking would.
//!
//! Determinism contract: [`Pool::run`] returns `results[i] == f(i)` for
//! every `i`, merged by index — never by completion order. Callers that
//! record per-job artifacts (traces, Verilog, diagnostics) therefore see
//! identical output for any worker count, provided `f` itself is
//! deterministic per index.
//!
//! Panic semantics: a panic inside `f` is forwarded to the caller after
//! all workers have stopped claiming work, like `std::thread::scope`. A
//! caller that must outlive a panicking job catches the panic inside `f`;
//! [`panic_message`] renders the caught payload.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Scheduling statistics for one job, observed by the worker that ran it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Worker (0-based spawn index) that claimed the job. Scheduling-
    /// dependent: any worker may claim any job.
    pub worker: usize,
    /// Nanoseconds between the run starting and this job being claimed —
    /// how long the job sat in the queue behind other work.
    pub queue_wait_ns: u64,
    /// Nanoseconds the job's closure ran.
    pub run_ns: u64,
}

/// Aggregate statistics for one worker thread across a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker claimed and ran.
    pub jobs: u64,
    /// Nanoseconds this worker spent inside job closures.
    pub busy_ns: u64,
}

/// Everything a run observed about its own scheduling: wall time,
/// per-job queue-wait vs run split, and per-worker load. All fields are
/// wall-clock- and scheduling-dependent — callers must keep them out of
/// deterministic artifacts (the telemetry layer names them `pool.*` and
/// strips them for exactly this reason).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Wall time of the whole run.
    pub wall_ns: u64,
    /// Per-job statistics, in job-index order (one entry per job; empty
    /// after a propagated panic, which unwinds past the stats).
    pub per_job: Vec<JobStats>,
    /// Per-worker statistics, indexed by worker. Length is the number of
    /// workers that actually spawned (`min(workers, jobs)`, or 1 for the
    /// inline path).
    pub per_worker: Vec<WorkerStats>,
}

impl RunStats {
    /// Total nanoseconds jobs waited in the queue before being claimed.
    pub fn queue_wait_total_ns(&self) -> u64 {
        self.per_job.iter().map(|j| j.queue_wait_ns).sum()
    }

    /// Total nanoseconds spent running job closures (summed across
    /// workers, so it can exceed `wall_ns`).
    pub fn run_total_ns(&self) -> u64 {
        self.per_job.iter().map(|j| j.run_ns).sum()
    }

    /// Fraction of the run's wall time `worker` spent inside jobs, 0..=1.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.per_worker
            .get(worker)
            .map_or(0.0, |w| w.busy_ns as f64 / self.wall_ns as f64)
    }
}

/// Extracts a human-readable message from a panic payload.
///
/// `panic!("...")` payloads are `&str` or `String`; anything else (a
/// custom `panic_any` value) degrades to a placeholder rather than being
/// lost.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A fixed-width scoped thread pool.
///
/// The pool is a value, not a resource: threads are spawned per
/// [`Pool::run`] call inside a [`std::thread::scope`] and joined before it
/// returns, so borrowed data (`&self` compilers, caches) flows into the
/// closure without `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// Creates a pool that runs at most `workers` jobs concurrently.
    /// A worker count of 0 is clamped to 1.
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// Concurrency width this pool was created with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(i)` for every `i in 0..jobs` and returns the results in
    /// index order.
    ///
    /// With a single worker (or at most one job) everything runs inline on
    /// the calling thread — no threads are spawned, so the serial path is
    /// byte-for-byte the sequential loop.
    ///
    /// # Panics
    ///
    /// Re-raises the first observed panic from `f` after all workers have
    /// drained.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with_stats(jobs, f).0
    }

    /// Like [`Pool::run`], additionally returning the [`RunStats`] the
    /// run observed about itself: queue-wait vs run time per job and
    /// per-worker load. The result vector is identical to `run`'s —
    /// stats ride alongside, they never perturb the index-ordered merge.
    ///
    /// # Panics
    ///
    /// Re-raises the first observed panic from `f` (lowest job index)
    /// after all workers have drained; the stats unwind with it.
    pub fn run_with_stats<T, F>(&self, jobs: usize, f: F) -> (Vec<T>, RunStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let started = Instant::now();
        if self.workers == 1 || jobs <= 1 {
            let mut results = Vec::with_capacity(jobs);
            let mut per_job = Vec::with_capacity(jobs);
            let mut busy_ns = 0u64;
            for i in 0..jobs {
                let queue_wait_ns = elapsed_ns(started);
                let job_started = Instant::now();
                results.push(f(i));
                let run_ns = elapsed_ns(job_started);
                busy_ns += run_ns;
                per_job.push(JobStats {
                    worker: 0,
                    queue_wait_ns,
                    run_ns,
                });
            }
            let stats = RunStats {
                wall_ns: elapsed_ns(started),
                per_job,
                per_worker: vec![WorkerStats {
                    jobs: jobs as u64,
                    busy_ns,
                }],
            };
            return (results, stats);
        }
        let next = AtomicUsize::new(0);
        let threads = self.workers.min(jobs);
        let worker_outputs: Vec<WorkerOutput<T>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (f, next) = (&f, &next);
                    scope.spawn(move || {
                        let mut claimed: Vec<(usize, T, JobStats)> = Vec::new();
                        let mut panic = None;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            let queue_wait_ns = elapsed_ns(started);
                            let job_started = Instant::now();
                            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                                Ok(v) => claimed.push((
                                    i,
                                    v,
                                    JobStats {
                                        worker: w,
                                        queue_wait_ns,
                                        run_ns: elapsed_ns(job_started),
                                    },
                                )),
                                Err(p) => {
                                    // Stop the whole pool: park the queue
                                    // past the end so peers drain quickly.
                                    next.store(jobs, Ordering::Relaxed);
                                    panic = Some((i, p));
                                    break;
                                }
                            }
                        }
                        WorkerOutput { claimed, panic }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker thread itself panicked"))
                .collect()
        });
        // Merge by stable job index, never by completion order. Workers
        // race, so several can each observe a panic; re-raising the one
        // with the *lowest job index* (not the first worker's) keeps the
        // propagated panic deterministic for any worker count.
        let mut slots: Vec<Option<(T, JobStats)>> = (0..jobs).map(|_| None).collect();
        let mut panics: Vec<(usize, PanicPayload)> = Vec::new();
        let mut per_worker = vec![WorkerStats::default(); threads];
        for (w, out) in worker_outputs.into_iter().enumerate() {
            for (i, v, js) in out.claimed {
                debug_assert!(slots[i].is_none(), "job {i} ran twice");
                per_worker[w].jobs += 1;
                per_worker[w].busy_ns += js.run_ns;
                slots[i] = Some((v, js));
            }
            panics.extend(out.panic);
        }
        if let Some((_, p)) = panics.into_iter().min_by_key(|(i, _)| *i) {
            resume_unwind(p);
        }
        let mut results = Vec::with_capacity(jobs);
        let mut per_job = Vec::with_capacity(jobs);
        for (i, s) in slots.into_iter().enumerate() {
            let (v, js) = s.unwrap_or_else(|| panic!("job {i} was never claimed"));
            results.push(v);
            per_job.push(js);
        }
        let stats = RunStats {
            wall_ns: elapsed_ns(started),
            per_job,
            per_worker,
        };
        (results, stats)
    }
}

type PanicPayload = Box<dyn std::any::Any + Send>;

struct WorkerOutput<T> {
    claimed: Vec<(usize, T, JobStats)>,
    panic: Option<(usize, PanicPayload)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let got = Pool::new(workers).run(37, |i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(4).run(100, |i| {
            ran[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(r.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn zero_jobs_and_zero_workers_are_fine() {
        assert!(Pool::new(0).run(0, |i| i).is_empty());
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::new(3).run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn single_worker_runs_inline_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let ids = Pool::new(1).run(5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn work_is_shared_when_a_job_blocks() {
        // One deliberately slow job must not prevent other workers from
        // draining the rest of the queue (self-scheduling, not chunking).
        let slow_started = AtomicBool::new(false);
        let done_while_slow = AtomicUsize::new(0);
        Pool::new(2).run(16, |i| {
            if i == 0 {
                slow_started.store(true, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
            } else if slow_started.load(Ordering::SeqCst) {
                done_while_slow.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(done_while_slow.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(3).run(10, |i| {
                if i == 4 {
                    panic!("job four exploded");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job four exploded"), "{msg}");
    }

    #[test]
    fn propagated_panic_is_the_lowest_index_one() {
        // With many workers several jobs panic concurrently; the one that
        // propagates must be job 2 (lowest index), not whichever worker
        // happened to merge first.
        for _ in 0..20 {
            let result = std::panic::catch_unwind(|| {
                Pool::new(4).run(12, |i| {
                    if i >= 2 {
                        panic!("job {i} exploded");
                    }
                    i
                })
            });
            let payload = result.expect_err("panic must propagate");
            let msg = panic_message(payload.as_ref());
            assert_eq!(msg, "job 2 exploded");
        }
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let literal: Box<dyn std::any::Any + Send> = Box::new("cell three fell over");
        assert_eq!(panic_message(literal.as_ref()), "cell three fell over");
        let formatted: Box<dyn std::any::Any + Send> = Box::new(format!("dynamic {}", 0));
        assert_eq!(panic_message(formatted.as_ref()), "dynamic 0");
    }

    #[test]
    fn non_string_panic_payloads_degrade_gracefully() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(
            panic_message(payload.as_ref()),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn stats_account_for_every_job_inline_and_threaded() {
        for workers in [1, 4] {
            let (got, stats) = Pool::new(workers).run_with_stats(9, |i| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            });
            assert_eq!(got, (0..9).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(stats.per_job.len(), 9);
            let claimed: u64 = stats.per_worker.iter().map(|w| w.jobs).sum();
            assert_eq!(claimed, 9);
            assert!(stats.wall_ns > 0);
            // Every job slept ≥ 1 ms, so run time is visible everywhere.
            assert!(stats.per_job.iter().all(|j| j.run_ns > 0));
            assert!(stats.run_total_ns() > 0);
            let busy: u64 = stats.per_worker.iter().map(|w| w.busy_ns).sum();
            assert_eq!(busy, stats.run_total_ns());
            // Workers are 0-based spawn indices within range.
            let spawned = stats.per_worker.len();
            assert_eq!(spawned, workers.min(9));
            assert!(stats.per_job.iter().all(|j| j.worker < spawned));
            for w in 0..spawned {
                assert!(stats.utilization(w) <= 1.0 + f64::EPSILON);
            }
        }
    }

    #[test]
    fn later_jobs_wait_longer_on_one_worker() {
        let (_, stats) = Pool::new(1).run_with_stats(3, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        // Serial queue: job 2 cannot have waited less than job 0.
        assert!(stats.per_job[2].queue_wait_ns >= stats.per_job[0].queue_wait_ns);
        assert!(stats.queue_wait_total_ns() >= stats.per_job[2].queue_wait_ns);
    }

    #[test]
    fn utilization_is_zero_for_empty_runs() {
        let (got, stats) = Pool::new(4).run_with_stats(0, |i| i);
        assert!(got.is_empty());
        assert_eq!(stats.utilization(0), 0.0);
        assert_eq!(stats.queue_wait_total_ns(), 0);
    }

    #[test]
    fn borrows_non_static_state() {
        let log = Mutex::new(Vec::new());
        let doubled = Pool::new(2).run(8, |i| {
            log.lock().unwrap().push(i);
            i * 2
        });
        assert_eq!(doubled, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        let mut seen = log.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }
}
