//! A std-only work-stealing pool for indexed job grids.
//!
//! Dataset collection (and any other embarrassingly parallel grid) needs two
//! properties at once: *dynamic load balance* — profiling jobs vary by orders
//! of magnitude in cost, so static chunking leaves workers idle — and
//! *deterministic output* — downstream consumers (dataset dedup, the
//! layer-to-kernel mapping table, cache digests) rely on serial row order.
//!
//! [`run_indexed`] provides both: jobs are identified by their index in the
//! serial iteration order, workers pull from per-worker deques and steal
//! from each other when they run dry, and the results are stitched back
//! into index order before returning. Scheduling is nondeterministic;
//! output never is.

use crate::sync::lock_unpoisoned;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Per-worker double-ended job queues with stealing.
///
/// Job indices `0..jobs` are dealt to the workers in contiguous blocks
/// (preserving locality with the serial order). Each worker pops its own
/// queue from the front and, once empty, steals from the *back* of a
/// victim's queue — the classic Chase–Lev discipline, here guarded by one
/// mutex per deque (collection jobs cost milliseconds, so lock traffic is
/// noise).
#[derive(Debug)]
pub struct StealQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Deals job indices `0..jobs` to `workers` queues in contiguous blocks.
    ///
    /// With `workers > jobs` the extra queues start empty; their workers go
    /// straight to stealing (and find nothing if the grid is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(jobs: usize, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker queue");
        let chunk = jobs.div_ceil(workers).max(1);
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for j in 0..jobs {
            deques[j / chunk].push_back(j);
        }
        StealQueues {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Number of worker queues.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Pops the next job from worker `w`'s own queue (front).
    ///
    /// A poisoned queue mutex is recovered rather than propagated: the
    /// deque only holds plain indices, so a panic elsewhere cannot have
    /// left it in a torn state, and panic isolation (see
    /// [`run_indexed_catching`]) demands that one bad job never wedges the
    /// scheduler.
    pub fn pop_own(&self, w: usize) -> Option<usize> {
        lock_unpoisoned(&self.deques[w]).pop_front()
    }

    /// Steals one job from some other worker's queue (back), scanning
    /// victims cyclically starting after `w`.
    pub fn steal(&self, w: usize) -> Option<usize> {
        let n = self.deques.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some(j) = lock_unpoisoned(&self.deques[victim]).pop_back() {
                return Some(j);
            }
        }
        None
    }

    /// The next job for worker `w`: own queue first, then stealing.
    /// `None` means the whole grid is exhausted.
    pub fn next_job(&self, w: usize) -> Option<usize> {
        self.pop_own(w).or_else(|| self.steal(w))
    }
}

/// A job that panicked inside a work-stealing run: the index it carried
/// plus the original panic payload (so non-isolating callers can resume
/// the unwind faithfully).
#[derive(Debug)]
pub struct JobPanic {
    /// Index of the job that panicked.
    pub index: usize,
    /// The panic payload as `std::thread::JoinHandle::join` would surface it.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl JobPanic {
    /// Best-effort rendering of the panic message.
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    }
}

/// Runs jobs `0..jobs` on `workers` work-stealing threads with **per-job
/// panic isolation**, returning one `Result` per job **in job-index
/// order**.
///
/// Each job is wrapped in `catch_unwind`: a panicking job yields
/// `Err(JobPanic)` for *its own slot only* — every other job still runs
/// and returns normally, and the worker that hit the panic keeps pulling
/// jobs. This is the resilience contract the dataset collection engine
/// builds on: one poisoned grid point must never kill a whole profiling
/// campaign.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_indexed_catching<T, F>(jobs: usize, workers: usize, run: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers > 0, "need at least one worker thread");
    let caught = |j: usize| -> Result<T, JobPanic> {
        catch_unwind(AssertUnwindSafe(|| run(j))).map_err(|payload| JobPanic { index: j, payload })
    };
    if jobs == 0 {
        return Vec::new();
    }
    if workers == 1 || jobs == 1 {
        // No second worker to steal from: skip thread setup entirely.
        return (0..jobs).map(caught).collect();
    }
    let queues = StealQueues::new(jobs, workers);
    let per_worker: Vec<Vec<(usize, Result<T, JobPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let caught = &caught;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(j) = queues.next_job(w) {
                        out.push((j, caught(j)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Jobs are caught individually, so a worker-level panic can
                // only be a harness bug; propagate it faithfully.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Stitch back into serial order: every index is produced exactly once.
    let mut slots: Vec<Option<Result<T, JobPanic>>> = (0..jobs).map(|_| None).collect();
    for (j, v) in per_worker.into_iter().flatten() {
        debug_assert!(slots[j].is_none(), "job {j} ran twice");
        slots[j] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(j, s)| match s {
            Some(v) => v,
            None => unreachable!("job {j} was never executed"),
        })
        .collect()
}

/// Runs jobs `0..jobs` on `workers` work-stealing threads and returns the
/// results **in job-index order**, exactly as a serial
/// `(0..jobs).map(run).collect()` would.
///
/// Each job is executed exactly once, by whichever worker claims it.
/// Workers that finish their own block steal from the busiest survivors,
/// so a single slow job (a big network on a big GPU) no longer serializes
/// its whole chunk behind it.
///
/// # Panics
///
/// Panics if `workers` is zero, or propagates the first (lowest-index)
/// panic from `run` after every other job has completed.
pub fn run_indexed<T, F>(jobs: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_catching(jobs, workers, run)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p.payload),
        })
        .collect()
}

/// Runs jobs `0..jobs` on `workers` work-stealing threads and folds the
/// per-job results into `init` **in job-index order**: the returned value
/// equals `(0..jobs).map(map).fold(init, fold)` executed serially.
///
/// This is the pool's deterministic reduction primitive. Which worker
/// computes which partial is nondeterministic; the fold sequence never is,
/// so a reduction over partial accumulators (chunked regression sums,
/// histogram merges) produces bit-identical results at every worker count —
/// provided the *job decomposition* itself is worker-independent (fixed
/// chunk sizes, never `jobs / workers`).
///
/// All partials are materialised before folding (they are small accumulator
/// values in every current use); the fold runs on the calling thread.
///
/// # Panics
///
/// Panics if `workers` is zero, or propagates the first (lowest-index)
/// panic from `map` after every other job has completed.
pub fn map_reduce<T, A, M, F>(jobs: usize, workers: usize, map: M, init: A, fold: F) -> A
where
    T: Send,
    M: Fn(usize) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    run_indexed(jobs, workers, map).into_iter().fold(init, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 3, 8, 40] {
            let out = run_indexed(17, workers, |i| i * i);
            let expect: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_indexed(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn zero_jobs_returns_empty() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        run_indexed(4, 0, |i| i);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = run_indexed(100, 7, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn skewed_job_costs_are_stolen() {
        // One pathologically slow job at index 0; with static chunking its
        // whole block would wait behind it, here the other workers steal it
        // empty. Job 0 stays busy until another thread has recorded a job,
        // and every other job first waits for job 0 to start, so no single
        // thread can drain the grid however the threads are scheduled. The
        // waits are bounded, so a broken pool fails the assertion instead
        // of hanging.
        struct Seen {
            zero_started: bool,
            threads: std::collections::HashSet<std::thread::ThreadId>,
        }
        let seen = Mutex::new(Seen {
            zero_started: false,
            threads: std::collections::HashSet::new(),
        });
        let changed = std::sync::Condvar::new();
        let timeout = std::time::Duration::from_secs(10);
        let out = run_indexed(64, 4, |i| {
            let me = std::thread::current().id();
            let mut st = seen.lock().unwrap();
            if i == 0 {
                st.zero_started = true;
                st.threads.insert(me);
                changed.notify_all();
                drop(
                    changed
                        .wait_timeout_while(st, timeout, |st| st.threads.iter().all(|t| *t == me))
                        .unwrap(),
                );
            } else {
                st = changed
                    .wait_timeout_while(st, timeout, |st| !st.zero_started)
                    .unwrap()
                    .0;
                st.threads.insert(me);
                changed.notify_all();
            }
            i * 2
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
        assert!(
            seen.lock().unwrap().threads.len() > 1,
            "expected >1 worker to run jobs"
        );
    }

    #[test]
    fn map_reduce_folds_in_index_order() {
        for workers in [1, 2, 3, 8, 40] {
            let folded = map_reduce(
                10,
                workers,
                |i| i.to_string(),
                String::new(),
                |mut acc, s| {
                    acc.push_str(&s);
                    acc
                },
            );
            assert_eq!(folded, "0123456789", "workers = {workers}");
        }
    }

    #[test]
    fn map_reduce_zero_jobs_returns_init() {
        let folded = map_reduce(0, 4, |i| i, 42usize, |a, b| a + b);
        assert_eq!(folded, 42);
    }

    #[test]
    fn steal_takes_from_the_back() {
        let q = StealQueues::new(6, 2);
        // Worker 0 owns {0,1,2}, worker 1 owns {3,4,5}.
        assert_eq!(q.pop_own(0), Some(0));
        assert_eq!(q.steal(0), Some(5), "steals from the victim's back");
        assert_eq!(q.pop_own(1), Some(3));
        assert_eq!(q.next_job(1), Some(4));
        assert_eq!(q.next_job(1), Some(2), "own queue empty: steals 0's back");
        assert_eq!(q.next_job(1), Some(1));
        assert_eq!(q.next_job(0), None);
    }
}
