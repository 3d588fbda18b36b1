//! A minimal `std::thread` worker pool for independent jobs.
//!
//! No external dependencies: jobs are drawn from a shared [`Mutex`]-guarded
//! FIFO queue by scoped worker threads and their results are written back
//! into submission-order slots. The pool lives in the geometry crate — the
//! bottom of the workspace dependency stack — so every crate above can
//! reach it; the engine's batch executor re-exports and drives it.
//!
//! Jobs are drained in **submission order** (FIFO). Draining order cannot
//! change any *result* (each job writes only its own slot), but it does
//! change the makespan: with the previous LIFO drain, long jobs submitted
//! first were started last, so a batch could finish almost a full long-job
//! late. FIFO starts jobs in the order the caller chose.

use crate::sync::{into_inner_recover, lock_recover};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Jobs currently enqueued or executing across every live pool invocation
/// in the process — a telemetry gauge, read by the engine's metrics
/// snapshot. Maintained with the queue's own counters so it costs two
/// atomic ops per job.
static QUEUE_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Total jobs ever handed to [`run_on_pool`] in this process (inline and
/// parallel paths both count, so the value is thread-count-invariant).
static JOBS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Current process-wide pool occupancy (queued + executing jobs).
pub fn queue_depth() -> usize {
    QUEUE_DEPTH.load(Ordering::Relaxed)
}

/// Total jobs ever submitted to the pool in this process.
pub fn jobs_submitted() -> u64 {
    JOBS_TOTAL.load(Ordering::Relaxed)
}

/// Runs `jobs` on up to `threads` worker threads and returns their results
/// in submission order. `threads <= 1` degenerates to an inline loop.
pub fn run_on_pool<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    JOBS_TOTAL.fetch_add(jobs.len() as u64, Ordering::Relaxed);
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let n = jobs.len();
    let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let workers = threads.min(n);
    QUEUE_DEPTH.fetch_add(n, Ordering::Relaxed);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // FIFO: take the oldest unstarted job.
                let job = lock_recover(&queue).pop_front();
                match job {
                    Some((index, job)) => {
                        let result = job();
                        *lock_recover(&slots[index]) = Some(result);
                        QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            into_inner_recover(slot).expect("worker pool completed without filling every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..50).map(|i| move || i * i).collect();
        let sequential = run_on_pool(jobs, 1);
        let jobs: Vec<_> = (0..50).map(|i| move || i * i).collect();
        let parallel = run_on_pool(jobs, 4);
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..2).map(|i| move || i + 1).collect();
        assert_eq!(run_on_pool(jobs, 16), vec![1, 2]);
        let none: Vec<fn() -> i32> = Vec::new();
        assert!(run_on_pool(none, 4).is_empty());
    }

    #[test]
    fn jobs_are_drained_fifo() {
        // Job i blocks until every earlier job has started. Under FIFO
        // draining with 2 workers at most the two oldest unstarted jobs are
        // ever in flight, so each gate is eventually opened and the batch
        // terminates. Under the old LIFO drain the two *newest* jobs would
        // be popped first and wait forever on gates nobody can open — the
        // timeout below turns that deadlock into a clear failure.
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        let started = Mutex::new(0usize);
        let gate = Condvar::new();
        let jobs: Vec<_> = (0..20)
            .map(|i| {
                let (started, gate) = (&started, &gate);
                move || {
                    let mut count = started.lock().unwrap();
                    while *count < i {
                        let (next, timed_out) =
                            gate.wait_timeout(count, Duration::from_secs(10)).unwrap();
                        count = next;
                        assert!(!timed_out.timed_out(), "non-FIFO drain deadlocked job {i}");
                    }
                    *count = i + 1;
                    gate.notify_all();
                    i
                }
            })
            .collect();
        let out = run_on_pool(jobs, 2);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_counters_track_submissions() {
        // Other tests in this process also submit jobs, so assert deltas
        // and invariants rather than absolute values.
        let before = jobs_submitted();
        let jobs: Vec<_> = (0..8).map(|i| move || i).collect();
        let _ = run_on_pool(jobs, 3);
        let jobs: Vec<_> = (0..5).map(|i| move || i).collect();
        let _ = run_on_pool(jobs, 1); // inline path counts too
        assert!(jobs_submitted() >= before + 13);
    }
}
