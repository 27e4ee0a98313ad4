//! Work-stealing executor for sweep fan-out.
//!
//! Every experiment driver is a nested loop over independent simulator
//! configurations (application × protocol × consistency × network). This
//! module flattens such a loop into an indexed task list and runs it on a
//! pool of scoped worker threads. Each worker takes the next task from a
//! claim source until the source runs dry: locally a shared atomic
//! [`cursor`], so a worker that finishes a short run immediately steals the
//! next pending one instead of idling behind a static partition (MP3D at
//! 64 procs takes ~20× longer than LU at 4); in fleet mode the lease log
//! (see [`super::fleet`]).
//!
//! Determinism: each configuration runs an isolated [`crate::Machine`]
//! whose behaviour depends only on its inputs, and results are written to a
//! per-index slot and collected in index order. The output is therefore
//! byte-identical to the serial loop for any worker count — `jobs` affects
//! wall-clock only. `tests/parallel_determinism.rs` locks this in.
//!
//! Built on `std::thread::scope` only — no external runtime.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

/// The local claim source: an atomic cursor handing out `0..n` in order,
/// each index once (with tag 0).
pub fn cursor(n: usize) -> impl Fn() -> Option<(usize, u64)> + Sync {
    let next = AtomicUsize::new(0);
    move || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < n).then_some((i, 0))
    }
}

/// Sets the flag and wakes the side thread when dropped, so the side
/// thread exits even if a worker panics.
struct Finish<'a> {
    done: &'a AtomicBool,
    side: Option<Thread>,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(side) = &self.side {
            side.unpark();
        }
    }
}

/// Runs `f(i, tag)` for every `(i, tag)` that `claim` hands out, across
/// `jobs` worker threads, and returns the per-index results of `0..n` in
/// order. Each worker claims until `claim` returns `None`.
///
/// `None` marks an index that was never claimed: a claim source runs dry
/// early on fail-fast drains and cancellation. Claimed tasks always run
/// to completion, so a drain never tears a simulator run in half. With
/// `jobs <= 1` the loop runs inline on the caller's thread.
///
/// `beside`, when given, runs on one more thread of the same scope (the
/// fleet heartbeat); once every worker has returned, its flag turns true
/// and its thread is unparked, and it must return soon after.
///
/// # Panics
///
/// Propagates a panic from `claim` or `f` (callers that need isolation
/// wrap `f` in `catch_unwind` themselves — see
/// [`super::runner::run_cells`]), and panics if `claim` yields an index
/// `>= n`.
pub fn run_collect<T, C, F>(
    jobs: usize,
    n: usize,
    claim: C,
    f: F,
    beside: Option<&(dyn Fn(&AtomicBool) + Sync)>,
) -> Vec<Option<T>>
where
    T: Send,
    C: Fn() -> Option<(usize, u64)> + Sync,
    F: Fn(usize, u64) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || {
        while let Some((i, tag)) = claim() {
            let r = f(i, tag);
            *slots[i].lock().expect("result slot poisoned") = Some(r);
        }
    };
    match beside {
        None if jobs <= 1 => work(),
        _ => {
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let side = beside.map(|beside| scope.spawn(|| beside(&done)));
                let _finish = Finish {
                    done: &done,
                    side: side.map(|h| h.thread().clone()),
                };
                if jobs <= 1 {
                    work();
                } else {
                    let workers: Vec<_> = (0..jobs).map(|_| scope.spawn(work)).collect();
                    for w in workers {
                        w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                    }
                }
            });
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect()
}

/// Runs `f(0..n)` across `jobs` worker threads and returns the results in
/// index order.
///
/// With `jobs <= 1` (or fewer than two tasks) the loop runs inline on the
/// caller's thread with no pool setup at all, so serial sweeps pay nothing
/// for the parallel capability.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing task — the same one the
/// serial loop would have hit first. (Unlike the serial loop, later tasks
/// still run; their results are discarded.)
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn run_ordered<T, E, F>(jobs: usize, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    run_collect(jobs.min(n), n, cursor(n), |i, _| f(i), None)
        .into_iter()
        .map(|slot| slot.expect("every index claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cursor over `0..n` that runs dry early once `stop` is set.
    fn claims(n: usize, stop: &AtomicBool) -> impl Fn() -> Option<(usize, u64)> + Sync + '_ {
        let next = cursor(n);
        move || {
            if stop.load(Ordering::Relaxed) {
                None
            } else {
                next()
            }
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| -> Result<usize, ()> { Ok(i * i) };
        let serial = run_ordered(1, 100, f).unwrap();
        let parallel = run_ordered(8, 100, f).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn lowest_index_error_wins() {
        let f = |i: usize| -> Result<usize, usize> {
            if i % 3 == 2 {
                Err(i)
            } else {
                Ok(i)
            }
        };
        assert_eq!(run_ordered(4, 50, f), Err(2));
        assert_eq!(run_ordered(1, 50, f), Err(2));
    }

    #[test]
    fn more_workers_than_tasks() {
        let r = run_ordered(16, 3, |i| -> Result<usize, ()> { Ok(i + 1) }).unwrap();
        assert_eq!(r, vec![1, 2, 3]);
    }

    #[test]
    fn empty_task_list() {
        let r: Vec<usize> = run_ordered(4, 0, |_| -> Result<usize, ()> { unreachable!() }).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn run_collect_without_stop_claims_everything() {
        for jobs in [1, 4] {
            let stop = AtomicBool::new(false);
            let r = run_collect(jobs, 10, claims(10, &stop), |i, _| i * 2, None);
            assert_eq!(r.len(), 10);
            assert!(r.iter().all(Option::is_some));
            assert_eq!(r[4], Some(8));
        }
    }

    #[test]
    fn run_collect_stop_leaves_unclaimed_slots_none() {
        for jobs in [1, 4] {
            let stop = AtomicBool::new(false);
            let r = run_collect(
                jobs,
                64,
                claims(64, &stop),
                |i, _| {
                    if i == 3 {
                        stop.store(true, Ordering::Relaxed);
                    }
                    i
                },
                None,
            );
            assert_eq!(r.len(), 64);
            assert_eq!(r[3], Some(3), "claimed cells run to completion");
            assert!(
                r.iter().any(Option::is_none),
                "stop flag must leave later cells unclaimed"
            );
        }
    }

    #[test]
    fn run_collect_stop_set_up_front_runs_nothing() {
        let stop = AtomicBool::new(true);
        let r = run_collect(4, 8, claims(8, &stop), |i, _| i, None);
        assert_eq!(r, vec![None; 8]);
    }

    #[test]
    fn beside_runs_in_the_scope_until_every_worker_returned() {
        for jobs in [1, 3] {
            let next = cursor(20);
            let finished = AtomicUsize::new(0);
            let seen_at_exit = AtomicUsize::new(usize::MAX);
            let beside = |done: &AtomicBool| {
                while !done.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                seen_at_exit.store(finished.load(Ordering::SeqCst), Ordering::SeqCst);
            };
            let r = run_collect(
                jobs,
                20,
                || next().map(|(i, _)| (i, 7)),
                |i, tag| {
                    finished.fetch_add(1, Ordering::SeqCst);
                    (i, tag)
                },
                Some(&beside),
            );
            assert!(r.iter().enumerate().all(|(i, s)| *s == Some((i, 7))));
            assert_eq!(seen_at_exit.load(Ordering::SeqCst), 20);
        }
    }
}
