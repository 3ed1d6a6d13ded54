//! Scoped-thread worker pool with deterministic result ordering and
//! per-job panic isolation.
//!
//! Defect-injection campaigns solve thousands of independent per-die
//! transients; this pool fans them out across cores. Three properties
//! make it safe for reproducible, long-running experiments:
//!
//! 1. **Deterministic ordering** — [`Pool::map`] and [`Pool::try_map`]
//!    return results in input order regardless of which worker finished
//!    first, so a campaign summary is byte-identical at any thread
//!    count.
//! 2. **Borrow-friendly** — built on [`std::thread::scope`], so jobs
//!    may borrow from the caller's stack (the campaign, the bus
//!    parameters) without `Arc` plumbing.
//! 3. **Panic isolation** — every job runs under
//!    [`std::panic::catch_unwind`]. A panicking job becomes an
//!    `Err(JobPanic)` in its own slot of [`Pool::try_map`]'s output;
//!    every other job still runs to completion and keeps its result.
//!    (Before this contract existed, one panicking job dropped its
//!    channel sender, the scope unwound, and every in-flight result of
//!    the batch was lost.)
//!
//! Work distribution is a shared atomic cursor (cheap dynamic load
//! balancing — long and short dies interleave freely); each result goes
//! to the slot of its input index, allocated before any job runs. The
//! calling thread is one of the workers, so an `n`-thread pool spawns
//! `n − 1` threads, and no malloc arena sits idle with a waiting
//! caller. This one cursor schedules every batch in the workspace:
//! campaign rounds, the fleet engine's checkpoint chunks of boards, and
//! the victim panels and direct chunks of one die's plan solve alike,
//! so no item is ever pinned to a worker.
//!
//! **Nested pools run inline.** Every worker carries a thread-local
//! flag while it works (a spawned one for its whole life, the calling
//! thread until the pool returns), and a [`Pool::try_map`] called
//! on a flagged thread runs its jobs in order on that thread, exactly
//! as a one-thread pool would. A die's panels therefore fan out when
//! the die runs on its own (a single device, a one-thread campaign),
//! and stay serial on a campaign or fleet worker, which already keeps
//! a core busy: the pool never spawns more threads than the outermost
//! call asked for.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

thread_local! {
    /// Whether this thread is working for a [`Pool::try_map`]: a
    /// spawned worker for its whole life, the calling thread until the
    /// pool returns.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a pool worker, where a nested
/// [`Pool::try_map`] runs inline.
fn on_worker() -> bool {
    ON_WORKER.with(Cell::get)
}

/// A job that panicked inside [`Pool::try_map`].
///
/// Carries the input index of the job (stable across thread counts)
/// and the stringified panic payload, so campaign reports can name the
/// failing trial deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Input index of the panicking job.
    pub index: usize,
    /// Stringified panic payload (see [`panic_message`]).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Renders a panic payload (from [`std::panic::catch_unwind`]) as text.
///
/// `panic!("...")` payloads are `&str` or `String`; anything else (a
/// custom `panic_any` value) falls back to a fixed marker so the result
/// stays deterministic.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width worker pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Pool {
        Pool { threads: threads.max(1) }
    }

    /// A pool sized to the host's available parallelism, read once per
    /// process: `available_parallelism` reads the cgroup files on every
    /// call, and a die asks for this pool twice per plan solve.
    #[must_use]
    pub fn host() -> Pool {
        static HOST: OnceLock<usize> = OnceLock::new();
        Pool::new(*HOST.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }))
    }

    /// Number of threads this pool works on, the calling thread
    /// included.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// input order. `f` receives `(index, &item)` so callers can key
    /// per-item RNG substreams off the stable index.
    ///
    /// With one thread (or one item), or on a pool worker, the work
    /// runs inline on the calling thread — no spawn overhead, identical
    /// results.
    ///
    /// This is the infallible wrapper over [`Pool::try_map`]: if any
    /// job panics, every job still runs to completion, and then the
    /// panic of the **lowest-indexed** failing job is re-raised on the
    /// calling thread (deterministic regardless of scheduling).
    /// Callers that must survive panicking jobs use [`Pool::try_map`]
    /// directly.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-indexed job panic, if any.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for result in self.try_map(items, f) {
            match result {
                Ok(value) => out.push(value),
                Err(p) => panic!("{p}"),
            }
        }
        out
    }

    /// Applies `f` to every item, in parallel, isolating panics: slot
    /// `i` of the output is `Ok(result)` if job `i` returned, or
    /// `Err(JobPanic)` if it panicked — in input order either way.
    ///
    /// A panicking job never disturbs its siblings: each job runs under
    /// [`std::panic::catch_unwind`], so all `items.len()` jobs execute
    /// exactly once and every non-panicking result is retained. The
    /// output is byte-identical at any thread count (the panic payloads
    /// are stringified, which makes them comparable and serialisable).
    /// Called on a pool worker, it runs inline, as a one-thread pool.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 || on_worker() {
            return items.iter().enumerate().map(|(i, t)| run_job(&f, i, t)).collect();
        }

        let cursor = AtomicUsize::new(0);
        // One slot per job, allocated before any job runs, so a worker
        // allocates nothing to hand a result back.
        let slots: Vec<Mutex<Option<Result<R, JobPanic>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(idx) else { break };
            // catch_unwind inside the worker: the scope only ever joins
            // cleanly, so no in-flight result is ever lost to a
            // sibling's panic.
            let result = run_job(&f, idx, item);
            // Storing a value cannot leave the slot half-written, so a
            // poisoned lock still holds a valid slot.
            *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        };
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    scope.spawn(move || {
                        ON_WORKER.with(|flag| flag.set(true));
                        work();
                    })
                })
                .collect();
            // The calling thread is the first worker, flagged only
            // while it works.
            ON_WORKER.with(|flag| flag.set(true));
            work();
            ON_WORKER.with(|flag| flag.set(false));
            // Join every worker before returning. The scope alone waits
            // only for the closures, not for the threads to exit, so the
            // next call's workers could start while these still hold
            // their malloc arenas, and make new ones: the process's
            // arena count, and with it its peak memory, would then
            // depend on thread timing.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                // Unreachable with the catch_unwind contract above;
                // degrade to a structured error rather than panic.
                slot.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                    Err(JobPanic {
                        index,
                        message: "worker lost before producing a result".to_string(),
                    })
                })
            })
            .collect()
    }
}

/// Runs one job under `catch_unwind`, mapping a panic to [`JobPanic`].
fn run_job<T, R, F>(f: &F, index: usize, item: &T) -> Result<R, JobPanic>
where
    F: Fn(usize, &T) -> R,
{
    catch_unwind(AssertUnwindSafe(|| f(index, item)))
        .map_err(|payload| JobPanic { index, message: panic_message(payload.as_ref()) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 8] {
            let out = Pool::new(threads).map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u8> = vec![];
        assert!(Pool::new(4).map(&empty, |_, &x| x).is_empty());
        assert_eq!(Pool::new(4).map(&[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..50).collect();
        let slow_square = |_: usize, &x: &u64| {
            // Uneven workloads exercise the dynamic cursor.
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * x
        };
        let serial = Pool::new(1).map(&items, slow_square);
        let parallel = Pool::new(4).map(&items, slow_square);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_map_isolates_panics_and_keeps_sibling_results() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let out = Pool::new(threads).try_map(&items, |_, &x| {
                if x == 5 || x == 31 {
                    panic!("boom {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 40, "{threads} threads");
            for (i, slot) in out.iter().enumerate() {
                match (i, slot) {
                    (5 | 31, Err(p)) => {
                        assert_eq!(p.index, i);
                        assert_eq!(p.message, format!("boom {i}"));
                    }
                    (5 | 31, Ok(_)) => panic!("job {i} should have panicked"),
                    (_, Ok(v)) => assert_eq!(*v, i * 2, "sibling result survived"),
                    (_, Err(p)) => panic!("job {i} unexpectedly failed: {p}"),
                }
            }
        }
    }

    #[test]
    fn try_map_output_identical_across_thread_counts() {
        let items: Vec<usize> = (0..30).collect();
        let job = |_: usize, &x: &usize| {
            if x % 9 == 0 {
                panic!("bad {x}");
            }
            x + 1
        };
        let serial = Pool::new(1).try_map(&items, job);
        let parallel = Pool::new(4).try_map(&items, job);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_repanics_with_lowest_index_panic() {
        let items: Vec<usize> = (0..20).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).map(&items, |_, &x| {
                if x == 7 || x == 3 {
                    panic!("kaboom {x}");
                }
                x
            })
        }));
        let message = panic_message(caught.unwrap_err().as_ref());
        assert_eq!(message, "job 3 panicked: kaboom 3");
    }

    #[test]
    fn panic_message_handles_both_string_flavours() {
        let static_str = catch_unwind(|| panic!("plain")).unwrap_err();
        assert_eq!(panic_message(static_str.as_ref()), "plain");
        let formatted = catch_unwind(|| panic!("value {}", 3)).unwrap_err();
        assert_eq!(panic_message(formatted.as_ref()), "value 3");
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let base = [10usize, 20, 30];
        let items = [0usize, 1, 2];
        let out = Pool::new(2).map(&items, |_, &i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn nested_pools_run_inline_on_the_outer_worker() {
        let outer: Vec<usize> = (0..6).collect();
        let inner: Vec<usize> = (0..5).collect();
        let expected: Vec<Vec<usize>> =
            outer.iter().map(|&o| inner.iter().map(|&i| 10 * o + i).collect()).collect();
        let out = Pool::new(2).map(&outer, |_, &o| {
            assert!(on_worker(), "an outer job runs on a flagged worker");
            let here = std::thread::current().id();
            let nested = Pool::new(4).try_map(&inner, |_, &i| (std::thread::current().id(), 10 * o + i));
            nested
                .into_iter()
                .map(|slot| {
                    let (thread, value) = slot.expect("no nested job panics");
                    assert_eq!(thread, here, "a nested job runs on the outer worker");
                    value
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(out, expected);
    }

    #[test]
    fn a_panicking_nested_job_stays_in_its_own_slot() {
        let outer = [0usize, 1];
        let inner: Vec<usize> = (0..4).collect();
        let out = Pool::new(2).map(&outer, |_, &o| {
            Pool::new(2).try_map(&inner, |_, &i| {
                if i == 2 {
                    panic!("nested {o}");
                }
                i
            })
        });
        for (o, slots) in out.iter().enumerate() {
            assert_eq!(slots[..2], [Ok(0), Ok(1)]);
            assert_eq!(slots[2], Err(JobPanic { index: 2, message: format!("nested {o}") }));
            assert_eq!(slots[3], Ok(3));
        }
    }

    #[test]
    fn the_flag_never_outlives_the_pool_on_the_calling_thread() {
        assert!(!on_worker());
        let flags = Pool::new(2).map(&[0u8, 1, 2], |_, _| on_worker());
        assert_eq!(flags, vec![true; 3]);
        assert!(!on_worker(), "the calling thread is not a worker once the pool returns");
        // One thread runs inline and flags nothing.
        assert_eq!(Pool::new(1).map(&[0u8, 1], |_, _| on_worker()), vec![false; 2]);
        assert!(!on_worker());
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::host().threads() >= 1);
    }
}
