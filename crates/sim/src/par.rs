//! `cdna-par`: a zero-dependency, deterministic parallel fan-out runner.
//!
//! Every fan-out in this repository — the `cdna-perf` bench matrix, the
//! paper figure/table sweeps, the sensitivity and ablation grids, and
//! `cdna-model`'s schedule-tree shards — is *embarrassingly parallel*:
//! each task is a self-contained, seeded simulation whose outcome
//! depends only on its own inputs. Parallelism therefore affects
//! wall-clock time and nothing else, the same per-tenant independence
//! argument multi-tenant NIC designs (CDNA contexts, OSMOSIS tenants)
//! make for concurrently schedulable device contexts.
//!
//! The runner keeps that property observable:
//!
//! * **Shared chunked work queue.** Items go into a
//!   `Mutex<VecDeque<(index, T)>>`; each worker repeatedly grabs a small
//!   *batch* of items under the lock and processes them locally, so
//!   lock traffic is `O(items / batch)` rather than `O(items)` and an
//!   unlucky long task never strands work behind it (idle workers keep
//!   draining the shared queue — stealing from the common pool).
//! * **Deterministic, index-ordered results.** Each result lands in the
//!   slot of its input index; callers get `Vec<R>` in input order no
//!   matter which worker ran what when. Combined with per-task
//!   determinism this makes `jobs=1` and `jobs=N` outputs byte-identical
//!   — proven by the differential tests in the `bench`, `model`, `rack`
//!   and `fuzz` crates, not asserted by hand, and by CI's `--jobs 1` vs
//!   `--jobs 2` compares of the perf, rack and fuzz reports.
//! * **Bounded workers over [`std::thread::scope`].** No detached
//!   threads, no channels, no external crates; a worker panic propagates
//!   to the caller when the scope joins.
//!
//! [`run_rounds`] is the second shape: a fixed set of states stepped in
//! lockstep rounds with a serial barrier between them (the rack's
//! epoch loop). Its rounds last microseconds, so it trades the queue
//! for a fixed stride and a spin-then-park barrier in which the caller
//! is worker 0 (see its docs).
//!
//! Worker threads are *not* simulation threads: nothing here touches
//! [`crate::SimTime`] or the event queue. The pool is plain wall-clock
//! plumbing around independently deterministic runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

/// Worker threads the host offers, per `std::thread::available_parallelism`
/// (1 when the host cannot say).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the worker count for a fan-out of `tasks` items.
///
/// Priority: an explicit request (e.g. a `--jobs N` flag), then the
/// `CDNA_JOBS` environment variable, then [`available_jobs`]. The result
/// is clamped to `1..=tasks` — more workers than tasks is pure overhead,
/// and zero workers is nonsense.
pub fn resolve_jobs(requested: Option<usize>, tasks: usize) -> usize {
    requested
        .or_else(|| std::env::var("CDNA_JOBS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or_else(available_jobs)
        .clamp(1, tasks.max(1))
}

/// Items a worker takes from the shared queue per lock acquisition:
/// small enough that the tail of the run load-balances, large enough
/// that the lock is cold. With `items ≤ 4 × jobs` this degenerates to 1
/// and every task is stolen individually.
fn batch_size(items: usize, jobs: usize) -> usize {
    (items / (jobs * 4)).max(1)
}

/// Locks a mutex, treating poisoning as benign: a poisoned pool mutex
/// means a worker panicked, and that panic is re-raised by the scope
/// join anyway — the data under the lock is plain queue/slot state with
/// no broken invariants to protect.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f(index, item)` for every item on a pool of `jobs` workers and
/// returns the results in input (index) order.
///
/// `jobs` is clamped to `1..=items.len()`; with one worker (or one
/// item) everything runs inline on the caller's thread, bit-identically
/// to the multi-worker path. A panicking task propagates out of the
/// scope join and aborts the whole fan-out.
///
/// # Example
///
/// ```
/// let squares = cdna_sim::par::run_indexed(4, (0u64..100).collect(), |i, x| {
///     assert_eq!(i as u64, x);
///     x * x
/// });
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
pub fn run_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_indexed_init(jobs, items, || {}, f)
}

/// Like [`run_indexed`], but runs `init()` once on every worker thread
/// before it takes any work.
///
/// This is the seam for thread-local state that must follow the fan-out:
/// `cdna-model` uses it to mirror the active protocol mutation (a
/// `thread_local` switch in `cdna-mem`) onto each worker, so a mutated
/// exploration behaves identically whether sharded or not. On the
/// `jobs == 1` inline path `init` runs on the caller's thread, which by
/// construction already carries its own thread-local state — callers
/// must keep `init` idempotent there.
pub fn run_indexed_init<T, R, F, I>(jobs: usize, items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    I: Fn() + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        init();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let batch = batch_size(n, jobs);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    init();
                    let mut local: Vec<(usize, T)> = Vec::with_capacity(batch);
                    loop {
                        {
                            let mut q = lock(&queue);
                            for _ in 0..batch {
                                match q.pop_front() {
                                    Some(it) => local.push(it),
                                    None => break,
                                }
                            }
                        }
                        if local.is_empty() {
                            break;
                        }
                        for (i, item) in local.drain(..) {
                            let r = f(i, item);
                            *lock(&slots[i]) = Some(r);
                        }
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload (not the scope's
        // generic "a scoped thread panicked") reaches the caller.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut out = Vec::with_capacity(n);
    for s in slots {
        if let Some(r) = s.into_inner().unwrap_or_else(|e| e.into_inner()) {
            out.push(r);
        }
    }
    // Every slot is written exactly once before the scope joins; a hole
    // could only mean a worker died without panicking, which cannot
    // happen under std's threading model.
    assert_eq!(out.len(), n, "parallel fan-out lost results");
    out
}

/// Spin iterations a round-barrier waiter makes before it parks. A
/// rack round is a few µs, so the next release almost always lands
/// within the spin and never costs a futex round trip; a waiter that
/// outlasts it parks instead of burning a core. On a 2-vCPU Xeon the
/// quick 4-host × 8-guest rack at 2 workers took 1.4 s with budgets of
/// 1 or 2^6 (every wait parked) and 0.2 s with any budget from 2^8 to
/// 2^14; 2^12 leaves headroom for slower barriers.
const SPIN_LIMIT: u32 = 1 << 12;

/// Waits until `ready()` holds: spins up to `spins` times, then parks,
/// re-checking after every wake-up (spurious ones included).
///
/// Whoever makes `ready()` true must `unpark` the waiting thread
/// afterwards. An `unpark` that lands before the `park` leaves a token
/// that makes the `park` return at once, so no wake-up is lost; while
/// the waiter is still spinning, the `unpark` is a single atomic swap.
fn wait_until(spins: u32, ready: impl Fn() -> bool) {
    for _ in 0..spins {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    while !ready() {
        std::thread::park();
    }
}

/// Stops the [`run_rounds`] helpers when dropped: sets `stop`, bumps
/// the round generation past the one the helpers last saw, and unparks
/// them. It drops on the normal exit and also when the caller unwinds
/// out of `sync` or out of its own share of a round, so a panic on the
/// caller's thread cannot leave helpers waiting for a round that never
/// comes (and the scope join waiting on them).
struct Shutdown<'a> {
    stop: &'a AtomicBool,
    generation: &'a AtomicU64,
    helpers: Vec<Thread>,
}

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
    }
}

/// Runs `states` through repeated *rounds* of parallel stepping with a
/// serial barrier between rounds — the conservative epoch-barrier
/// pattern `cdna-rack` uses to advance N independent host simulations
/// in lookahead windows.
///
/// Each iteration first calls `sync(round, &mut states)` on the
/// caller's thread with every state at the same logical round — the
/// place to exchange information *between* states (route frames, merge
/// counters) and to decide whether to continue (`false` stops the loop
/// and returns the states). `sync` must not change the number of
/// states. The loop then runs `step(index, round, &mut state)` for
/// every state across `jobs` workers.
///
/// Determinism: `sync` always runs single-threaded over index-ordered
/// states, and each `step` call sees only its own state, so the outcome
/// is independent of `jobs` — `jobs=1` (which runs everything inline on
/// the caller's thread) and `jobs=N` produce identical final states.
///
/// The round protocol is built for rounds of a few microseconds (a
/// rack run has tens of thousands of them):
///
/// * **The caller is worker 0.** `jobs` workers are the caller plus
///   `jobs − 1` helper threads that persist across rounds, so `jobs`
///   equal to the core count oversubscribes nothing.
/// * **Fixed stride.** Worker `w` steps the states with
///   `index % jobs == w` every round, so a state stays on one core and
///   a round hands each helper its share without a shared queue.
/// * **Spin-then-park barrier.** The caller releases a round by
///   bumping an atomic generation and unparking the helpers; each
///   helper reports back on an atomic done-count, and the last one
///   unparks the caller. Both waits spin for a bounded number of
///   iterations before parking — not at all when `jobs` exceeds
///   [`available_jobs`], where a spinning waiter would only take the
///   core from a worker that has real work.
///
/// A panic in a helper's `step` is caught, carried to the caller, and
/// re-raised on the caller's thread after the helpers shut down. A
/// panic on the caller's thread — in `sync` or in its own share of
/// `step` — unwinds directly; a drop guard releases the helpers first,
/// so the panic propagates instead of hanging the scope join.
pub fn run_rounds<T, S, F>(jobs: usize, states: Vec<T>, mut sync: S, step: F) -> Vec<T>
where
    T: Send,
    S: FnMut(u64, &mut Vec<T>) -> bool,
    F: Fn(usize, u64, &mut T) + Sync,
{
    let n = states.len();
    let jobs = jobs.clamp(1, n.max(1));
    let mut states = states;
    if jobs == 1 {
        let mut round = 0u64;
        while sync(round, &mut states) {
            for (i, t) in states.iter_mut().enumerate() {
                step(i, round, t);
            }
            round += 1;
        }
        return states;
    }

    let helpers = jobs - 1;
    // With more workers than cores a spinning waiter holds a core the
    // thread it waits for needs: 100 k short rounds at jobs 3 and 8 on
    // 2 cores took 10x longer spinning than parking at once.
    let spins = if jobs <= available_jobs() {
        SPIN_LIMIT
    } else {
        0
    };
    // Helpers' states travel through per-index slots; the caller keeps
    // its own share (index % jobs == 0) in hand.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let generation = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    // A caught helper panic: the payload, plus a flag the caller can
    // test each round without taking the lock.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let caller = std::thread::current();

    std::thread::scope(|scope| {
        let helper_threads = (1..jobs)
            .map(|w| {
                let (slots, generation, stop, done) = (&slots, &generation, &stop, &done);
                let (panicked, failed, caller, step) = (&panicked, &failed, &caller, &step);
                let handle = scope.spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        wait_until(spins, || generation.load(Ordering::Acquire) != seen);
                        seen = generation.load(Ordering::Acquire);
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let round = seen - 1;
                        for i in (w..n).step_by(jobs) {
                            let taken = lock(&slots[i]).take();
                            let Some(mut t) = taken else { continue };
                            // Catch instead of unwinding: a dead helper
                            // would leave the caller waiting on `done`.
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    step(i, round, &mut t)
                                }));
                            *lock(&slots[i]) = Some(t);
                            if let Err(p) = caught {
                                *lock(panicked) = Some(p);
                                failed.store(true, Ordering::Release);
                            }
                        }
                        if done.fetch_add(1, Ordering::AcqRel) + 1 == helpers {
                            caller.unpark();
                        }
                    }
                });
                handle.thread().clone()
            })
            .collect();
        let shutdown = Shutdown {
            stop: &stop,
            generation: &generation,
            helpers: helper_threads,
        };

        let mut own: Vec<T> = Vec::with_capacity(n.div_ceil(jobs));
        let mut round = 0u64;
        while sync(round, &mut states) {
            assert_eq!(states.len(), n, "run_rounds: sync changed the state count");
            for (i, t) in states.drain(..).enumerate() {
                if i % jobs == 0 {
                    own.push(t);
                } else {
                    *lock(&slots[i]) = Some(t);
                }
            }
            // The Release store of the generation publishes the reset
            // count (and the filled slots) to every helper, which
            // Acquire-loads it before its own `fetch_add`.
            done.store(0, Ordering::Relaxed);
            generation.store(round + 1, Ordering::Release);
            for h in &shutdown.helpers {
                h.unpark();
            }
            for (k, t) in own.iter_mut().enumerate() {
                step(k * jobs, round, t);
            }
            wait_until(spins, || done.load(Ordering::Acquire) == helpers);
            let mut own_share = own.drain(..);
            for (i, slot) in slots.iter().enumerate() {
                let t = if i % jobs == 0 {
                    own_share.next()
                } else {
                    lock(slot).take()
                };
                states.extend(t);
            }
            drop(own_share);
            assert_eq!(states.len(), n, "round-barrier fan-out lost states");
            if failed.load(Ordering::Acquire) {
                break;
            }
            round += 1;
        }
    });
    if let Some(p) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(p);
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        // Make early items the slowest so completion order inverts
        // submission order; output order must not care.
        let items: Vec<u64> = (0..64).collect();
        let out = run_indexed(8, items, |i, x| {
            let mut acc = 0u64;
            for k in 0..((64 - i as u64) * 1000) {
                acc = acc.wrapping_add(k ^ x);
            }
            (x, acc, i)
        });
        for (i, (x, _, idx)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
            assert_eq!(*idx, i);
        }
    }

    #[test]
    fn single_job_and_many_jobs_agree() {
        let a = run_indexed(1, (0u32..33).collect(), |i, x| (i, x * 3));
        let b = run_indexed(7, (0u32..33).collect(), |i, x| (i, x * 3));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn init_runs_on_every_worker() {
        let inits = AtomicUsize::new(0);
        let out = run_indexed_init(
            3,
            (0..30).collect::<Vec<u32>>(),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
            },
            |_, x| x,
        );
        assert_eq!(out.len(), 30);
        // One init per spawned worker (workers = min(3, 30) = 3).
        assert_eq!(inits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn jobs_clamp_to_task_count() {
        assert_eq!(resolve_jobs(Some(64), 3), 3);
        assert_eq!(resolve_jobs(Some(0), 3), 1);
        assert_eq!(resolve_jobs(Some(2), 100), 2);
        // No request, no env override in this test's scope: whatever the
        // host offers, the clamp keeps it in range.
        let j = resolve_jobs(None, 5);
        assert!((1..=5).contains(&j));
    }

    #[test]
    fn batch_sizes_shrink_with_jobs() {
        assert_eq!(batch_size(100, 4), 6);
        assert_eq!(batch_size(12, 8), 1);
        assert_eq!(batch_size(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "task failed")]
    fn worker_panic_propagates() {
        let _ = run_indexed(4, (0..16).collect::<Vec<u32>>(), |_, x| {
            if x == 9 {
                panic!("task failed");
            }
            x
        });
    }

    /// Reference epoch loop: each round, every state absorbs its left
    /// neighbour's value from the previous round (cross-state exchange
    /// in `sync`), then advances independently in `step`.
    fn rounds_reference(jobs: usize) -> Vec<u64> {
        run_rounds(
            jobs,
            (0..9u64).collect(),
            |round, states| {
                if round >= 5 {
                    return false;
                }
                let prev: Vec<u64> = states.clone();
                for (i, s) in states.iter_mut().enumerate() {
                    *s = s.wrapping_add(prev[(i + 8) % 9]);
                }
                true
            },
            |i, round, s| {
                *s = s.wrapping_mul(31).wrapping_add(i as u64 ^ round);
            },
        )
    }

    #[test]
    fn rounds_jobs_one_and_many_agree() {
        let a = rounds_reference(1);
        let b = rounds_reference(4);
        let c = rounds_reference(9);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn rounds_stop_before_first_round_returns_states_untouched() {
        let out = run_rounds(
            4,
            vec![7u32, 8, 9],
            |_, _| false,
            |_, _, s| {
                *s = 0;
            },
        );
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn rounds_sync_sees_every_round_in_order() {
        let mut seen = Vec::new();
        let out = run_rounds(
            3,
            vec![0u64; 5],
            |round, _| {
                seen.push(round);
                round < 3
            },
            |_, _, s| {
                *s += 1;
            },
        );
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(out, vec![3; 5]);
    }

    #[test]
    #[should_panic(expected = "caller share failed")]
    fn rounds_caller_share_step_panic_propagates() {
        // Index 0 is always the caller's own share under the stride.
        let _ = run_rounds(
            2,
            (0..4u32).collect(),
            |round, _| round < 10,
            |i, round, _| {
                if i == 0 && round == 3 {
                    panic!("caller share failed");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "round sync failed")]
    fn rounds_sync_panic_propagates() {
        let _ = run_rounds(
            2,
            vec![0u8; 4],
            |round, _| {
                if round == 3 {
                    panic!("round sync failed");
                }
                true
            },
            |_, _, _| {},
        );
    }

    /// Many short rounds with a cross-state exchange each barrier: a
    /// lost wake-up in the round protocol hangs this, and a state
    /// stepped twice or not at all in a round changes the result.
    fn many_rounds(jobs: usize, states: usize, rounds: u64) -> Vec<u64> {
        run_rounds(
            jobs,
            (0..states as u64).collect(),
            |round, states| {
                let first = states[0];
                states.rotate_left(1);
                states[0] ^= first.rotate_left(7);
                round < rounds
            },
            |i, round, s| {
                *s = s.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64 + round);
            },
        )
    }

    #[test]
    fn rounds_survive_many_short_rounds_without_lost_wakeups() {
        for (jobs, states) in [(2, 4), (3, 5), (8, 8)] {
            assert_eq!(
                many_rounds(jobs, states, 100_000),
                many_rounds(1, states, 100_000),
                "jobs {jobs} over {states} states"
            );
        }
    }

    #[test]
    #[should_panic(expected = "round step failed")]
    fn rounds_step_panic_propagates() {
        let _ = run_rounds(
            4,
            (0..8u32).collect(),
            |round, _| round < 10,
            |i, round, _| {
                if i == 5 && round == 2 {
                    panic!("round step failed");
                }
            },
        );
    }
}
