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
//! lockstep rounds with a serial barrier between them. Its rounds last
//! microseconds, so it trades the queue for a fixed stride and a
//! spin-then-park barrier in which the caller is worker 0 (see its
//! docs). [`run_pipelined`] is the third, and the rack's epoch loop:
//! the same stride, with the serial step lagging one round behind the
//! stepping, so no worker waits at every round.
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

/// Stops the [`run_rounds`] or [`run_pipelined`] helpers when dropped:
/// sets `stop`, bumps the counter they wait on past the value they last
/// saw, and unparks them. It drops on the normal exit and also when the
/// caller unwinds out of `sync`/`handoff` or out of its own share of a
/// round, so a panic on the caller's thread cannot leave helpers
/// waiting for a round that never comes (and the scope join waiting on
/// them).
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
/// pattern, for rounds that need the previous round's exchange. When
/// the exchange may lag a round, as in `cdna-rack`, [`run_pipelined`]
/// waits less.
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

/// A value alone on a 128-byte line pair, so a store to it does not
/// invalidate the line another worker spins on (x86 prefetches lines
/// in adjacent pairs).
#[repr(align(128))]
#[derive(Debug, Default)]
struct Padded<T>(T);

/// The caller's side of a [`run_pipelined`] run, which every helper
/// polls before each round: hand-offs run so far, and whether to stop.
#[derive(Debug, Default)]
struct Release {
    handed: AtomicU64,
    stop: AtomicBool,
}

/// A mailbox slot that a [`run_pipelined`] step and hand-off pass
/// items through: a locked `Vec` plus a "non-empty" flag, so draining
/// an empty slot never touches the lock. Padded to its own line pair
/// (see `Padded`), as slots of different states are written from
/// different workers.
#[repr(align(128))]
#[derive(Debug)]
pub struct Mailbox<T> {
    /// Whether `items` is non-empty, set and cleared under the lock. It
    /// only lets a take skip the lock: the items are published by the
    /// mutex, and its Release set pairs with the take's Acquire read.
    full: AtomicBool,
    items: Mutex<Vec<T>>,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox {
            full: AtomicBool::new(false),
            items: Mutex::new(Vec::new()),
        }
    }
}

impl<T> Mailbox<T> {
    /// Appends one item.
    pub fn post(&self, item: T) {
        let mut items = lock(&self.items);
        items.push(item);
        self.full.store(true, Ordering::Release);
    }

    /// Moves every item out of `items`, in order, leaving it empty with
    /// its capacity. An empty `items` does not lock the slot.
    pub fn post_all(&self, items: &mut Vec<T>) {
        if !items.is_empty() {
            let mut slot = lock(&self.items);
            slot.append(items);
            self.full.store(true, Ordering::Release);
        }
    }

    /// Hands every item to `f` in the order it arrived and empties the
    /// slot. An empty slot is not locked. `f` runs outside the lock, so
    /// it may post to other mailboxes; the emptied buffer then goes
    /// back into the slot, which keeps its capacity.
    pub fn take_each(&self, f: impl FnMut(T)) {
        if self.full.load(Ordering::Acquire) {
            let mut taken = {
                let mut items = lock(&self.items);
                self.full.store(false, Ordering::Relaxed);
                std::mem::take(&mut *items)
            };
            taken.drain(..).for_each(f);
            let mut items = lock(&self.items);
            if items.is_empty() {
                *items = taken;
            }
        }
    }
}

/// Runs `rounds` rounds of `step(index, round, &mut state)` over
/// `states`, with a serial `handoff(k)` per round that lags one round
/// behind the stepping — the pipelined form of [`run_rounds`] that
/// `cdna-rack` uses when a round's output is not needed until two
/// rounds later.
///
/// `handoff(k)` runs on the caller's thread exactly once for every
/// `k` in `0..rounds`, in order, after every state has finished round
/// `k` and before any state starts round `k + 2`. So round `k + 1`
/// steps while round `k` is handed off, and a state may read in round
/// `r` whatever `handoff(r − 2)` delivered. Steps and hand-offs share
/// data only through storage both can reach — typically per-state
/// [`Mailbox`]es indexed by round parity, which two of each suffice
/// for: round `r` writes slot `r % 2`, which `handoff(r)` empties
/// before round `r + 2` writes it again. The last two hand-offs run
/// after the last round.
///
/// Determinism: each `step` sees only its own state, and the
/// hand-offs run serially in round order, so the outcome is
/// independent of `jobs` — `jobs = 1` runs the protocol inline
/// (hand-off `r − 2`, then round `r` for every state) and `jobs = N`
/// produce identical final states.
///
/// * **Permanent ownership.** The caller is worker 0 and `jobs − 1`
///   helper threads are the rest; worker `w` owns the states with
///   `index % jobs == w` for the whole run, so no state moves between
///   rounds.
/// * **Progress counters, not a barrier.** Each helper publishes the
///   rounds it has finished, and the caller the hand-offs it has run,
///   each counter on its own cache line. A helper waits before round
///   `r` only until `handoff(r − 2)` is done; the caller runs
///   `handoff(r − 2)` just before its own round `r`, waiting only until
///   every helper has finished round `r − 2`. A worker therefore waits
///   only when another is a whole round behind. Waits spin, then park,
///   as in [`run_rounds`].
///
/// A panic in a helper's `step` is caught, stops the run, and is
/// re-raised on the caller's thread. A panic on the caller's thread —
/// in `handoff` or in its own share of `step` — unwinds directly, and
/// a drop guard releases the helpers first.
///
/// # Example
///
/// ```
/// use cdna_sim::par::{run_pipelined, Mailbox};
///
/// // Every round each state posts its value; hand-off k moves round
/// // k's posts one state to the right, and round k + 2 adds them.
/// fn ring(jobs: usize) -> Vec<u64> {
///     let posts: Vec<[Mailbox<u64>; 2]> = (0..3).map(|_| Default::default()).collect();
///     let inbox: Vec<[Mailbox<u64>; 2]> = (0..3).map(|_| Default::default()).collect();
///     let parity = |round: u64| (round % 2) as usize;
///     run_pipelined(
///         jobs,
///         vec![1, 10, 100],
///         6,
///         |k| {
///             for (i, post) in posts.iter().enumerate() {
///                 post[parity(k)].take_each(|v| inbox[(i + 1) % 3][parity(k)].post(v));
///             }
///         },
///         |i, round, s| {
///             inbox[i][parity(round)].take_each(|v| *s += v);
///             posts[i][parity(round)].post(*s);
///         },
///     )
/// }
/// assert_eq!(ring(2), ring(1));
/// ```
pub fn run_pipelined<T, H, F>(
    jobs: usize,
    states: Vec<T>,
    rounds: u64,
    mut handoff: H,
    step: F,
) -> Vec<T>
where
    T: Send,
    H: FnMut(u64),
    F: Fn(usize, u64, &mut T) + Sync,
{
    let n = states.len();
    let jobs = jobs.clamp(1, n.max(1));
    // The hand-offs of the last two rounds have no later round to
    // overlap with.
    let tail = rounds.saturating_sub(2)..rounds;
    if jobs == 1 {
        let mut states = states;
        for round in 0..rounds {
            if round >= 2 {
                handoff(round - 2);
            }
            for (i, t) in states.iter_mut().enumerate() {
                step(i, round, t);
            }
        }
        tail.for_each(handoff);
        return states;
    }

    // As in `run_rounds`: with more workers than cores, park at once.
    let spins = if jobs <= available_jobs() {
        SPIN_LIMIT
    } else {
        0
    };
    // Everything a helper touches every round sits on cache lines of
    // its own (see `Padded`), away from the caller's stack slots that
    // change every round: its states, its progress counter, the
    // caller's `Release`, and the `step` closure with its captures.
    let mut shares: Vec<Vec<Padded<(usize, T)>>> = (0..jobs)
        .map(|_| Vec::with_capacity(n.div_ceil(jobs)))
        .collect();
    for (i, t) in states.into_iter().enumerate() {
        shares[i % jobs].push(Padded((i, t)));
    }
    let mut own = std::mem::take(&mut shares[0]);
    // Rounds helper `w` has finished, at `finished[w]` (entry 0 unused).
    let finished: Vec<Padded<AtomicU64>> = (0..jobs).map(|_| Padded::default()).collect();
    let release = Padded(Release::default());
    let step = Padded(step);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let caller = std::thread::current();

    let mut all: Vec<Padded<(usize, T)>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = shares
            .into_iter()
            .enumerate()
            .skip(1)
            .map(|(w, mut share)| {
                let (finished, Release { handed, stop }) = (&finished[w].0, &release.0);
                let (panicked, failed, step) = (&panicked, &failed, &step.0);
                let caller = caller.clone();
                scope.spawn(move || {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for round in 0..rounds {
                            // Round r may read what handoff(r − 2) delivered.
                            wait_until(spins, || {
                                handed.load(Ordering::Acquire) + 1 >= round
                                    || stop.load(Ordering::Acquire)
                            });
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            for Padded((i, t)) in &mut share {
                                step(*i, round, t);
                            }
                            finished.store(round + 1, Ordering::Release);
                            caller.unpark();
                        }
                    }));
                    if let Err(p) = caught {
                        *lock(panicked) = Some(p);
                        failed.store(true, Ordering::Release);
                        caller.unpark();
                    }
                    share
                })
            })
            .collect();
        let shutdown = Shutdown {
            stop: &release.0.stop,
            generation: &release.0.handed,
            helpers: helpers.iter().map(|h| h.thread().clone()).collect(),
        };
        // Runs handoff(k) once every helper has finished round k;
        // `false` if a helper failed instead.
        let mut hand = |k: u64| {
            wait_until(spins, || {
                failed.load(Ordering::Acquire)
                    || finished[1..]
                        .iter()
                        .all(|f| f.0.load(Ordering::Acquire) > k)
            });
            if failed.load(Ordering::Acquire) {
                return false;
            }
            handoff(k);
            release.0.handed.store(k + 1, Ordering::Release);
            for h in &shutdown.helpers {
                h.unpark();
            }
            true
        };
        'run: {
            for round in 0..rounds {
                if round >= 2 && !hand(round - 2) {
                    break 'run;
                }
                for Padded((i, t)) in &mut own {
                    step.0(*i, round, t);
                }
            }
            for k in tail {
                if !hand(k) {
                    break 'run;
                }
            }
        }
        drop(shutdown);
        for h in helpers {
            match h.join() {
                Ok(share) => all.extend(share),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if let Some(p) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(p);
    }
    all.append(&mut own);
    all.sort_unstable_by_key(|state| state.0 .0);
    all.into_iter().map(|Padded((_, t))| t).collect()
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

    /// The rack's shape over `n` states: round `r` folds in what
    /// hand-off `r − 2` delivered, advances, and posts to its parity
    /// slot (skipping some rounds, so empty slots occur); hand-off `k`
    /// moves round `k`'s posts one state to the right. A hand-off that
    /// runs early misses a post, and one that runs late lets a round
    /// miss its delivery: either changes the result.
    fn pipelined_ring(jobs: usize, n: usize, rounds: u64) -> Vec<u64> {
        let posts: Vec<[Mailbox<u64>; 2]> = (0..n).map(|_| Default::default()).collect();
        let inbox: Vec<[Mailbox<u64>; 2]> = (0..n).map(|_| Default::default()).collect();
        let parity = |round: u64| (round % 2) as usize;
        run_pipelined(
            jobs,
            (0..n as u64).collect(),
            rounds,
            |k| {
                for (i, post) in posts.iter().enumerate() {
                    post[parity(k)].take_each(|v| inbox[(i + 1) % n][parity(k)].post(v));
                }
            },
            |i, round, s| {
                inbox[i][parity(round)].take_each(|v| *s ^= v.rotate_left(7));
                *s = s.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64 + round);
                if *s % 3 != 0 {
                    posts[i][parity(round)].post(*s);
                }
            },
        )
    }

    #[test]
    fn pipelined_survives_many_short_rounds_without_lost_wakeups() {
        for (jobs, states) in [(2, 4), (3, 5), (8, 8)] {
            assert_eq!(
                pipelined_ring(jobs, states, 100_000),
                pipelined_ring(1, states, 100_000),
                "jobs {jobs} over {states} states"
            );
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mark {
        Start(usize, u64),
        End(usize, u64),
        HandStart(u64),
        HandEnd(u64),
    }

    #[test]
    fn pipelined_handoffs_run_once_in_order_between_rounds_k_and_k_plus_two() {
        let n = 5;
        for (jobs, rounds) in [
            (1, 40),
            (2, 0),
            (2, 1),
            (2, 2),
            (2, 300),
            (3, 300),
            (5, 300),
        ] {
            let trace = Mutex::new(Vec::new());
            run_pipelined(
                jobs,
                vec![0u64; n],
                rounds,
                |k| {
                    lock(&trace).push(Mark::HandStart(k));
                    lock(&trace).push(Mark::HandEnd(k));
                },
                |i, r, s| {
                    lock(&trace).push(Mark::Start(i, r));
                    *s = std::hint::black_box(s.wrapping_add(r));
                    lock(&trace).push(Mark::End(i, r));
                },
            );
            let trace = trace.into_inner().unwrap_or_else(|e| e.into_inner());
            let at = |m: Mark| {
                let found = trace.iter().position(|x| *x == m);
                assert!(found.is_some(), "jobs {jobs}: {m:?} never happened");
                found.unwrap_or(0)
            };
            let handoffs: Vec<u64> = trace
                .iter()
                .filter_map(|m| match m {
                    Mark::HandStart(k) => Some(*k),
                    Mark::HandEnd(_) | Mark::Start(..) | Mark::End(..) => None,
                })
                .collect();
            assert_eq!(handoffs, (0..rounds).collect::<Vec<_>>(), "jobs {jobs}");
            for k in 0..rounds {
                let (start, end) = (at(Mark::HandStart(k)), at(Mark::HandEnd(k)));
                for i in 0..n {
                    assert!(
                        at(Mark::End(i, k)) < start,
                        "jobs {jobs}: handoff {k} before state {i} finished round {k}"
                    );
                    if k + 2 < rounds {
                        assert!(
                            end < at(Mark::Start(i, k + 2)),
                            "jobs {jobs}: state {i} started round {} during handoff {k}",
                            k + 2
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pipelined caller share failed")]
    fn pipelined_caller_share_step_panic_propagates() {
        // Index 0 is always the caller's own share under the stride.
        let _ = run_pipelined(
            2,
            (0..4u32).collect(),
            10,
            |_| {},
            |i, round, _| {
                if i == 0 && round == 3 {
                    panic!("pipelined caller share failed");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "pipelined helper share failed")]
    fn pipelined_helper_share_step_panic_propagates() {
        // Index 1 is helper 1's; helper 2 must be released too.
        let _ = run_pipelined(
            3,
            (0..6u32).collect(),
            10,
            |_| {},
            |i, round, _| {
                if i == 1 && round == 3 {
                    panic!("pipelined helper share failed");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "pipelined handoff failed")]
    fn pipelined_handoff_panic_propagates() {
        let _ = run_pipelined(
            3,
            (0..6u32).collect(),
            10,
            |k| {
                if k == 4 {
                    panic!("pipelined handoff failed");
                }
            },
            |_, _, _| {},
        );
    }
}
