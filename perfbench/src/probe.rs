//! Timing wrappers for the traced single-host run.
//!
//! [`TimedQueue`] wraps the simulator's `TimerWheel` and [`TimedWorld`]
//! wraps `SystemWorld`; both are handed to the engine through its public
//! `Simulation::with_event_queue` seam, so the simulator itself carries no
//! instrumentation. Both record into one thread-local [`Probe`]: the
//! engine owns the boxed queue and offers no way back to it, and the
//! traced run is single-threaded.
//!
//! Every timed call is also a span (name, start, end, parent). Spans are
//! kept in memory up to a cap and written out when the benchmark ends;
//! the aggregates below cover every call, capped or not.

use std::cell::RefCell;
use std::time::Instant;

use cdna_sim::queue::{EventQueue, TimerWheel};
use cdna_sim::{Scheduler, SimTime, World};
use cdna_system::{Event, SystemWorld};

/// Span names of the handler kinds, indexed by [`kind_of`]. The last
/// kind, the measurement-window events, is not a named layer.
pub const HANDLERS: [&str; 7] = [
    "system.handle.cpu_dispatch",
    "system.handle.phys_irq",
    "system.handle.emission_due",
    "system.handle.wire_tx_done",
    "system.handle.wire_rx_arrive",
    "system.handle.peer_pump",
    "system.handle.measure",
];

/// Index into [`HANDLERS`] for an event.
pub fn kind_of(e: &Event) -> usize {
    match e {
        Event::CpuDispatch => 0,
        Event::PhysIrq { .. } => 1,
        Event::EmissionDue { .. } => 2,
        Event::WireTxDone { .. } => 3,
        Event::WireRxArrive { .. } => 4,
        Event::PeerPump { .. } => 5,
        Event::StartMeasure | Event::StopMeasure => 6,
    }
}

/// A recorded span: host nanoseconds since the probe's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Spans kept per traced run (aggregates keep counting past the cap).
pub const SPAN_CAP: usize = 50_000;

/// Aggregates and spans of one traced run.
#[derive(Debug)]
pub struct Probe {
    origin: Instant,
    /// Successful queue pushes.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Largest queue length seen after a push.
    pub max_pending: usize,
    /// Host ns inside queue push and pop calls.
    pub queue_ns: u64,
    /// Host ns inside push calls alone.
    push_ns: u64,
    /// Handler calls per kind.
    pub handle_count: [u64; HANDLERS.len()],
    /// Handler self ns per kind (queue pushes made inside excluded).
    pub handle_self_ns: [u64; HANDLERS.len()],
    /// Host ns inside `run_until` slices.
    pub slice_ns: u64,
    /// Host ns of slice time covered by a pop or handler span.
    pub covered_ns: u64,
    /// Recorded spans, at most [`SPAN_CAP`].
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            origin: Instant::now(),
            pushes: 0,
            pops: 0,
            max_pending: 0,
            queue_ns: 0,
            push_ns: 0,
            handle_count: [0; HANDLERS.len()],
            handle_self_ns: [0; HANDLERS.len()],
            slice_ns: 0,
            covered_ns: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Host ns since the probe was reset.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index, or `None` past the cap.
    fn open(&mut self, name: &'static str, start: u64) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            return None;
        }
        let i = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(i);
        Some(i)
    }

    fn close(&mut self, span: Option<u32>, end: u64) {
        if let Some(i) = span {
            self.spans[i as usize].end = end;
            self.open.pop();
        }
    }

    /// Records a completed leaf span.
    fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        let s = self.open(name, start);
        self.close(s, end);
    }
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe::new());
}

/// Clears the thread's probe and restarts its clock.
pub fn reset() {
    PROBE.with(|p| *p.borrow_mut() = Probe::new());
}

/// Takes the thread's probe, leaving a fresh one.
pub fn take() -> Probe {
    PROBE.with(|p| std::mem::replace(&mut *p.borrow_mut(), Probe::new()))
}

fn clock() -> u64 {
    PROBE.with(|p| p.borrow().now())
}

/// Runs `f` inside a span named `name`; returns its result and host ns.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let (id, t0) = PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let t0 = p.now();
        (p.open(name, t0), t0)
    });
    let r = f();
    let t1 = clock();
    PROBE.with(|p| p.borrow_mut().close(id, t1));
    (r, t1 - t0)
}

/// Runs one `run_until` slice inside a span and accounts its coverage.
pub fn slice<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (r, ns) = span("sim.run_until", f);
    PROBE.with(|p| p.borrow_mut().slice_ns += ns);
    (r, ns)
}

/// The engine's timer wheel with every push and pop timed.
#[derive(Debug, Default)]
pub struct TimedQueue {
    inner: TimerWheel<Event>,
}

impl EventQueue<Event> for TimedQueue {
    fn push(&mut self, at: SimTime, seq: u64, event: Event) {
        let t0 = clock();
        self.inner.push(at, seq, event);
        let t1 = clock();
        let len = self.inner.len();
        PROBE.with(|p| {
            let mut p = p.borrow_mut();
            p.pushes += 1;
            p.max_pending = p.max_pending.max(len);
            p.queue_ns += t1 - t0;
            p.push_ns += t1 - t0;
            p.leaf("sim.queue.push", t0, t1);
        });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, Event)> {
        timed_pop(|| self.inner.pop())
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, u64, Event)> {
        timed_pop(|| self.inner.pop_due(deadline))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn timed_pop(pop: impl FnOnce() -> Option<(SimTime, u64, Event)>) -> Option<(SimTime, u64, Event)> {
    let t0 = clock();
    let r = pop();
    let t1 = clock();
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        p.pops += u64::from(r.is_some());
        p.queue_ns += t1 - t0;
        p.covered_ns += t1 - t0;
        p.leaf("sim.queue.pop", t0, t1);
    });
    r
}

/// `SystemWorld` with every handler call timed by event kind.
#[derive(Debug)]
pub struct TimedWorld {
    /// The wrapped machine.
    pub inner: SystemWorld,
}

impl World for TimedWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        let kind = kind_of(&event);
        let (id, t0, pushed0) = PROBE.with(|p| {
            let mut p = p.borrow_mut();
            let t0 = p.now();
            (p.open(HANDLERS[kind], t0), t0, p.push_ns)
        });
        self.inner.handle(now, event, sched);
        PROBE.with(|p| {
            let mut p = p.borrow_mut();
            let t1 = p.now();
            p.close(id, t1);
            let pushed = p.push_ns - pushed0;
            p.handle_count[kind] += 1;
            p.handle_self_ns[kind] += (t1 - t0).saturating_sub(pushed);
            p.covered_ns += t1 - t0;
        });
    }
}
