//! The conservative sequential discrete-event engine.
//!
//! Each simulated core runs the user's SPMD closure as a stackful
//! coroutine (see [`crate::coro`]) on the host thread that called
//! [`run_spmd`]; exactly one simulated core is *runnable* at any
//! instant, and events leave the queue in virtual-time order, equal
//! instants in push order, so runs are bit-for-bit deterministic.
//!
//! ## The event loop runs on the cores' stacks
//!
//! There is no scheduler. The engine state (chip, event queue, pending
//! ops) sits in one `RefCell` and the event loop is executed by
//! whichever core is currently runnable: a core that issues an op, parks
//! or computes calls the engine to schedule it, then keeps processing
//! events inline until either its own wake comes up (it simply returns —
//! the common case for back-to-back operations of one core) or another
//! core's does, in which case it deposits the wake in that core's cell
//! and switches stacks straight to it — a *handoff*, counted in
//! [`SimStats::handoffs`]. It resumes when some later handoff names it.
//! The suspension point sits *below* the blocking [`Rma`] calls, so
//! protocol code stays ordinary blocking code and runs unchanged on the
//! thread backend (`scc-rt`).
//!
//! Operations are *simulated* (resources reserved, completion time
//! computed) at issue and their memory effects applied at completion —
//! the completion time is each op's linearization point, which keeps
//! reads, writes and flag parking globally time-ordered.
//!
//! ## The coalesced fast path
//!
//! A multi-line op is stepped one cache line per event. Pushing and
//! popping the queue once per line is pure bookkeeping whenever the
//! pending op is the only thing happening on the chip — the next
//! line-completion event would come straight back as the queue head.
//! The stepper therefore peeks the queue: while the just-simulated line
//! completes strictly before the earliest queued event, it advances
//! the clock and steps the next line directly. The queue order is
//! preserved exactly — a queued event at the same instant was pushed
//! earlier and would run first, so the fast path only triggers on
//! *strictly earlier* completions — and each elided queue round-trip
//! still counts in `SimStats::events`, keeping counters, recorded
//! streams and end times bit-identical to a run with coalescing disabled
//! (see `SimConfig::coalesce`).

use crate::chip::{Chip, SimStats};
use crate::coro::{self, Context};
use crate::fault::{FaultPlan, FaultState};
use crate::ops::{self, Effect, Op};
use crate::params::SimParams;
use scc_hal::{
    CoreId, FlagValue, MemRange, MpbAddr, MsgId, Rma, RmaError, RmaResult, Span, Time, NUM_CORES,
};
use scc_obs::{EventLog, FaultKind, FlightRecorder, ObsEvent};
use std::cell::{Cell, RefCell, RefMut};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Configuration of a simulator run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of participating cores (`P ≤ 48`).
    pub num_cores: usize,
    /// Private off-chip memory per core, in bytes.
    pub mem_bytes: usize,
    /// Chip timing parameters.
    pub params: SimParams,
    /// Step op lines in a tight loop while no other event can
    /// intervene (default on). Virtual-time behaviour is identical
    /// either way; the knob exists so tests can regress-check that
    /// claim and to help bisect engine bugs.
    pub coalesce: bool,
    /// Record the full structured event stream (ops, queue waits with
    /// resource ids, park/wake, handoffs, protocol-phase spans) into
    /// [`SimReport::events`] for the `scc-obs` exporters. Off by
    /// default; virtual times and [`SimStats`] are identical either
    /// way (see the `obs_equivalence` test).
    pub record: bool,
    /// Flight-recorder capacity: when non-zero (and [`record`] is
    /// off), the run records into a bounded ring that retains only the
    /// last `flight` events at fixed memory cost, and
    /// [`SimReport::events`] holds that window — byte-identical to the
    /// tail of a full recording (see `obs_equivalence`). Virtual times
    /// and [`SimStats`] are unaffected, exactly as with [`record`].
    /// A full recording subsumes any window, so [`record`] wins when
    /// both are set.
    ///
    /// [`record`]: SimConfig::record
    pub flight: usize,
    /// Deterministic fault schedule (see [`crate::fault`]). The
    /// default plan is empty: no faults, no RNG, and — guarded by the
    /// `fault_plan_empty_is_identity` test — bit-identical stats and
    /// virtual times to builds that predate the field.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_cores: NUM_CORES,
            mem_bytes: 4 << 20,
            params: SimParams::default(),
            coalesce: true,
            record: false,
            flight: 0,
            faults: FaultPlan::default(),
        }
    }
}

/// Whole-run failure of a simulation.
#[derive(Clone, Debug)]
pub enum SimError {
    /// Every unfinished core was parked on a flag nobody can write.
    Deadlock { parked: Vec<(CoreId, usize)> },
    /// A core panicked or the engine wedged.
    Engine(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { parked } => {
                write!(f, "simulation deadlock; parked: ")?;
                for (c, l) in parked {
                    write!(f, "{c}@line{l} ")?;
                }
                Ok(())
            }
            SimError::Engine(m) => write!(f, "engine failure: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a successful run.
#[derive(Debug)]
pub struct SimReport<R> {
    /// Per-core return values of the SPMD closure.
    pub results: Vec<R>,
    /// Virtual time at which each core finished.
    pub end_times: Vec<Time>,
    /// Virtual time at which the last core finished.
    pub makespan: Time,
    /// Engine counters.
    pub stats: SimStats,
    /// Structured event stream, when [`SimConfig::record`] was set.
    pub events: Option<Vec<ObsEvent>>,
}

// ---- wakes ---------------------------------------------------------------

/// What a blocked core is resumed with; the instant travels beside it.
enum Wake {
    /// Start, compute done, op complete, or a park ended (by a write or
    /// by its timer — the waiter re-reads the flag either way).
    Go,
    /// A flag read completed with this value.
    Flag(FlagValue),
    /// Nothing will ever write the line this core is parked on.
    Deadlock(usize),
}

// ---- event queue ---------------------------------------------------------

/// What happens at instant `at`; `seq` is its push number.
#[derive(Clone, Copy)]
struct Event {
    at: Time,
    seq: u64,
    kind: EventKind,
}

#[derive(Clone, Copy)]
enum EventKind {
    /// Wake a core with a plain `Go` (start, compute done, park wake)
    /// — or with `Deadlock` if the core was deadlock-notified.
    Resume(usize),
    /// Advance the core's pending op by one cache line, or — once all
    /// lines are done — apply its effects and resume the core.
    Step(usize),
    /// A park deadline fired for the core. Only the timer armed by the
    /// core's current park (see `Engine::timer`) wakes it; any other is
    /// stale — the core was woken, or re-parked since — and ignored.
    Timeout(usize),
}

struct PendingOp {
    op: Op,
    remaining: usize,
    issued: Time,
    msg: Option<MsgId>,
}

/// Pending events in two runs sorted by time, each kept as a calendar
/// keeps its reservations (popped from `heads`, pushed from the back,
/// the popped prefix dropped only when full). Deadline timers, armed
/// far ahead and mostly stale long before their instant, go in
/// `runs[1]`, so the near-now pushes to `runs[0]` never slide past them.
/// Equal instants leave in push order, across the runs by `seq`.
struct Queue {
    runs: [Vec<Event>; 2],
    heads: [usize; 2],
    pushed: u64,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue { runs: [Vec::with_capacity(capacity), Vec::new()], heads: [0; 2], pushed: 0 }
    }

    /// Queue `kind` at `at` behind every queued event at or before that
    /// instant, sliding later ones right; returns its push number.
    fn push(&mut self, at: Time, kind: EventKind) -> u64 {
        let ev = Event { at, seq: self.pushed, kind };
        self.pushed += 1;
        let r = usize::from(matches!(kind, EventKind::Timeout(_)));
        let (events, head) = (&mut self.runs[r], &mut self.heads[r]);
        if events.len() == events.capacity() {
            crate::chip::drop_prefix(events, std::mem::take(head));
        }
        let mut hole = events.len();
        events.push(ev);
        while hole > *head && events[hole - 1].at > at {
            events[hole] = events[hole - 1];
            hole -= 1;
        }
        events[hole] = ev;
        ev.seq
    }

    /// The earliest queued event, first pushed among equals.
    fn peek(&self) -> Option<&Event> {
        match [0, 1].map(|r| self.runs[r].get(self.heads[r])) {
            [Some(s), Some(t)] => Some(if (t.at, t.seq) < (s.at, s.seq) { t } else { s }),
            [s, t] => s.or(t),
        }
    }

    fn pop(&mut self) -> Option<Event> {
        let ev = *self.peek()?;
        self.heads[usize::from(matches!(ev.kind, EventKind::Timeout(_)))] += 1;
        Some(ev)
    }
}

// ---- the engine ----------------------------------------------------------

/// What one turn of the event loop produced.
enum Advanced {
    /// Core `.0` becomes runnable and is resumed with wake `.1`.
    Woken(usize, Wake),
    /// Every core finished; the run result can be assembled.
    RunComplete,
    /// The engine wedged; the run must be aborted.
    Fatal(String),
}

/// All mutable engine state, owned by the `RefCell` in [`Shared`].
struct Engine {
    chip: Chip,
    coalesce: bool,
    queue: Queue,
    now: Time,
    pending: Vec<Option<PendingOp>>,
    parked: Vec<Option<usize>>,
    /// Per core, the push number of the deadline timer its current park
    /// armed (`u64::MAX` for none); no other timer wakes it.
    timer: Vec<u64>,
    /// Fault-injection state; `None` for an empty plan, so the default
    /// path pays a single never-taken branch per hook.
    faults: Option<FaultState>,
    /// The line a core was parked on when the deadlock detector woke
    /// it: its next `Resume` delivers `Wake::Deadlock` with that line.
    deadlock_notified: Vec<Option<usize>>,
    end_times: Vec<Time>,
    done: usize,
    n: usize,
    deadlocks: Vec<(CoreId, usize)>,
    deadlock_rounds: u32,
    /// Set once the run is being torn down; every later call fails.
    fatal: bool,
}

impl Engine {
    fn new(cfg: &SimConfig) -> Engine {
        let n = cfg.num_cores;
        let mut chip = Chip::lease(cfg.params, n, cfg.mem_bytes);
        if cfg.record {
            chip.recorder = Some(Box::new(EventLog::new()));
        } else if cfg.flight > 0 {
            chip.recorder = Some(Box::new(FlightRecorder::new(cfg.flight)));
        }
        let mut e = Engine {
            chip,
            coalesce: cfg.coalesce,
            queue: Queue::new(2 * n + 8),
            now: Time::ZERO,
            pending: (0..n).map(|_| None).collect(),
            parked: vec![None; n],
            timer: vec![u64::MAX; n],
            faults: (!cfg.faults.is_empty()).then(|| FaultState::new(cfg.faults.clone())),
            deadlock_notified: vec![None; n],
            end_times: vec![Time::ZERO; n],
            done: 0,
            n,
            deadlocks: Vec::new(),
            deadlock_rounds: 0,
            fatal: false,
        };
        for i in 0..n {
            e.push(Time::ZERO, EventKind::Resume(i));
        }
        e
    }

    fn push(&mut self, at: Time, kind: EventKind) -> u64 {
        self.chip.stats.heap_pushes += 1;
        self.queue.push(at, kind)
    }

    /// Record one structured event; a single never-taken branch when
    /// recording is off.
    #[inline]
    fn record(&mut self, ev: ObsEvent) {
        if let Some(r) = self.chip.recorder.as_mut() {
            r.record(ev);
        }
    }

    /// Count and record a fault injected at `at` that cost `core` `lost`.
    fn fault(&mut self, core: usize, kind: FaultKind, at: Time, lost: Time) {
        self.chip.stats.faults += 1;
        self.chip.stats.fault_lost += lost;
        self.record(ObsEvent::Fault { core: CoreId(core as u8), kind, at, lost });
    }

    /// Schedule the timed operation `op` of `core`; `msg` is the message
    /// tag active on the core (always `None` when recording is off). A
    /// rejected op is neither counted nor scheduled. On `Ok` the core
    /// must drive [`advance`](Self::advance) until its wake comes up —
    /// as it must after [`park`](Self::park) and
    /// [`compute`](Self::compute).
    fn issue(&mut self, core: usize, op: Op, msg: Option<MsgId>) -> RmaResult<()> {
        ops::validate(&self.chip, CoreId(core as u8), &op)?;
        self.chip.stats.ops += 1;
        let mut overhead = ops::op_overhead(&self.chip, &op);
        let slow = self.faults.as_ref().map(|f| f.slow_extra(CoreId(core as u8), self.now));
        if let Some(extra) = slow.filter(|&extra| extra > Time::ZERO) {
            self.fault(core, FaultKind::CoreSlow, self.now, extra);
            overhead += extra;
        }
        let remaining = ops::total_lines(&op);
        self.pending[core] = Some(PendingOp { op, remaining, issued: self.now, msg });
        self.push(self.now + overhead, EventKind::Step(core));
        Ok(())
    }

    /// Park `core` until its flag `line` is written. With a deadline,
    /// a timer unparks the core when it fires first; the waiter then
    /// re-reads the flag and surfaces [`RmaError::Timeout`] itself.
    fn park(&mut self, core: usize, line: usize, deadline: Option<Time>) -> RmaResult<()> {
        if line >= scc_hal::MPB_LINES_PER_CORE {
            return Err(RmaError::MpbOutOfRange {
                addr: MpbAddr::new(CoreId(core as u8), 0),
                lines: line,
            });
        }
        self.chip.stats.parks += 1;
        self.record(ObsEvent::Park { core: CoreId(core as u8), line, at: self.now });
        self.parked[core] = Some(line);
        // The timer keeps the queue non-empty, so a core waiting with a
        // deadline can never trip the deadlock detector — it wakes and
        // recovers.
        self.timer[core] =
            deadline.map_or(u64::MAX, |dl| self.push(dl.max(self.now), EventKind::Timeout(core)));
        Ok(())
    }

    /// Let `t` of pure local work pass on `core`.
    fn compute(&mut self, core: usize, t: Time) {
        let at = self.now + t;
        self.record(ObsEvent::Compute { core: CoreId(core as u8), start: self.now, end: at });
        self.push(at, EventKind::Resume(core));
    }

    /// Record that `core` finished. The caller must then drive
    /// [`advance`](Self::advance) to find the next runnable core (or
    /// complete the run).
    fn retire(&mut self, core: usize) {
        self.end_times[core] = self.now;
        self.record(ObsEvent::Finish { core: CoreId(core as u8), at: self.now });
        self.done += 1;
    }

    /// Run the event loop until a core becomes runnable, the run
    /// completes, or the engine wedges.
    fn advance(&mut self) -> Advanced {
        loop {
            if self.done == self.n {
                return Advanced::RunComplete;
            }
            let Some(ev) = self.queue.pop() else {
                if let Some(fatal) = self.handle_deadlock() {
                    return Advanced::Fatal(fatal);
                }
                continue;
            };
            self.chip.stats.events += 1;
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.chip.set_prune_horizon(self.now);
            match ev.kind {
                EventKind::Resume(i) => {
                    let wake = self.deadlock_notified[i].take().map_or(Wake::Go, Wake::Deadlock);
                    return Advanced::Woken(i, wake);
                }
                EventKind::Step(i) => {
                    if let Some(advanced) = self.step(i) {
                        return advanced;
                    }
                }
                EventKind::Timeout(i) => {
                    if let Some(line) = self.parked[i].take_if(|_| self.timer[i] == ev.seq) {
                        // Timer-driven wake: the waiter re-reads the flag
                        // and reports the timeout itself. Close the park
                        // interval with a self-wake so leg accounting
                        // stays tiled.
                        self.record(ObsEvent::Wake {
                            core: CoreId(i as u8),
                            line,
                            at: self.now,
                            writer: CoreId(i as u8),
                        });
                        return Advanced::Woken(i, Wake::Go);
                    }
                }
            }
        }
    }

    /// Process a `Step` event for core `i`, coalescing subsequent line
    /// steps while no other queued event can precede them. Returns the
    /// core's wake once the whole op completed, `None` if the next line
    /// went back to the queue, and a fatal end for a step of a core with
    /// no op pending. Lines coalesce as the module doc explains; only
    /// `stats.heap_pushes` and `stats.coalesced_steps` show which path ran.
    fn step(&mut self, i: usize) -> Option<Advanced> {
        loop {
            if let Some(done) = self.pending[i].take_if(|p| p.remaining == 0) {
                self.record(ObsEvent::Op {
                    core: CoreId(i as u8),
                    kind: ops::op_kind(&done.op),
                    lines: ops::total_lines(&done.op),
                    start: done.issued,
                    end: self.now,
                    msg: done.msg,
                });
                return Some(Advanced::Woken(i, self.apply_op(i, &done.op)));
            }
            let Some(p) = self.pending[i].as_mut() else {
                return Some(Advanced::Fatal(format!("core {i} stepped without a pending op")));
            };
            p.remaining -= 1;
            let mut line_done =
                ops::simulate_line(&mut self.chip, CoreId(i as u8), &p.op, self.now);
            if let Some(d) = self.faults.as_mut().and_then(FaultState::line_delay) {
                self.fault(i, FaultKind::LinkDelay, line_done, d);
                // The delay is applied before the coalesce peek, so both
                // scheduling paths see the same completion instant and
                // the run stays deterministic.
                line_done += d;
            }
            let fast = self.coalesce && self.queue.peek().is_none_or(|head| line_done < head.at);
            if fast {
                // The elided event: count it as popped, advance the clock.
                self.chip.stats.events += 1;
                self.chip.stats.coalesced_steps += 1;
                self.now = line_done;
                self.chip.set_prune_horizon(line_done);
            } else {
                self.push(line_done, EventKind::Step(i));
                return None;
            }
        }
    }

    fn apply_op(&mut self, core: usize, op: &Op) -> Wake {
        // Lost notification: only *remote* flag deposits traverse a mesh
        // link and can be dropped. The transfer's time was already
        // charged; the deposit simply never happens, so no parked waiter
        // wakes and no flag line changes.
        if let Op::FlagPut { dst, .. } = op {
            if dst.core.index() != core
                && self.faults.as_mut().is_some_and(FaultState::drop_notification)
            {
                self.fault(core, FaultKind::LostNotification, self.now, Time::ZERO);
                return Wake::Go;
            }
        }
        match ops::apply(&mut self.chip, CoreId(core as u8), op) {
            Effect::None => Wake::Go,
            Effect::Flag(value) => {
                if let Op::ReadLine { line } = op {
                    self.record(ObsEvent::FlagSample {
                        core: CoreId(core as u8),
                        line: *line,
                        value: value.0,
                        at: self.now,
                    });
                }
                Wake::Flag(value)
            }
            Effect::Wrote(region) => {
                self.record(ObsEvent::MpbWrite {
                    owner: region.core,
                    line: region.first_line,
                    lines: region.lines,
                    writer: CoreId(core as u8),
                    value: if let Op::FlagPut { value, .. } = op { Some(value.0) } else { None },
                    at: self.now,
                });
                // Wake every core parked on a just-written line; the
                // wake carries the commit timestamp, and the waiter
                // re-reads the flag before trusting it.
                for w in 0..self.parked.len() {
                    if let Some(line) = self.parked[w] {
                        if region.covers(CoreId(w as u8), line) {
                            self.parked[w] = None;
                            self.record(ObsEvent::Wake {
                                core: CoreId(w as u8),
                                line,
                                at: self.now,
                                writer: CoreId(core as u8),
                            });
                            self.push(self.now, EventKind::Resume(w));
                        }
                    }
                }
                Wake::Go
            }
        }
    }

    /// Queue empty but cores unfinished: everyone left is parked on a
    /// flag that no scheduled op will ever write. Notify them one at a
    /// time through ordinary `Resume` events so their subsequent calls
    /// keep a deterministic order. Returns a message if the engine is
    /// wedged beyond recovery.
    fn handle_deadlock(&mut self) -> Option<String> {
        self.deadlock_rounds += 1;
        if self.deadlock_rounds > 100 {
            return Some("livelock: cores keep re-parking after deadlock notification".into());
        }
        let before = self.deadlocks.len();
        for v in 0..self.parked.len() {
            if let Some(line) = self.parked[v].take() {
                self.deadlocks.push((CoreId(v as u8), line));
                self.deadlock_notified[v] = Some(line);
                self.push(self.now, EventKind::Resume(v));
            }
        }
        (self.deadlocks.len() == before)
            .then(|| "engine stalled: queue empty, cores unfinished, none parked".into())
    }

    fn make_result(&mut self) -> Result<RunOutput, SimError> {
        if self.deadlocks.is_empty() {
            Ok(RunOutput {
                end_times: std::mem::take(&mut self.end_times),
                events: self.chip.recorder.as_mut().map(|r| r.drain()),
                stats: self.chip.stats(),
            })
        } else {
            Err(SimError::Deadlock { parked: std::mem::take(&mut self.deadlocks) })
        }
    }
}

struct RunOutput {
    end_times: Vec<Time>,
    events: Option<Vec<ObsEvent>>,
    stats: SimStats,
}

/// State of one run, shared by its cores' coroutines and `run_spmd`.
/// Everything is touched from one host thread; no `RefCell` borrow is
/// ever held across a context switch.
struct Shared {
    engine: RefCell<Engine>,
    /// Per-core cell for the instant and wake a core is resumed with
    /// across a handoff. A core resumed with an empty cell is being
    /// torn down.
    wakes: Vec<Cell<Option<(Time, Wake)>>>,
    /// Where each suspended (or not yet started) core resumes.
    cores: Vec<Cell<Context>>,
    /// Where `run_spmd` itself resumes: when the last core finishes or
    /// the run aborts.
    caller: Cell<Context>,
    /// Set exactly once, by the last core to finish or the first abort.
    outcome: RefCell<Option<Result<RunOutput, SimError>>>,
    /// The first panic to escape a core's closure.
    panic: RefCell<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared {
    /// Tear the run down: flag the engine fatal, so every later call
    /// fails, and record `err` unless an outcome is already set.
    fn abort(&self, err: SimError) {
        self.engine.borrow_mut().fatal = true;
        self.outcome.borrow_mut().get_or_insert(Err(err));
    }

    /// Make `to` the runnable core: count and record the handoff,
    /// deposit its wake, and return the context to switch to.
    fn hand_off(&self, eng: &mut Engine, from: CoreId, to: usize, wake: Wake) -> Context {
        eng.chip.stats.handoffs += 1;
        let at = eng.now;
        eng.record(ObsEvent::Handoff { from, to: CoreId(to as u8), at });
        self.wakes[to].set(Some((at, wake)));
        self.cores[to].get()
    }
}

// ---- the per-core handle ---------------------------------------------------

/// The [`Rma`] endpoint handed to the SPMD closure for one simulated
/// core. Every call borrows the shared engine and calls it directly;
/// virtual time advances only through timed operations.
pub struct SimCore {
    id: CoreId,
    num_cores: usize,
    mem_bytes: usize,
    /// Cached `SimConfig::record`, so span annotations cost one local
    /// branch (no engine borrow) when recording is off.
    recording: bool,
    now: Cell<Time>,
    /// Message tag applied to subsequent timed ops ([`Rma::msg_tag`]).
    /// Only ever set while recording, so untraced runs carry `None`
    /// with zero bookkeeping.
    cur_msg: Cell<Option<MsgId>>,
    shared: Rc<Shared>,
}

impl SimCore {
    /// Borrow the engine — unless the run is being torn down, when
    /// every call fails instead.
    fn engine(&self) -> RmaResult<RefMut<'_, Engine>> {
        let eng = self.shared.engine.borrow_mut();
        if eng.fatal {
            return Err(RmaError::Engine("engine torn down".into()));
        }
        Ok(eng)
    }

    /// Run the event loop until this core is woken — inline when its
    /// own wake comes up first, suspended across one handoff when
    /// another core must run first. The borrow moves in and is dropped
    /// before any switch.
    fn block(&self, mut eng: RefMut<'_, Engine>) -> RmaResult<Wake> {
        let me = self.id.index();
        let shared = &*self.shared;
        let (at, wake) = match eng.advance() {
            Advanced::Woken(core, wake) if core == me => (eng.now, wake),
            Advanced::Woken(core, wake) => {
                let next = shared.hand_off(&mut eng, self.id, core, wake);
                drop(eng);
                // SAFETY: `next` is where `core` last suspended (or its
                // prepared start): the engine wakes only cores that are
                // blocked in a call or not yet started, and each saved
                // context is resumed once, by the handoff that names
                // it. `run_spmd` keeps every stack leased until all
                // cores have returned.
                unsafe { coro::switch(shared.cores[me].as_ptr(), next) };
                shared.wakes[me].take().ok_or_else(|| RmaError::Engine("run aborted".into()))?
            }
            wedged => {
                // `RunComplete` is unreachable — this core has not
                // finished — and is a wedge like any other.
                let msg = match wedged {
                    Advanced::Fatal(msg) => msg,
                    _ => "run completed with a core mid-call".into(),
                };
                drop(eng);
                shared.abort(SimError::Engine(msg.clone()));
                return Err(RmaError::Engine(msg));
            }
        };
        self.now.set(at);
        match wake {
            Wake::Deadlock(line) => Err(RmaError::Deadlock { core: self.id, line }),
            wake => Ok(wake),
        }
    }

    fn op(&self, op: Op) -> RmaResult<Wake> {
        let mut eng = self.engine()?;
        eng.issue(self.id.index(), op, self.cur_msg.get())?;
        self.block(eng)
    }

    /// The one flag-wait loop: poll, give up at the deadline if there
    /// is one, else park until the line is written (or the deadline's
    /// timer fires) and poll again.
    fn wait(
        &self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Option<Time>,
    ) -> RmaResult<FlagValue> {
        loop {
            let Wake::Flag(v) = self.op(Op::ReadLine { line })? else {
                return Err(RmaError::Engine("flag read returned no value".into()));
            };
            if pred(v) {
                return Ok(v);
            }
            if let Some(deadline) = deadline.filter(|&d| self.now.get() >= d) {
                return Err(RmaError::Timeout { core: self.id, line, deadline });
            }
            let mut eng = self.engine()?;
            eng.park(self.id.index(), line, deadline)?;
            self.block(eng)?;
        }
    }

    /// Retire this core: record its end time, then keep the event loop
    /// moving. Returns the context to leave this core's stack for — the
    /// next runnable core, or `run_spmd` if this was the last one or the
    /// run is being torn down.
    fn finish(&self) -> Context {
        let shared = &*self.shared;
        let mut eng = shared.engine.borrow_mut();
        if eng.fatal {
            return shared.caller.get();
        }
        eng.retire(self.id.index());
        match eng.advance() {
            Advanced::RunComplete => {
                let result = eng.make_result();
                shared.outcome.borrow_mut().get_or_insert(result);
                shared.caller.get()
            }
            Advanced::Woken(core, wake) => shared.hand_off(&mut eng, self.id, core, wake),
            Advanced::Fatal(msg) => {
                drop(eng);
                shared.abort(SimError::Engine(msg));
                shared.caller.get()
            }
        }
    }

    /// Deposit an untimed annotation — a span or delivery-window
    /// boundary — into the recorder. It carries no virtual time of its
    /// own: `ev` is handed this core's id and current clock, so
    /// annotating a collective cannot perturb the run.
    fn annotate(&self, ev: impl FnOnce(CoreId, Time) -> ObsEvent) {
        if self.recording {
            self.shared.engine.borrow_mut().record(ev(self.id, self.now.get()));
        }
    }
}

impl Rma for SimCore {
    fn core(&self) -> CoreId {
        self.id
    }

    fn num_cores(&self) -> usize {
        self.num_cores
    }

    fn now(&self) -> Time {
        self.now.get()
    }

    fn put_from_mem(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.op(Op::PutFromMem { src, dst, cached: false }).map(drop)
    }

    fn put_from_mpb(&mut self, src_line: usize, dst: MpbAddr, lines: usize) -> RmaResult<()> {
        self.op(Op::PutFromMpb { src_line, dst, lines }).map(drop)
    }

    fn put_from_mem_cached(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.op(Op::PutFromMem { src, dst, cached: true }).map(drop)
    }

    fn get_to_mem(&mut self, src: MpbAddr, dst: MemRange) -> RmaResult<()> {
        self.op(Op::GetToMem { src, dst }).map(drop)
    }

    fn get_to_mpb(&mut self, src: MpbAddr, dst_line: usize, lines: usize) -> RmaResult<()> {
        self.op(Op::GetToMpb { src, dst_line, lines }).map(drop)
    }

    fn flag_put(&mut self, dst: MpbAddr, value: FlagValue) -> RmaResult<()> {
        self.op(Op::FlagPut { dst, value }).map(drop)
    }

    fn flag_read_local(&mut self, line: usize) -> RmaResult<FlagValue> {
        // A read is a wait that any value satisfies: one poll, no park.
        self.wait(line, &mut |_| true, None)
    }

    fn flag_wait_local(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
    ) -> RmaResult<FlagValue> {
        self.wait(line, pred, None)
    }

    fn flag_wait_local_until(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Time,
    ) -> RmaResult<FlagValue> {
        self.wait(line, pred, Some(deadline))
    }

    fn mem_write(&mut self, offset: usize, data: &[u8]) -> RmaResult<()> {
        let mut eng = self.engine()?;
        MemRange::check_bytes(offset, data.len(), self.mem_bytes)?;
        eng.chip.private_slice_mut(self.id, offset, data.len()).copy_from_slice(data);
        Ok(())
    }

    fn mem_read(&self, offset: usize, buf: &mut [u8]) -> RmaResult<()> {
        let mut eng = self.engine()?;
        MemRange::check_bytes(offset, buf.len(), self.mem_bytes)?;
        buf.copy_from_slice(eng.chip.private_slice(self.id, offset, buf.len()));
        Ok(())
    }

    fn compute(&mut self, t: Time) {
        // Plain time passage cannot fail except on engine teardown,
        // where the error will surface on the next fallible call.
        if let Ok(mut eng) = self.engine() {
            eng.compute(self.id.index(), t);
            let _ = self.block(eng);
        }
    }

    fn span_begin(&mut self, span: Span) {
        self.annotate(|core, at| ObsEvent::SpanBegin { core, span, at });
    }

    fn span_end(&mut self, span: Span) {
        self.annotate(|core, at| ObsEvent::SpanEnd { core, span, at });
    }

    fn msg_tag(&mut self, msg: Option<MsgId>) {
        if self.recording {
            self.cur_msg.set(msg);
        }
    }

    fn delivery_begin(&mut self, epoch: u32) {
        self.annotate(|core, at| ObsEvent::DeliveryBegin { core, epoch, at });
    }

    fn delivery_end(&mut self, epoch: u32) {
        self.annotate(|core, at| ObsEvent::DeliveryEnd { core, epoch, at });
    }
}

/// One core's coroutine: what its entry function needs, kept on
/// `run_spmd`'s frame so nothing but the closure's own locals lives on
/// the coroutine stack.
struct Task<'a, R, F> {
    core: usize,
    cfg: &'a SimConfig,
    f: &'a F,
    shared: &'a Rc<Shared>,
    /// The closure is running or suspended: its frames are on the stack.
    live: Cell<bool>,
    result: Cell<Option<R>>,
}

impl<R, F: Fn(&mut SimCore) -> R> Task<'_, R, F> {
    /// Run the closure to completion on the current (coroutine) stack
    /// and return the context to leave it for. A panic stops here: it
    /// aborts the run, and `run_spmd` re-raises it on the caller's stack.
    fn run(&self) -> Context {
        self.live.set(true);
        let shared = self.shared;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let i = self.core;
            let mut core = SimCore {
                id: CoreId(i as u8),
                num_cores: self.cfg.num_cores,
                mem_bytes: self.cfg.mem_bytes,
                recording: self.cfg.record || self.cfg.flight > 0,
                // A core is first resumed by the handoff of its start wake.
                now: Cell::new(shared.wakes[i].take().map_or(Time::ZERO, |(at, _)| at)),
                cur_msg: Cell::new(None),
                shared: Rc::clone(shared),
            };
            let r = (self.f)(&mut core);
            (r, core.finish())
        }));
        self.live.set(false);
        match outcome {
            Ok((r, next)) => {
                self.result.set(Some(r));
                next
            }
            Err(payload) => {
                shared.abort(SimError::Engine("a core panicked".into()));
                shared.panic.borrow_mut().get_or_insert(payload);
                shared.caller.get()
            }
        }
    }

    /// Entry function of the coroutine; `arg` is the `Task`.
    extern "C" fn entry(arg: *mut ()) -> ! {
        // SAFETY: `run_spmd` passes a pointer to a `Task` on its frame
        // and does not return while a coroutine is live.
        let next = unsafe { &*(arg as *const Self) }.run();
        let mut retired = Context::null();
        // SAFETY: `next` is a suspended core's or the caller's saved
        // context (see `block`); this stack holds no live locals and is
        // never resumed.
        unsafe { coro::switch(&mut retired, next) };
        unreachable!("a finished core was resumed")
    }
}

/// Run `f` as an SPMD program on the simulated chip: one invocation per
/// core, all starting at virtual time zero. Returns when every core's
/// closure has returned.
///
/// The run is fully deterministic: same config and same (per-core
/// deterministic) closure ⇒ identical report.
///
/// Every closure runs as a coroutine on the calling thread, each on a
/// stack of [`coro::STACK_BYTES`]; stacks are kept warm per host thread,
/// so back-to-back runs (sweeps, benches) map none after the first, and
/// so is the last run's chip, reset in place for the next run with the
/// same `num_cores` (see `Chip::lease`) — a run cannot tell.
/// If a closure panics, the others' pending calls fail with
/// [`RmaError::Engine`], every closure's locals are dropped, and the
/// first panic is re-raised here.
pub fn run_spmd<R, F>(cfg: &SimConfig, f: F) -> Result<SimReport<R>, SimError>
where
    R: Send,
    F: Fn(&mut SimCore) -> R + Send + Sync,
{
    let n = cfg.num_cores;
    assert!((1..=NUM_CORES).contains(&n), "num_cores must be in 1..=48");
    let _in_flight = crate::telemetry::InFlightGuard::enter();
    let shared = Rc::new(Shared {
        engine: RefCell::new(Engine::new(cfg)),
        wakes: (0..n).map(|_| Cell::new(None)).collect(),
        cores: (0..n).map(|_| Cell::new(Context::null())).collect(),
        caller: Cell::new(Context::null()),
        outcome: RefCell::new(None),
        panic: RefCell::new(None),
    });
    let tasks: Vec<Task<'_, R, F>> = (0..n)
        .map(|core| Task {
            core,
            cfg,
            f: &f,
            shared: &shared,
            live: Cell::new(false),
            result: Cell::new(None),
        })
        .collect();
    let mut stacks = coro::checkout(n);
    for ((task, stack), ctx) in tasks.iter().zip(&mut stacks).zip(&shared.cores) {
        ctx.set(coro::prepare(
            stack,
            Task::<R, F>::entry,
            task as *const Task<'_, R, F> as *mut (),
        ));
    }

    // Kick the run: hand the first wake (core 0's start `Go`) over and
    // leave this stack until the last core finishes or the run aborts.
    let first = {
        let mut eng = shared.engine.borrow_mut();
        match eng.advance() {
            // The kick has no issuing core; record it as the run
            // appearing at its first runnable core.
            Advanced::Woken(core, wake) => {
                Some(shared.hand_off(&mut eng, CoreId(core as u8), core, wake))
            }
            Advanced::RunComplete | Advanced::Fatal(_) => None,
        }
    };
    match first {
        // SAFETY: a context `prepare` just returned on a leased stack,
        // entering a `Task` that outlives the coroutine (see below).
        Some(first) => unsafe { coro::switch(shared.caller.as_ptr(), first) },
        None => shared.abort(SimError::Engine("engine wedged before any core started".into())),
    }

    // Back here the run completed or aborted. After an abort, cores are
    // still suspended mid-call: resume each with no wake, so its call
    // fails, its closure returns or unwinds, and its locals are dropped
    // before the stacks and the borrowed `f` go away.
    for (task, ctx) in tasks.iter().zip(&shared.cores) {
        if task.live.get() {
            assert!(shared.engine.borrow().fatal, "a completed run left a core suspended");
            // SAFETY: control is here, so a live core is suspended in
            // `block` at the context it saved; with the engine fatal it
            // runs to its end without another handoff and switches back.
            unsafe { coro::switch(shared.caller.as_ptr(), ctx.get()) };
        }
    }
    coro::checkin(stacks);
    // The tasks borrow `shared`; with their results out and every core
    // handle gone with its closure, the chip can be kept warm.
    let results: Option<Vec<R>> = tasks.into_iter().map(|t| t.result.into_inner()).collect();
    let shared = Rc::into_inner(shared).expect("a finished run holds the only handle");
    shared.engine.into_inner().chip.release();
    if let Some(p) = shared.panic.into_inner() {
        resume_unwind(p);
    }

    let missing = |what: &str| SimError::Engine(format!("a finished run has no {what}"));
    let out = shared.outcome.into_inner().ok_or_else(|| missing("outcome"))??;
    let results = results.ok_or_else(|| missing("result of some core"))?;
    let makespan = out.end_times.iter().copied().fold(Time::ZERO, Time::max);
    crate::telemetry::add_run(&out.stats);
    Ok(SimReport {
        results,
        end_times: out.end_times,
        makespan,
        stats: out.stats,
        events: out.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;

    #[test]
    fn trivial_run_finishes_at_time_zero() {
        let cfg = SimConfig { num_cores: 4, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| c.core().index()).unwrap();
        assert_eq!(rep.results, vec![0, 1, 2, 3]);
        assert_eq!(rep.makespan, Time::ZERO);
    }

    #[test]
    fn single_op_advances_virtual_time_exactly() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            if c.core().index() == 0 {
                c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), 4).unwrap();
            }
            c.now()
        })
        .unwrap();
        // C_put_mpb(4, 1) = 0.069 + 4·(0.136 + 0.136) µs = 1.157 µs.
        assert_eq!(rep.results[0], Time::from_ns(69 + 4 * (136 + 136)));
        assert_eq!(rep.results[1], Time::ZERO);
    }

    #[test]
    fn flag_handoff_moves_data_between_cores() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let msg = b"on-chip hello";
        let rep = run_spmd(&cfg, move |c| -> RmaResult<Vec<u8>> {
            if c.core().index() == 0 {
                c.mem_write(0, msg)?;
                // Stage into own MPB (line 1..), then signal core 1.
                c.put_from_mem(MemRange::new(0, msg.len()), MpbAddr::new(CoreId(0), 1))?;
                c.flag_put(MpbAddr::new(CoreId(1), 0), FlagValue(7))?;
                Ok(Vec::new())
            } else {
                c.flag_wait_eq(0, FlagValue(7))?;
                c.get_to_mem(MpbAddr::new(CoreId(0), 1), MemRange::new(64, msg.len()))?;
                c.mem_to_vec(MemRange::new(64, msg.len()))
            }
        })
        .unwrap();
        let got = rep.results[1].as_ref().unwrap();
        assert_eq!(got.as_slice(), msg);
        // The receiver must finish after the sender's data put started.
        assert!(rep.end_times[1] > rep.end_times[0].saturating_sub(Time::US));
    }

    #[test]
    fn deadlock_detected_and_reported() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let err = run_spmd(&cfg, |c| -> RmaResult<()> {
            if c.core().index() == 1 {
                // Nobody ever writes this flag.
                c.flag_wait_eq(3, FlagValue(1))?;
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { parked } => {
                assert_eq!(parked, vec![(CoreId(1), 3)]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn rejected_op_reports_error_without_advancing_time() {
        let cfg = SimConfig { num_cores: 1, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            let e = c.get_to_mpb(MpbAddr::new(CoreId(0), 250), 0, 20).unwrap_err();
            assert!(matches!(e, RmaError::MpbOutOfRange { .. }));
            c.now()
        })
        .unwrap();
        assert_eq!(rep.results[0], Time::ZERO);
    }

    #[test]
    fn compute_advances_time_without_touching_resources() {
        let cfg = SimConfig { num_cores: 1, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            c.compute(Time::from_us_f64(2.5));
            c.now()
        })
        .unwrap();
        assert_eq!(rep.results[0], Time::from_us_f64(2.5));
        assert_eq!(rep.stats.ops, 0);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        let cfg = SimConfig { num_cores: 8, mem_bytes: 4096, ..SimConfig::default() };
        let prog = |c: &mut SimCore| -> Time {
            let me = c.core().index();
            let next = CoreId(((me + 1) % 8) as u8);
            for round in 1..=5u32 {
                c.flag_put(MpbAddr::new(next, 1), FlagValue(round)).unwrap();
                c.flag_wait_ge(1, FlagValue(round)).unwrap();
            }
            c.now()
        };
        let a = run_spmd(&cfg, prog).unwrap();
        let b = run_spmd(&cfg, prog).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.end_times, b.end_times);
        assert_eq!(a.stats, b.stats);
        assert!(a.makespan > Time::ZERO);
    }

    #[test]
    fn mem_rw_is_untimed_and_isolated() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            c.mem_write(0, &[c.core().0 + 1; 8]).unwrap();
            let mut buf = [0u8; 8];
            c.mem_read(0, &mut buf).unwrap();
            (c.now(), buf)
        })
        .unwrap();
        assert_eq!(rep.results[0], (Time::ZERO, [1u8; 8]));
        assert_eq!(rep.results[1], (Time::ZERO, [2u8; 8]));
    }

    #[test]
    fn oversized_mem_access_rejected() {
        let cfg = SimConfig { num_cores: 1, mem_bytes: 64, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            let e = c.mem_write(60, &[0u8; 8]).unwrap_err();
            matches!(e, RmaError::MemOutOfRange { .. })
        })
        .unwrap();
        assert!(rep.results[0]);
    }

    #[test]
    fn overflowing_mem_access_is_rejected_not_wrapped() {
        // `offset + len` overflows `usize`: the bounds check must not
        // wrap past it and let the access reach the chip's storage.
        let cfg = SimConfig { num_cores: 1, mem_bytes: 4096, ..SimConfig::default() };
        let far = usize::MAX - 31;
        let rep = run_spmd(&cfg, |c| {
            let errs = [
                c.mem_read(far, &mut [0u8; 64]).unwrap_err(),
                c.mem_write(far, &[0u8; 64]).unwrap_err(),
                c.put_from_mem(MemRange::new(far, 64), MpbAddr::new(CoreId(0), 0)).unwrap_err(),
                c.get_to_mem(MpbAddr::new(CoreId(0), 0), MemRange::new(far, 64)).unwrap_err(),
            ];
            // The engine is intact: a valid access still works.
            c.mem_write(0, &[7u8; 8]).unwrap();
            errs
        })
        .expect("the run completes");
        for e in &rep.results[0] {
            assert_eq!(*e, RmaError::MemOutOfRange { offset: far, len: 64, mem_len: 4096 });
        }
    }

    #[test]
    fn mem_rw_is_intact_after_rejections() {
        // A rejected access must leave the core able to make valid
        // accesses that still see correct data.
        let cfg = SimConfig { num_cores: 1, mem_bytes: 64, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            assert!(c.mem_write(60, &[1u8; 8]).is_err());
            c.mem_write(0, &[7u8; 8]).unwrap();
            let mut buf = [0u8; 8];
            assert!(c.mem_read(60, &mut buf).is_err());
            c.mem_read(0, &mut buf).unwrap();
            buf
        })
        .unwrap();
        assert_eq!(rep.results[0], [7u8; 8]);
    }

    #[test]
    fn rejected_calls_schedule_and_count_nothing() {
        // One ring program, run bare and with rejected calls of every
        // kind wedged between its valid ones: a rejection must leave no
        // count, no event and no virtual time behind.
        let run = |noise: bool| {
            let cfg =
                SimConfig { num_cores: 4, mem_bytes: 4096, record: true, ..Default::default() };
            run_spmd(&cfg, move |c| {
                let right = CoreId(((c.core().index() + 1) % 4) as u8);
                let reject = |c: &mut SimCore| {
                    if !noise {
                        return;
                    }
                    let (far, near) = (MpbAddr::new(right, 250), MpbAddr::new(right, 0));
                    let rejected = [
                        c.put_from_mpb(0, far, 20),
                        c.get_to_mpb(far, 0, 20),
                        c.put_from_mem(MemRange::new(0, 64), MpbAddr::new(right, 255)),
                        c.put_from_mpb(0, near, 0),
                        c.get_to_mem(near, MemRange::new(0, 0)),
                        c.mem_write(4090, &[1u8; 8]),
                        c.mem_read(4090, &mut [0u8; 8]),
                        c.flag_put(MpbAddr::new(CoreId(9), 0), FlagValue(1)),
                        c.flag_wait_eq(256, FlagValue(1)),
                    ];
                    assert!(rejected.iter().all(Result::is_err), "{rejected:?}");
                };
                for round in 1..=3u32 {
                    reject(c);
                    c.mem_write(0, &[round as u8; 64]).unwrap();
                    c.put_from_mem(MemRange::new(0, 64), MpbAddr::new(right, 8)).unwrap();
                    reject(c);
                    c.flag_put(MpbAddr::new(right, 1), FlagValue(round)).unwrap();
                    reject(c);
                    c.flag_wait_ge(1, FlagValue(round)).unwrap();
                    c.compute(Time::US);
                    c.get_to_mem(MpbAddr::new(c.core(), 8), MemRange::new(64, 64)).unwrap();
                    reject(c);
                }
                c.mem_to_vec(MemRange::new(64, 64)).unwrap()
            })
            .unwrap()
        };
        let (bare, noisy) = (run(false), run(true));
        assert_eq!(noisy.results, vec![vec![3u8; 64]; 4]);
        assert_eq!(noisy.results, bare.results);
        assert_eq!(noisy.stats, bare.stats);
        assert_eq!(noisy.end_times, bare.end_times);
        assert_eq!(noisy.events, bare.events);
        assert!(bare.stats.parks > 0 && bare.events.is_some_and(|e| e.len() > 100));
    }

    #[test]
    fn coalescing_counts_elided_events() {
        // A single 32-line op on an otherwise idle chip coalesces every
        // line step after the first pop.
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            if c.core().index() == 0 {
                c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), 32).unwrap();
            }
        })
        .unwrap();
        assert!(rep.stats.coalesced_steps >= 31, "stats: {:?}", rep.stats);
        assert_eq!(rep.stats.events, rep.stats.heap_pushes + rep.stats.coalesced_steps);
    }

    #[test]
    fn queue_pops_in_time_then_push_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // The index of the push an event came from, whatever its kind.
        let index = |ev: Event| {
            let (EventKind::Resume(i) | EventKind::Step(i) | EventKind::Timeout(i)) = ev.kind;
            (ev.at, i)
        };
        let mut rng = proptest::TestRng::from_name("queue_pops_in_time_then_push_order");
        // Tiny capacities drop the popped prefix and grow many times.
        for capacity in [0, 1, 4, 2 * NUM_CORES + 8] {
            let mut queue = Queue::new(capacity);
            let mut oracle = BinaryHeap::new();
            let mut now = Time::ZERO;
            for pushed in 0..20_000 {
                // Instants a few ns past the clock: most pushes tie, also
                // across the runs. Half the timers are armed further out
                // and pile up behind the clock, as stale ones do.
                let mut at = now + Time::from_ns(rng.gen_range_u64(0, 6));
                let kind = match rng.gen_range_u64(0, 4) {
                    0 => EventKind::Resume(pushed),
                    1 => EventKind::Step(pushed),
                    2 => EventKind::Timeout(pushed),
                    _ => {
                        at += Time::from_ns(50 * rng.gen_range_u64(0, 3));
                        EventKind::Timeout(pushed)
                    }
                };
                assert_eq!(queue.push(at, kind), pushed as u64);
                oracle.push(Reverse((at, pushed)));
                // As many pops as pushes on average, so the length wanders.
                for _ in 0..rng.gen_range_u64(0, 3) {
                    let got = queue.pop().map(index);
                    assert_eq!(got, oracle.pop().map(|Reverse(key)| key), "push {pushed}");
                    now = got.map_or(now, |(at, _)| at);
                }
            }
            let rest: Vec<_> = std::iter::from_fn(|| queue.pop().map(index)).collect();
            assert_eq!(
                rest,
                oracle.into_sorted_vec().into_iter().rev().map(|r| r.0).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn panicking_core_aborts_the_run() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let outcome = std::panic::catch_unwind(|| {
            let _ = run_spmd(&cfg, |c| {
                if c.core().index() == 1 {
                    panic!("core exploded");
                }
                c.compute(Time::US);
            });
        });
        let p = outcome.expect_err("panic must propagate to the caller");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "core exploded");
    }
}
