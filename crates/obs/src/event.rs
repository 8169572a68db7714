//! The typed event model: everything the simulator knows about a run,
//! as a flat stream of timestamped facts.
//!
//! Events are recorded through the [`Recorder`] trait so the engine's
//! hot path pays exactly one `Option` branch when recording is off (see
//! the `obs_equivalence` test in `scc-sim`). Timestamps are virtual
//! picoseconds ([`Time`]); the stream is ordered by the engine's event
//! clock, which is nondecreasing, so consumers may rely on sortedness
//! of completion times per core but not on global total order of
//! `start` fields.

use scc_hal::{CoreId, LinkDir, MsgId, Span, Time};
use std::fmt;

/// Coarse classification of a timed RMA operation.
///
/// This lives here (rather than in `scc-sim`) so exporters and the
/// critical-path extractor can name operations without depending on
/// the simulator, which maps its ops onto it (`scc_sim::ops::op_kind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    PutFromMem,
    PutFromMpb,
    GetToMem,
    GetToMpb,
    FlagPut,
    FlagRead,
}

impl OpKind {
    /// Every kind, in rendering order. Keep glyph legends and exporter
    /// track palettes driven by this list so new kinds cannot fall out
    /// of sync silently.
    pub const ALL: [OpKind; 6] = [
        OpKind::PutFromMem,
        OpKind::PutFromMpb,
        OpKind::GetToMem,
        OpKind::GetToMpb,
        OpKind::FlagPut,
        OpKind::FlagRead,
    ];

    pub fn short(&self) -> &'static str {
        match self {
            OpKind::PutFromMem => "PUTm",
            OpKind::PutFromMpb => "PUTb",
            OpKind::GetToMem => "GETm",
            OpKind::GetToMpb => "GETb",
            OpKind::FlagPut => "FLAG",
            OpKind::FlagRead => "POLL",
        }
    }

    /// One-character glyph for text timelines. `FlagRead` maps to the
    /// idle glyph: polls are waiting, not work.
    pub fn glyph(&self) -> u8 {
        match self {
            OpKind::PutFromMem => b'P',
            OpKind::PutFromMpb => b'p',
            OpKind::GetToMem => b'G',
            OpKind::GetToMpb => b'g',
            OpKind::FlagPut => b'f',
            OpKind::FlagRead => b'.',
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

/// Identity of one contended hardware resource instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceId {
    /// The MPB port of a tile (two cores share it), by tile index 0..24.
    Port(u8),
    /// A mesh router, by tile index 0..24.
    Router(u8),
    /// An off-chip memory controller, by controller index 0..4.
    Mc(u8),
}

impl ResourceId {
    pub fn class(&self) -> &'static str {
        match self {
            ResourceId::Port(_) => "port",
            ResourceId::Router(_) => "router",
            ResourceId::Mc(_) => "mc",
        }
    }

    pub fn instance(&self) -> usize {
        match self {
            ResourceId::Port(i) | ResourceId::Router(i) | ResourceId::Mc(i) => *i as usize,
        }
    }

    /// Size of a table indexed by [`ResourceId::index`].
    pub const SLOTS: usize = 3 * 256;

    /// Dense index for per-resource tables. It orders resources exactly
    /// as `Ord` does — ports, then routers, then memory controllers,
    /// each by instance — so walking a table by index is walking it in
    /// `ResourceId` order.
    pub fn index(&self) -> usize {
        match *self {
            ResourceId::Port(i) => i as usize,
            ResourceId::Router(i) => 256 + i as usize,
            ResourceId::Mc(i) => 512 + i as usize,
        }
    }

    /// Every representable id, in [`ResourceId::index`] order.
    pub fn all() -> impl Iterator<Item = ResourceId> {
        let classes: [fn(u8) -> ResourceId; 3] =
            [ResourceId::Port, ResourceId::Router, ResourceId::Mc];
        classes.into_iter().flat_map(|class| (0..=u8::MAX).map(class))
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.class(), self.instance())
    }
}

/// Classification of an injected fault (see `scc_sim`'s `FaultPlan`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A remote doorbell/notification flag write was dropped in
    /// transit: the transfer's time was spent but the flag line never
    /// changed at the destination.
    LostNotification,
    /// A transfer's cache line was held inside the mesh for an extra
    /// delay before completing.
    LinkDelay,
    /// The issuing core was inside a slowdown window and paid extra
    /// per-op overhead.
    CoreSlow,
}

impl FaultKind {
    /// Every kind, in rendering order.
    pub const ALL: [FaultKind; 3] =
        [FaultKind::LostNotification, FaultKind::LinkDelay, FaultKind::CoreSlow];

    pub const fn name(&self) -> &'static str {
        match self {
            FaultKind::LostNotification => "lost-notification",
            FaultKind::LinkDelay => "link-delay",
            FaultKind::CoreSlow => "core-slow",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A timed RMA operation ran on `core` over `[start, end]`. `msg`
    /// names the logical message fragment the operation carried, when
    /// the issuing collective tagged it (see [`scc_hal::msg`]).
    Op { core: CoreId, kind: OpKind, lines: usize, start: Time, end: Time, msg: Option<MsgId> },
    /// One booking on a contended resource: issued by `core`, arrived
    /// at `arrival`, served over `[start, end]`. `start - arrival` is
    /// the queueing wait attributed to this packet. For router bookings
    /// `link` names the directed output link the packet leaves the
    /// router on ([`scc_hal::LinkDir::Eject`] at the destination tile);
    /// `None` for port and memory-controller bookings.
    Wait {
        core: CoreId,
        resource: ResourceId,
        arrival: Time,
        start: Time,
        end: Time,
        link: Option<LinkDir>,
    },
    /// `core` parked on its MPB flag `line` at `at` (poll found the
    /// flag unchanged and the core left the run queue).
    Park { core: CoreId, line: usize, at: Time },
    /// `core`, parked on `line`, was woken at `at` by an op issued by
    /// `writer` completing a write into the watched line.
    Wake { core: CoreId, line: usize, at: Time, writer: CoreId },
    /// The engine handed the baton from `from` to `to`: the runnable
    /// core changed (a coroutine switch in the simulator).
    Handoff { from: CoreId, to: CoreId, at: Time },
    /// Pure local computation on `core` over `[start, end]`.
    Compute { core: CoreId, start: Time, end: Time },
    /// A protocol phase opened on `core` (see [`scc_hal::Phase`]).
    SpanBegin { core: CoreId, span: Span, at: Time },
    /// The matching close. Spans nest per core (LIFO).
    SpanEnd { core: CoreId, span: Span, at: Time },
    /// `core` entered collective invocation `epoch` — its delivery
    /// window opened (see [`scc_hal::msg::delivering`]).
    DeliveryBegin { core: CoreId, epoch: u32, at: Time },
    /// `core` holds the full payload of `epoch` — its delivery window
    /// closed. The last window close of a broadcast is its makespan.
    DeliveryEnd { core: CoreId, epoch: u32, at: Time },
    /// An operation issued by `writer` committed `lines` cache lines
    /// into `owner`'s MPB starting at `line`, at instant `at`. Recorded
    /// at the same instant as the committing [`ObsEvent::Op`] and
    /// *before* any [`ObsEvent::Wake`] it causes, so the per-instant
    /// order is op → commit → wake(s). `value` carries the deposited
    /// flag value for flag writes (`None` for payload transfers whose
    /// bytes the event model does not track).
    MpbWrite {
        owner: CoreId,
        line: usize,
        lines: usize,
        writer: CoreId,
        value: Option<u32>,
        at: Time,
    },
    /// `core` read its own MPB flag `line` and observed `value` — one
    /// poll of a flag-wait loop (or a recovery probe's local re-read).
    FlagSample { core: CoreId, line: usize, value: u32, at: Time },
    /// `core`'s SPMD closure returned at virtual time `at`.
    Finish { core: CoreId, at: Time },
    /// The fault plan injected a fault against an operation of `core`
    /// at `at`; `lost` is the extra virtual time the fault cost the op
    /// directly (zero for a dropped notification — its cost is the
    /// recovery traffic, which shows up as ordinary ops).
    Fault { core: CoreId, kind: FaultKind, at: Time, lost: Time },
}

impl ObsEvent {
    /// The instant this event is ordered by in the engine's stream.
    pub fn at(&self) -> Time {
        match *self {
            ObsEvent::Op { end, .. } => end,
            ObsEvent::Wait { arrival, .. } => arrival,
            ObsEvent::Park { at, .. }
            | ObsEvent::Wake { at, .. }
            | ObsEvent::Handoff { at, .. }
            | ObsEvent::SpanBegin { at, .. }
            | ObsEvent::SpanEnd { at, .. }
            | ObsEvent::DeliveryBegin { at, .. }
            | ObsEvent::DeliveryEnd { at, .. }
            | ObsEvent::MpbWrite { at, .. }
            | ObsEvent::FlagSample { at, .. }
            | ObsEvent::Finish { at, .. }
            | ObsEvent::Fault { at, .. } => at,
            ObsEvent::Compute { end, .. } => end,
        }
    }

    /// Whose event this is: the core whose program order it belongs to
    /// and, for the two kinds that touch a second core, that core.
    ///
    /// `MpbWrite` belongs to its *writer* (the commit is the tail end
    /// of the writer's op) and names the MPB's owner second; `Handoff`
    /// belongs to the core handing the baton away and names the
    /// receiver second. A `Wake`'s `writer` is provenance, not a
    /// participant, and is not reported here.
    pub fn cores(&self) -> (CoreId, Option<CoreId>) {
        match *self {
            ObsEvent::Op { core, .. }
            | ObsEvent::Wait { core, .. }
            | ObsEvent::Park { core, .. }
            | ObsEvent::Wake { core, .. }
            | ObsEvent::Compute { core, .. }
            | ObsEvent::SpanBegin { core, .. }
            | ObsEvent::SpanEnd { core, .. }
            | ObsEvent::DeliveryBegin { core, .. }
            | ObsEvent::DeliveryEnd { core, .. }
            | ObsEvent::FlagSample { core, .. }
            | ObsEvent::Finish { core, .. }
            | ObsEvent::Fault { core, .. } => (core, None),
            ObsEvent::MpbWrite { writer, owner, .. } => (writer, Some(owner)),
            ObsEvent::Handoff { from, to, .. } => (from, Some(to)),
        }
    }
}

/// The sink the engine feeds. The one-thread engine never moves it;
/// `Send` only keeps the chip state that boxes a recorder `Send`.
pub trait Recorder: Send {
    fn record(&mut self, ev: ObsEvent);

    /// Take all recorded events out of the sink (called once, at the
    /// end of a run, to move the log into the report).
    fn drain(&mut self) -> Vec<ObsEvent>;
}

/// The standard in-memory recorder: an append-only event log.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<ObsEvent>,
}

impl EventLog {
    pub fn new() -> EventLog {
        EventLog { events: Vec::new() }
    }
}

impl Recorder for EventLog {
    #[inline]
    fn record(&mut self, ev: ObsEvent) {
        self.events.push(ev);
    }

    fn drain(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The flight recorder: a bounded ring that retains only the last
/// `capacity` events at fixed memory cost.
///
/// Always-on telemetry cannot afford [`EventLog`]'s growth — a soak
/// run emits millions of events — but forensics after an SLO breach
/// wants the raw stream for *the window that breached*. The ring gives
/// both: recording costs one store and two index updates per event,
/// memory is `capacity * size_of::<ObsEvent>()` forever, and
/// [`drain`](Recorder::drain) returns exactly the stream suffix a full
/// recording would have ended with (byte-identical over the window —
/// pinned by `obs_equivalence` in `scc-sim` and the proptests in
/// `tests/sketch_props.rs`).
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<ObsEvent>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    capacity: usize,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events. Capacity 0 is legal:
    /// the recorder accepts and forgets everything.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { buf: Vec::with_capacity(capacity), head: 0, capacity }
    }
}

impl Recorder for FlightRecorder {
    #[inline]
    fn record(&mut self, ev: ObsEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The retained window in recording order (oldest retained event
    /// first), leaving the ring empty.
    fn drain(&mut self) -> Vec<ObsEvent> {
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(self.head);
        self.head = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_display() {
        assert_eq!(format!("{}", ResourceId::Port(11)), "port[11]");
        assert_eq!(format!("{}", ResourceId::Router(0)), "router[0]");
        assert_eq!(format!("{}", ResourceId::Mc(3)), "mc[3]");
    }

    #[test]
    fn dense_resource_index_is_injective_and_ordered_like_ord() {
        let all: Vec<ResourceId> = ResourceId::all().collect();
        assert_eq!(all.len(), ResourceId::SLOTS);
        assert!(all.windows(2).all(|w| w[0] < w[1] && w[0].index() + 1 == w[1].index()));
        assert_eq!(all[0].index(), 0);
    }

    #[test]
    fn glyphs_cover_all_kinds() {
        for k in OpKind::ALL {
            let g = k.glyph();
            assert!(g.is_ascii(), "{k}");
            assert!(!k.short().is_empty());
        }
        // Work glyphs are distinct; only FlagRead shares the idle dot.
        let work: Vec<u8> =
            OpKind::ALL.iter().filter(|k| **k != OpKind::FlagRead).map(|k| k.glyph()).collect();
        let mut dedup = work.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), work.len());
    }

    fn finish(core: u8, at: u64) -> ObsEvent {
        ObsEvent::Finish { core: CoreId(core), at: Time::from_ns(at) }
    }

    #[test]
    fn flight_ring_keeps_the_tail_window() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..7 {
            ring.record(finish(0, i));
        }
        let window = ring.drain();
        assert_eq!(window, vec![finish(0, 4), finish(0, 5), finish(0, 6)]);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn flight_ring_below_capacity_matches_full_log() {
        let mut ring = FlightRecorder::new(10);
        let mut log = EventLog::new();
        for i in 0..4 {
            ring.record(finish(1, i));
            log.record(finish(1, i));
        }
        assert_eq!(ring.drain(), log.drain());
    }

    #[test]
    fn zero_capacity_ring_counts_but_retains_nothing() {
        let mut ring = FlightRecorder::new(0);
        ring.record(finish(0, 1));
        ring.record(finish(0, 2));
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn event_log_records_and_drains() {
        let mut log = EventLog::new();
        log.record(ObsEvent::Finish { core: CoreId(0), at: Time::from_ns(5) });
        let drained = log.drain();
        assert_eq!(drained.len(), 1);
        assert!(log.drain().is_empty());
        assert_eq!(drained[0].at(), Time::from_ns(5));
    }
}
