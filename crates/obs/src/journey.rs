//! Message journeys: per-destination delivery timelines.
//!
//! A *journey* is one core's path through one collective invocation:
//! it opens when the core enters the collective
//! ([`ObsEvent::DeliveryBegin`], recorded by
//! `scc_hal::msg::delivering`) and closes when the core holds the full
//! payload ([`ObsEvent::DeliveryEnd`]). Between those instants every
//! picosecond of the core's time is attributed to exactly one
//! [`LegKind`] — injection service, per-hop router dwell, MPB-port
//! service, flag-notify waiting, remote-read draining, queueing, or
//! idle — by a boundary sweep over the recorded event stream. The
//! attribution is *exact*: per journey, the leg dwells sum to the
//! delivery latency in integer picoseconds, and the last delivery
//! close of a broadcast is its makespan (both guarded by tests in
//! `tests/observability.rs`).
//!
//! The sweep classifies each elementary time slice by precedence:
//! resource service beats resource queueing beats op issue beats
//! parked-on-flag beats an open wait-phase span beats idle. Overlaps
//! (a pipelined put can hold a port and a router at once) therefore
//! never double-count.

use crate::artifact::{record, Wire};
use crate::event::{ObsEvent, OpKind, ResourceId};
use crate::lanes::{Closed, Lanes};
use crate::percore::PerCore;
use crate::report::Json;
use scc_hal::{CoreId, Phase, Time};

/// Where one slice of a journey's time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LegKind {
    /// Op service on the core: issuing puts/gets/flag writes.
    Inject,
    /// Queueing for an MPB port.
    PortWait,
    /// MPB-port service.
    PortService,
    /// Queueing at a mesh router.
    RouterWait,
    /// Per-hop router dwell (link service).
    RouterService,
    /// Memory-controller queueing and service.
    Memory,
    /// Waiting to be notified: polls, parked-on-flag intervals, and
    /// open notify/buffer/barrier wait phases.
    FlagNotify,
    /// Waiting for consumers to read: ack/drain phases.
    Drain,
    /// Unattributed time inside the delivery window.
    Idle,
}

impl LegKind {
    pub const COUNT: usize = 9;

    /// Every leg kind, in report order.
    pub const ALL: [LegKind; LegKind::COUNT] = [
        LegKind::Inject,
        LegKind::PortWait,
        LegKind::PortService,
        LegKind::RouterWait,
        LegKind::RouterService,
        LegKind::Memory,
        LegKind::FlagNotify,
        LegKind::Drain,
        LegKind::Idle,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            LegKind::Inject => "inject",
            LegKind::PortWait => "port-wait",
            LegKind::PortService => "port-service",
            LegKind::RouterWait => "router-wait",
            LegKind::RouterService => "router-service",
            LegKind::Memory => "memory",
            LegKind::FlagNotify => "flag-notify",
            LegKind::Drain => "drain",
            LegKind::Idle => "idle",
        }
    }

    pub const fn index(self) -> usize {
        match self {
            LegKind::Inject => 0,
            LegKind::PortWait => 1,
            LegKind::PortService => 2,
            LegKind::RouterWait => 3,
            LegKind::RouterService => 4,
            LegKind::Memory => 5,
            LegKind::FlagNotify => 6,
            LegKind::Drain => 7,
            LegKind::Idle => 8,
        }
    }
}

record! {
    /// One core's delivery timeline through one collective invocation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Journey {
        pub core: CoreId => "core",
        pub epoch: u32 => "epoch",
        /// The core entered the collective.
        pub begin: Time => "begin_ps",
        /// The core holds the full payload.
        pub end: Time => "end_ps",
        /// Tagged transfers addressed to this core within the window.
        pub transfers: usize => "transfers",
        /// Cache lines those transfers carried.
        pub lines: usize => "lines",
        legs: [Time; LegKind::COUNT] => "legs",
    }
}

/// The leg dwells travel as an object keyed by [`LegKind::name`], in
/// report order.
impl Wire for [Time; LegKind::COUNT] {
    fn to_wire(&self) -> Json {
        Json::Obj(
            LegKind::ALL.iter().map(|k| (k.name().into(), self[k.index()].to_wire())).collect(),
        )
    }
}

impl Journey {
    /// Delivery latency: window close minus window open.
    pub fn latency(&self) -> Time {
        self.end - self.begin
    }

    /// Exact dwell in one leg kind (integer picoseconds).
    pub fn leg(&self, k: LegKind) -> Time {
        self.legs[k.index()]
    }

    /// Sum of all leg dwells — always equals [`Journey::latency`].
    pub fn legs_total(&self) -> Time {
        self.legs.iter().copied().sum()
    }
}

record! {
    /// All journeys of a recorded run.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct JourneyBook {
        /// The run's makespan: the latest `Finish` (falling back to the
        /// latest event when the stream has no `Finish`).
        pub makespan: Time => "makespan_ps",
        /// Journeys ordered by (window close, core) of reconstruction —
        /// i.e. the order the delivery windows closed in the stream.
        pub journeys: Vec<Journey> => "journeys",
    }
}

/// One scenario of a soak dump's journey book — which is
/// `artifact::scenarios("journeys", ..)` of these: the book's own keys,
/// then the scenario id.
impl Wire for (String, JourneyBook) {
    fn to_wire(&self) -> Json {
        self.1.to_wire().set("id", self.0.to_wire())
    }
}

/// Per-core raw material for the classification sweep.
#[derive(Default)]
struct CoreLanes {
    /// `(start, end, kind)` of every timed op.
    ops: Vec<(u64, u64, OpKind)>,
    /// `(arrival, start, end, resource)` of every booking.
    waits: Vec<(u64, u64, u64, ResourceId)>,
    /// `park .. wake` intervals; an unwoken park extends to the last
    /// event of the stream and is clipped by the window.
    parks: Vec<(u64, u64)>,
    /// `(start, end, leg, depth)` of closed wait-phase spans.
    spans: Vec<(u64, u64, LegKind, usize)>,
}

/// Wait-ish phases map to a leg; payload phases don't claim time.
fn span_leg(phase: Phase) -> Option<LegKind> {
    match phase {
        Phase::NotifyWait | Phase::BufferWait | Phase::Barrier => Some(LegKind::FlagNotify),
        Phase::Ack | Phase::Drain => Some(LegKind::Drain),
        _ => None,
    }
}

impl JourneyBook {
    /// Reconstruct every journey from a recorded event stream.
    pub fn from_events(events: &[ObsEvent]) -> JourneyBook {
        // Pass 1: delivery windows, per-core lanes, makespan.
        let mut open: PerCore<Option<(u32, Time)>> = PerCore::new();
        let mut windows: Vec<(CoreId, u32, Time, Time)> = Vec::new();
        let mut lanes: PerCore<CoreLanes> = PerCore::new();
        let mut open_lanes = Lanes::default();
        let mut finish: Option<Time> = None;
        let mut latest = Time::ZERO;
        for ev in events {
            latest = latest.max(ev.at());
            match open_lanes.step(ev) {
                Some(Closed::Span { core, span, begin, end, depth }) => {
                    if let Some(leg) = span_leg(span.phase) {
                        lanes.at(core).spans.push((begin.as_ps(), end.as_ps(), leg, depth));
                    }
                }
                Some(Closed::Park { core, begin, end, .. }) => {
                    lanes.at(core).parks.push((begin.as_ps(), end.as_ps()));
                }
                None => {}
            }
            match *ev {
                ObsEvent::DeliveryBegin { core, epoch, at } => {
                    *open.at(core) = Some((epoch, at));
                }
                ObsEvent::DeliveryEnd { core, epoch, at } => {
                    if let Some((e, b)) = open.take(core) {
                        if e == epoch {
                            windows.push((core, epoch, b, at));
                        }
                    }
                }
                ObsEvent::Op { core, kind, start, end, .. } => {
                    lanes.at(core).ops.push((start.as_ps(), end.as_ps(), kind));
                }
                ObsEvent::Wait { core, resource, arrival, start, end, .. } => {
                    lanes.at(core).waits.push((
                        arrival.as_ps(),
                        start.as_ps(),
                        end.as_ps(),
                        resource,
                    ));
                }
                ObsEvent::Finish { at, .. } => finish = finish.max(Some(at)),
                _ => {}
            }
        }
        let makespan = finish.unwrap_or(latest);
        // A park nobody woke lasts to the end of the stream; a span
        // nobody closed claims no time.
        for closed in open_lanes.finish(latest) {
            if let Closed::Park { core, begin, end, .. } = closed {
                lanes.at(core).parks.push((begin.as_ps(), end.as_ps()));
            }
        }

        // Pass 2: classify each window and count its tagged transfers.
        let empty = CoreLanes::default();
        let mut journeys: Vec<Journey> = windows
            .iter()
            .map(|&(core, epoch, begin, end)| {
                let lane = lanes.get(core).unwrap_or(&empty);
                Journey {
                    core,
                    epoch,
                    begin,
                    end,
                    transfers: 0,
                    lines: 0,
                    legs: classify(lane, begin.as_ps(), end.as_ps()),
                }
            })
            .collect();
        for ev in events {
            if let ObsEvent::Op { lines, end, msg: Some(m), .. } = *ev {
                if let Some(j) = journeys.iter_mut().find(|j| {
                    j.core == m.dest && j.epoch == m.epoch && j.begin <= end && end <= j.end
                }) {
                    j.transfers += 1;
                    j.lines += lines;
                }
            }
        }
        JourneyBook { journeys, makespan }
    }
}

/// The boundary sweep: partition `[begin, end)` into elementary slices
/// at every interval edge and give each slice to the
/// highest-precedence covering interval. Exactness is structural — the
/// slices tile the window, so the per-leg sums cannot drift from
/// `end - begin`.
fn classify(lane: &CoreLanes, begin: u64, end: u64) -> [Time; LegKind::COUNT] {
    let mut legs = [Time::ZERO; LegKind::COUNT];
    if end <= begin {
        return legs;
    }
    let clip = |s: u64, e: u64| -> Option<(u64, u64)> {
        let (s, e) = (s.max(begin), e.min(end));
        (s < e).then_some((s, e))
    };
    let mut bounds: Vec<u64> = vec![begin, end];
    let mut edge = |s: u64, e: u64| {
        if let Some((s, e)) = clip(s, e) {
            bounds.push(s);
            bounds.push(e);
        }
    };
    for &(a, s, e, _) in &lane.waits {
        edge(a, s);
        edge(s, e);
    }
    for &(s, e, _) in &lane.ops {
        edge(s, e);
    }
    for &(s, e) in &lane.parks {
        edge(s, e);
    }
    for &(s, e, ..) in &lane.spans {
        edge(s, e);
    }
    bounds.sort_unstable();
    bounds.dedup();

    let n = bounds.len() - 1;
    let mut rank = vec![u8::MAX; n];
    let mut kind = vec![LegKind::Idle; n];
    // Span slices resolve by innermost-open wins, tracked separately.
    let mut span_depth = vec![-1i64; n];
    let mut span_kind = vec![LegKind::Idle; n];
    {
        let mut paint = |s: u64, e: u64, r: u8, k: LegKind| {
            if let Some((s, e)) = clip(s, e) {
                let lo = bounds.partition_point(|&x| x < s);
                let hi = bounds.partition_point(|&x| x < e);
                for j in lo..hi {
                    if r < rank[j] {
                        rank[j] = r;
                        kind[j] = k;
                    }
                }
            }
        };
        for &(a, s, e, res) in &lane.waits {
            let (service, queue) = match res {
                ResourceId::Port(_) => (LegKind::PortService, LegKind::PortWait),
                ResourceId::Router(_) => (LegKind::RouterService, LegKind::RouterWait),
                ResourceId::Mc(_) => (LegKind::Memory, LegKind::Memory),
            };
            paint(s, e, 0, service);
            paint(a, s, 1, queue);
        }
        for &(s, e, k) in &lane.ops {
            let leg = if k == OpKind::FlagRead { LegKind::FlagNotify } else { LegKind::Inject };
            paint(s, e, 2, leg);
        }
        for &(s, e) in &lane.parks {
            paint(s, e, 3, LegKind::FlagNotify);
        }
    }
    for &(s, e, k, depth) in &lane.spans {
        if let Some((s, e)) = clip(s, e) {
            let lo = bounds.partition_point(|&x| x < s);
            let hi = bounds.partition_point(|&x| x < e);
            for j in lo..hi {
                if depth as i64 > span_depth[j] {
                    span_depth[j] = depth as i64;
                    span_kind[j] = k;
                }
            }
        }
    }
    for j in 0..n {
        let k = if rank[j] != u8::MAX {
            kind[j]
        } else if span_depth[j] >= 0 {
            span_kind[j]
        } else {
            LegKind::Idle
        };
        legs[k.index()] += Time::from_ps(bounds[j + 1] - bounds[j]);
    }
    legs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::scenarios;
    use scc_hal::{MsgId, Span};

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    fn window(core: u8, epoch: u32, b: u64, e: u64) -> [ObsEvent; 2] {
        [
            ObsEvent::DeliveryBegin { core: CoreId(core), epoch, at: ps(b) },
            ObsEvent::DeliveryEnd { core: CoreId(core), epoch, at: ps(e) },
        ]
    }

    #[test]
    fn leg_names_round_trip_and_are_unique() {
        for k in LegKind::ALL {
            assert_eq!(LegKind::ALL[k.index()], k);
        }
        let mut names: Vec<&str> = LegKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LegKind::COUNT);
    }

    #[test]
    fn sweep_partitions_the_window_exactly() {
        let [b, e] = window(0, 0, 100, 1000);
        let events = vec![
            b,
            // An op [100,400) with a router booking [150,300) whose
            // queue wait is [120,150); port service [300,350).
            ObsEvent::Op {
                core: CoreId(0),
                kind: OpKind::PutFromMem,
                lines: 4,
                start: ps(100),
                end: ps(400),
                msg: Some(MsgId::new(0, CoreId(0), CoreId(0), 0)),
            },
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Router(3),
                arrival: ps(120),
                start: ps(150),
                end: ps(300),
                link: None,
            },
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Port(1),
                arrival: ps(300),
                start: ps(300),
                end: ps(350),
                link: None,
            },
            // A poll [500,600), then parked [600,800).
            ObsEvent::Op {
                core: CoreId(0),
                kind: OpKind::FlagRead,
                lines: 1,
                start: ps(500),
                end: ps(600),
                msg: None,
            },
            ObsEvent::Park { core: CoreId(0), line: 0, at: ps(600) },
            ObsEvent::Wake { core: CoreId(0), line: 0, at: ps(800), writer: CoreId(1) },
            e,
            ObsEvent::Finish { core: CoreId(0), at: ps(1000) },
        ];
        let book = JourneyBook::from_events(&events);
        assert_eq!(book.journeys.len(), 1);
        let j = &book.journeys[0];
        assert_eq!(j.latency(), ps(900));
        assert_eq!(j.legs_total(), j.latency(), "legs must tile the window");
        // [100,120) inject, [120,150) router wait, [150,300) router
        // service, [300,350) port service, [350,400) inject,
        // [400,500) idle, [500,600) poll, [600,800) parked,
        // [800,1000) idle.
        assert_eq!(j.leg(LegKind::Inject), ps(20 + 50));
        assert_eq!(j.leg(LegKind::RouterWait), ps(30));
        assert_eq!(j.leg(LegKind::RouterService), ps(150));
        assert_eq!(j.leg(LegKind::PortService), ps(50));
        assert_eq!(j.leg(LegKind::FlagNotify), ps(100 + 200));
        assert_eq!(j.leg(LegKind::Idle), ps(100 + 200));
        assert_eq!(j.transfers, 1);
        assert_eq!(j.lines, 4);
        assert_eq!(book.makespan, ps(1000));
    }

    #[test]
    fn wait_spans_claim_otherwise_idle_time() {
        let [b, e] = window(2, 7, 0, 500);
        let events = vec![
            b,
            ObsEvent::SpanBegin { core: CoreId(2), span: Span::of(Phase::Drain), at: ps(0) },
            // Nested deeper: a notify wait inside the drain claims its
            // sub-interval (innermost wins).
            ObsEvent::SpanBegin { core: CoreId(2), span: Span::of(Phase::NotifyWait), at: ps(100) },
            ObsEvent::SpanEnd { core: CoreId(2), span: Span::of(Phase::NotifyWait), at: ps(200) },
            ObsEvent::SpanEnd { core: CoreId(2), span: Span::of(Phase::Drain), at: ps(400) },
            e,
        ];
        let book = JourneyBook::from_events(&events);
        let j = &book.journeys[0];
        assert_eq!(j.epoch, 7);
        assert_eq!(j.leg(LegKind::Drain), ps(300));
        assert_eq!(j.leg(LegKind::FlagNotify), ps(100));
        assert_eq!(j.leg(LegKind::Idle), ps(100));
        assert_eq!(j.legs_total(), ps(500));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let [b0, e0] = window(0, 0, 0, 700);
        let [b1, e1] = window(1, 0, 10, 900);
        let events = vec![
            b0,
            b1,
            ObsEvent::Op {
                core: CoreId(1),
                kind: OpKind::GetToMem,
                lines: 96,
                start: ps(100),
                end: ps(880),
                msg: Some(MsgId::new(0, CoreId(0), CoreId(1), 0)),
            },
            e0,
            e1,
            ObsEvent::Finish { core: CoreId(1), at: ps(900) },
        ];
        let book = JourneyBook::from_events(&events);
        assert_eq!(book.journeys.len(), 2);
        let text = scenarios("journeys", &[("unit".to_string(), book)]).render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        assert!(text.contains("\"transfers\":1,\"lines\":96,"), "{text}");
    }
}
