//! Happens-before graphs over recorded event streams.
//!
//! The paper's OC-Bcast correctness argument is a causal chain: a
//! parent's MPB commit happens-before the child's flag wake, which
//! happens-before the child's payload get and its own notifications.
//! This module makes that chain explicit: [`CausalGraph::build`] turns
//! one [`ObsEvent`] stream into a DAG whose nodes are the events and
//! whose edges are the four happens-before sources the simulator
//! guarantees —
//!
//! * **program order** per core (every event attributed to a core, in
//!   stream order — except [`ObsEvent::Wait`] bookings, which are
//!   recorded at submission but describe *future* resource service,
//!   and [`ObsEvent::Handoff`] marks, which are scheduler artifacts
//!   concurrent with whatever the yielding core still has in flight);
//! * **wake causality**: the committing [`ObsEvent::MpbWrite`] (or,
//!   for streams predating the commit events, the writer's latest
//!   event) happens-before the [`ObsEvent::Wake`] it caused;
//! * **handoffs**: [`ObsEvent::Handoff`] happens-before the
//!   receiving core's next program event (the receiver resumes at the
//!   handoff instant, so everything it records next is at or after
//!   it);
//! * **service order** per contended resource: bookings chained by
//!   service start (the calendar may serve a late arrival in an early
//!   gap, so this is *service* order, not arrival order);
//!
//! plus delivery-window open→close edges. The audit layer
//! ([`crate::audit`]) runs its invariant checkers over this graph; the
//! graph itself offers the two structural checks every stream must
//! pass regardless of protocol: acyclicity and edge time-consistency.
//!
//! Almost every event of a stream is a booking, so bookings get no
//! [`Edge`] each: they stay per-resource chains of event indices in
//! service order, filed as the stream is read into one table sized by a
//! counting pass, and every consumer walks the chains in place
//! ([`CausalGraph::service_edges`]). A built graph is acyclic by
//! construction — every other edge runs forward in the stream and none
//! touches a booking, and each chain is a simple path — so
//! [`CausalGraph::acyclic`] checks that certificate and only runs
//! Kahn's algorithm (compressed sparse rows in two `u32` vectors) on
//! graphs that fail it.

use crate::event::{ObsEvent, ResourceId};
use crate::percore::PerCore;
use scc_hal::{CoreId, Time};

/// Which happens-before source produced an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Per-core program order.
    Program,
    /// Commit → wake causality (writer's write to the woken core).
    Wake,
    /// Baton handoff → receiver's next event.
    Handoff,
    /// Per-resource service order (chained by service start).
    Service,
    /// Delivery-window open → close.
    Window,
}

impl EdgeKind {
    pub const fn name(&self) -> &'static str {
        match self {
            EdgeKind::Program => "program",
            EdgeKind::Wake => "wake",
            EdgeKind::Handoff => "handoff",
            EdgeKind::Service => "service",
            EdgeKind::Window => "window",
        }
    }
}

/// One happens-before edge between two event indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub kind: EdgeKind,
}

/// The core whose program order an event belongs to: the first of
/// [`ObsEvent::cores`] (`MpbWrite` → its writer, `Handoff` → the core
/// handing the baton away; the receiving side gets an
/// [`EdgeKind::Handoff`] edge instead).
pub fn actor(ev: &ObsEvent) -> CoreId {
    ev.cores().0
}

/// A happens-before DAG over one recorded stream. Nodes are indices
/// into the borrowed event slice.
#[derive(Debug)]
pub struct CausalGraph<'a> {
    pub events: &'a [ObsEvent],
    /// The program, wake, handoff and window edges. Service order is
    /// not here: see [`CausalGraph::service_edges`].
    pub edges: Vec<Edge>,
    /// Every booking's index, grouped by resource in `ResourceId` order
    /// and in service order within a resource: resource `r`'s chain is
    /// `bookings[starts[r]..starts[r + 1]]`.
    bookings: Vec<u32>,
    starts: Vec<usize>,
}

impl<'a> CausalGraph<'a> {
    /// Construct the graph from a recorded stream (full run or
    /// flight-recorder window — a truncated prefix only loses edges
    /// into the pre-window past, never gains spurious ones).
    pub fn build(events: &'a [ObsEvent]) -> CausalGraph<'a> {
        // A counting pass sizes every resource's chain, so one table
        // holds them all.
        assert!(events.len() < u32::MAX as usize, "stream too large for 32-bit indices");
        let mut starts = vec![0usize; ResourceId::SLOTS + 1];
        for ev in events {
            if let ObsEvent::Wait { resource, .. } = ev {
                starts[resource.index() + 1] += 1;
            }
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut bookings = vec![0u32; starts[ResourceId::SLOTS]];
        // Per resource: bookings filed so far, and moves left before its
        // chain is left to a sort — 16 per booking, twice what the
        // flat k=47 tree's busiest port needs.
        let mut filed: Vec<(usize, usize)> =
            starts.windows(2).map(|w| (0, 16 * (w[1] - w[0]))).collect();
        let mut edges = Vec::with_capacity(2 * (events.len() - bookings.len()));
        // Last event index per core's program order.
        let mut prev: PerCore<Option<usize>> = PerCore::new();
        // Handoff waiting for the receiver's next event.
        let mut pending_handoff: PerCore<Option<usize>> = PerCore::new();
        // Latest MpbWrite index per writer (wake provenance).
        let mut last_commit: PerCore<Option<usize>> = PerCore::new();
        // Open delivery windows `(epoch, index)` per core — a handful
        // at most, so a row is searched linearly.
        let mut open_window: PerCore<Vec<(u32, usize)>> = PerCore::new();

        for (i, ev) in events.iter().enumerate() {
            match *ev {
                // Bookings describe future service (the calendar may
                // even serve a late arrival in an early gap), and
                // handoffs are concurrent with the yielding core's
                // in-flight work — neither joins a program chain.
                ObsEvent::Wait { resource, start, .. } => {
                    let (r, key) = (resource.index(), (start, i as u32));
                    let (n, budget) = &mut filed[r];
                    *n += 1;
                    file(events, &mut bookings[starts[r]..starts[r] + *n], key, budget);
                    continue;
                }
                ObsEvent::Handoff { to, .. } => {
                    *pending_handoff.at(to) = Some(i);
                    continue;
                }
                _ => {}
            }
            let a = actor(ev);
            if let Some(p) = prev.at(a).replace(i) {
                edges.push(Edge { from: p, to: i, kind: EdgeKind::Program });
            }
            if let Some(h) = pending_handoff.take(a) {
                edges.push(Edge { from: h, to: i, kind: EdgeKind::Handoff });
            }
            match *ev {
                ObsEvent::MpbWrite { writer, .. } => {
                    *last_commit.at(writer) = Some(i);
                }
                ObsEvent::Wake { core, line, at, writer } if writer != core => {
                    // Prefer the committing write; fall back to the
                    // writer's latest event so truncated or legacy
                    // streams still get a causal edge when one
                    // exists (never a later-instant one, which
                    // would fabricate a time violation).
                    let commit = last_commit.at(writer).filter(|&c| {
                        matches!(events[c], ObsEvent::MpbWrite { owner, line: l, lines, at: w_at, .. }
                            if w_at == at && owner == core && (l..l + lines).contains(&line))
                    });
                    let fallback = || prev.at(writer).filter(|&p| events[p].at() <= at);
                    if let Some(src) = commit.or_else(fallback) {
                        if src != i {
                            edges.push(Edge { from: src, to: i, kind: EdgeKind::Wake });
                        }
                    }
                }
                ObsEvent::DeliveryBegin { core, epoch, .. } => {
                    let open = open_window.at(core);
                    match open.iter_mut().find(|w| w.0 == epoch) {
                        Some(w) => w.1 = i,
                        None => open.push((epoch, i)),
                    }
                }
                ObsEvent::DeliveryEnd { core, epoch, .. } => {
                    let open = open_window.at(core);
                    if let Some(pos) = open.iter().position(|w| w.0 == epoch) {
                        let (_, b) = open.swap_remove(pos);
                        edges.push(Edge { from: b, to: i, kind: EdgeKind::Window });
                    }
                }
                _ => {}
            }
        }

        // Chains that ran out of moves are sorted instead.
        for (w, _) in starts.windows(2).zip(&filed).filter(|(_, f)| f.1 == 0) {
            bookings[w[0]..w[1]].sort_unstable_by_key(|&i| service_key(events, i));
        }
        CausalGraph { events, edges, bookings, starts }
    }

    /// Service order per resource, resources in `ResourceId` order:
    /// each booking → the next one its resource serves.
    pub fn service_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let chains = self.starts.windows(2).map(|w| &self.bookings[w[0]..w[1]]);
        chains.flat_map(|chain| chain.windows(2)).map(|p| Edge {
            from: p[0] as usize,
            to: p[1] as usize,
            kind: EdgeKind::Service,
        })
    }

    /// Every edge: [`CausalGraph::edges`], then the service links.
    fn links(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied().chain(self.service_edges())
    }

    /// How many happens-before edges the graph has, service links
    /// included.
    pub fn edge_count(&self) -> usize {
        let links = self.starts.windows(2).map(|w| (w[1] - w[0]).saturating_sub(1));
        self.edges.len() + links.sum::<usize>()
    }

    /// `Ok(())` when every node topologically sorts; otherwise the
    /// indices of events stuck on a cycle.
    ///
    /// A built graph passes the stream-order certificate — every edge
    /// of [`CausalGraph::edges`] runs forward in the stream and touches
    /// no booking, so those edges order the non-bookings by index and
    /// the bookings have only their chains, each a simple path — and
    /// returns at once. Any other graph runs Kahn's algorithm over every
    /// edge, the adjacency as compressed sparse rows in two `u32`
    /// vectors (node `u`'s successors are
    /// `targets[starts[u]..starts[u + 1]]`). Streams are far below
    /// `u32::MAX` events.
    pub fn acyclic(&self) -> Result<(), Vec<usize>> {
        let booking = |i: usize| matches!(self.events[i], ObsEvent::Wait { .. });
        if self.edges.iter().all(|e| e.from < e.to && !booking(e.from) && !booking(e.to)) {
            return Ok(());
        }
        let (n, m) = (self.events.len(), self.edge_count());
        assert!(
            n < u32::MAX as usize && m < u32::MAX as usize,
            "stream too large for 32-bit node indices"
        );
        let mut indegree = vec![0u32; n];
        // Counting sort of the edges by source, out-degrees counted two
        // slots up as in `build`.
        let mut starts = vec![0u32; n + 2];
        for e in self.links() {
            starts[e.from + 2] += 1;
            indegree[e.to] += 1;
        }
        for u in 2..n + 2 {
            starts[u] += starts[u - 1];
        }
        let mut targets = vec![0u32; m];
        for e in self.links() {
            let slot = &mut starts[e.from + 1];
            targets[*slot as usize] = e.to as u32;
            *slot += 1;
        }

        let mut stack: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = stack.pop() {
            seen += 1;
            let u = u as usize;
            for &v in &targets[starts[u] as usize..starts[u + 1] as usize] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    stack.push(v);
                }
            }
        }
        if seen == n {
            Ok(())
        } else {
            Err((0..n).filter(|&i| indegree[i] > 0).collect())
        }
    }

    /// Edges that run backwards in virtual time: [`CausalGraph::edges`]
    /// first, then the service links. For [`EdgeKind::Service`] the
    /// constraint is disjointness — the predecessor's service must
    /// *end* before the successor's starts; every other kind orders the
    /// events' own instants.
    pub fn time_violations(&self) -> Vec<Edge> {
        self.links()
            .filter(|e| {
                let (from_t, to_t) = match e.kind {
                    EdgeKind::Service => {
                        (service_end(&self.events[e.from]), service_start(&self.events[e.to]))
                    }
                    _ => (self.events[e.from].at(), self.events[e.to].at()),
                };
                from_t > to_t
            })
            .collect()
    }
}

/// A booking's place in its chain: `(service start, index)`, unique.
fn service_key(events: &[ObsEvent], i: u32) -> (Time, u32) {
    (service_start(&events[i as usize]), i)
}

/// File the booking keyed `key` at the end of its resource's `chain`
/// and move it back to its place in service order. Recorded order is
/// nearly service order, and the bookings it passes were recorded
/// moments ago, so it moves few and reads warm events. Each move spends
/// `budget`; once that is gone (a hostile or mutated stream) bookings
/// stay where they are filed and `build` sorts the chain instead.
fn file(events: &[ObsEvent], chain: &mut [u32], key: (Time, u32), budget: &mut usize) {
    let mut j = chain.len() - 1;
    while j > 0 && *budget > 0 && service_key(events, chain[j - 1]) > key {
        chain[j] = chain[j - 1];
        *budget -= 1;
        j -= 1;
    }
    chain[j] = key.1;
}

fn service_start(ev: &ObsEvent) -> Time {
    match *ev {
        ObsEvent::Wait { start, .. } => start,
        _ => ev.at(),
    }
}

fn service_end(ev: &ObsEvent) -> Time {
    match *ev {
        ObsEvent::Wait { end, .. } => end,
        _ => ev.at(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ResourceId;

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    fn op(core: u8, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Op {
            core: CoreId(core),
            kind: crate::event::OpKind::FlagPut,
            lines: 1,
            start: ns(start),
            end: ns(end),
            msg: None,
        }
    }

    #[test]
    fn program_order_chains_per_core() {
        let events = vec![op(0, 0, 10), op(1, 0, 5), op(0, 10, 20), op(1, 5, 12)];
        let g = CausalGraph::build(&events);
        let prog: Vec<(usize, usize)> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Program)
            .map(|e| (e.from, e.to))
            .collect();
        assert_eq!(prog, vec![(0, 2), (1, 3)]);
        g.acyclic().unwrap();
        assert!(g.time_violations().is_empty());
    }

    #[test]
    fn wake_edge_prefers_covering_commit() {
        let events = vec![
            ObsEvent::Park { core: CoreId(1), line: 3, at: ns(0) },
            op(0, 0, 10),
            ObsEvent::MpbWrite {
                owner: CoreId(1),
                line: 3,
                lines: 1,
                writer: CoreId(0),
                value: Some(7),
                at: ns(10),
            },
            ObsEvent::Wake { core: CoreId(1), line: 3, at: ns(10), writer: CoreId(0) },
        ];
        let g = CausalGraph::build(&events);
        let wake: Vec<&Edge> = g.edges.iter().filter(|e| e.kind == EdgeKind::Wake).collect();
        assert_eq!(wake.len(), 1);
        assert_eq!((wake[0].from, wake[0].to), (2, 3));
    }

    #[test]
    fn service_edges_follow_service_start_not_arrival() {
        // Booking B arrived later but was served first (calendar gap).
        let events = vec![
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Port(2),
                arrival: ns(0),
                start: ns(20),
                end: ns(30),
                link: None,
            },
            ObsEvent::Wait {
                core: CoreId(1),
                resource: ResourceId::Port(2),
                arrival: ns(5),
                start: ns(5),
                end: ns(15),
                link: None,
            },
        ];
        let g = CausalGraph::build(&events);
        let svc: Vec<Edge> = g.service_edges().collect();
        assert_eq!((svc.len(), g.edge_count()), (1, 1));
        assert_eq!((svc[0].from, svc[0].to), (1, 0));
        assert!(g.time_violations().is_empty());
    }

    #[test]
    fn overlapping_service_intervals_violate_time() {
        let mk = |core: u8, arrival: u64, start: u64, end: u64| ObsEvent::Wait {
            core: CoreId(core),
            resource: ResourceId::Router(4),
            arrival: ns(arrival),
            start: ns(start),
            end: ns(end),
            link: None,
        };
        let events = vec![mk(0, 0, 0, 20), mk(1, 1, 10, 25)];
        let g = CausalGraph::build(&events);
        let bad = g.time_violations();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].kind, EdgeKind::Service);
    }

    #[test]
    fn handoff_reaches_receivers_next_event() {
        let events = vec![
            op(0, 0, 10),
            ObsEvent::Handoff { from: CoreId(0), to: CoreId(1), at: ns(10) },
            op(1, 10, 20),
        ];
        let g = CausalGraph::build(&events);
        assert!(g.edges.iter().any(|e| e.kind == EdgeKind::Handoff && e.from == 1 && e.to == 2));
    }

    /// The textbook Kahn on a `Vec<Vec<usize>>` adjacency — the oracle
    /// for the CSR one.
    fn naive_stuck(n: usize, edges: &[Edge]) -> Vec<usize> {
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in edges {
            adj[e.from].push(e.to);
            indegree[e.to] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    stack.push(v);
                }
            }
        }
        (0..n).filter(|&i| indegree[i] > 0).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]

        /// Random forward edges (duplicates included) form a DAG; a
        /// planted back path of `cycle` nodes (0 = none, 1 = self-loop)
        /// closes a cycle. Either way the CSR Kahn reports exactly the
        /// stuck set of the naive one.
        #[test]
        fn csr_kahn_agrees_with_the_naive_one(
            n in 1usize..48,
            raw in proptest::collection::vec((0usize..4096, 0usize..4096), 0..160),
            cycle in 0usize..6,
        ) {
            let events: Vec<ObsEvent> = (0..n).map(|i| op(0, i as u64, i as u64 + 1)).collect();
            let mut edges: Vec<Edge> = raw
                .iter()
                .map(|&(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Edge { from: a.min(b), to: a.max(b), kind: EdgeKind::Program })
                .collect();
            let ring: Vec<usize> = (0..cycle.min(n)).map(|i| (i * 7 + 3) % n).collect();
            for (i, &from) in ring.iter().enumerate() {
                edges.push(Edge { from, to: ring[(i + 1) % ring.len()], kind: EdgeKind::Wake });
            }
            let want = naive_stuck(n, &edges);
            let g = CausalGraph { events: &events, edges, bookings: Vec::new(), starts: Vec::new() };
            let got = g.acyclic().err().unwrap_or_default();
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(got.is_empty(), ring.is_empty());
        }
    }

    #[test]
    fn empty_stream_is_trivially_acyclic() {
        let g = CausalGraph::build(&[]);
        g.acyclic().unwrap();
        assert!(g.edges.is_empty());
    }
}
