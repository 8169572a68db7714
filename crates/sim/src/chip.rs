//! Shared state of the simulated chip: MPB and private-memory contents,
//! and the occupancy state of every contended resource (mesh routers,
//! MPB ports, memory controllers).
//!
//! Resource use follows a reservation discipline: each line transfer is
//! simulated at its start event in global time order and books capacity
//! on the routers, the target MPB port and (for off-chip transfers) the
//! memory controller it touches. Resources keep a short calendar of
//! outstanding reservations (see [`Calendar`]) so that packets arriving
//! in an idle gap are served there instead of queueing behind a
//! reservation made for a later instant.

use crate::params::SimParams;
use scc_hal::{CoreId, LinkDir, MemController, Tile, Time, MPB_BYTES_PER_CORE, NUM_LINK_DIRS};
use scc_obs::{ObsEvent, Recorder, ResourceId};
use std::cell::Cell;
use std::sync::OnceLock;

/// Reservation calendar of a single-server resource.
///
/// A scalar "next free" timestamp is not enough here: a multi-stage
/// operation simulated at event time `t` reserves resources at several
/// instants *after* `t`, and another operation simulated next — at the
/// same event time — may arrive at one of those resources *earlier*
/// than an existing reservation. The calendar keeps the reservations as
/// disjoint, start-sorted intervals and places each new request into
/// the earliest idle gap at or after its arrival, which is exactly what
/// the hardware's FIFO would have done.
///
/// Sortedness is what keeps a saturated resource affordable: at k = 47
/// the root's MPB port holds a 47-long back-to-back chain, which a
/// sorted vector walks once per arrival and an unsorted one would
/// rescan for every candidate start.
///
/// Expired reservations are not removed as time passes. No reservation
/// ever looks at them — an arrival is never before the pruning horizon,
/// so the backward pass never slides an interval that ended by the
/// arrival, and the expired ones all lie in front of those —
/// which makes pruning purely a bound on storage: the dead prefix is
/// dropped only when the vector is full and would otherwise reallocate.
#[derive(Debug, Default, Clone)]
pub struct Calendar {
    /// Disjoint, start-sorted (hence also end-sorted) intervals.
    slots: Vec<(Time, Time)>,
}

impl Calendar {
    /// Reserve `service` time starting no earlier than `arrival`;
    /// returns the service start. `prune_before` must be a lower bound
    /// on this and every future arrival (the scheduler's current event
    /// time), so intervals ending at or before it can be dropped.
    ///
    /// One backward pass from the tail slides every reservation that
    /// starts at or after the request's end one slot right. Conflicts
    /// cluster at the tail — a packet's return trip books the same
    /// routers its forward trip just did — so this is a handful of
    /// steps, and none for an arrival after every reservation.
    #[inline]
    pub fn reserve(&mut self, arrival: Time, service: Time, prune_before: Time) -> Time {
        debug_assert!(arrival >= prune_before, "arrival before the pruning horizon");
        if self.slots.len() == self.slots.capacity() {
            let dead = self.slots.partition_point(|&(_, end)| end <= prune_before);
            drop_prefix(&mut self.slots, dead);
        }
        let end = arrival + service;
        self.slots.push((arrival, end));
        // Slices keep the loops free of bounds checks.
        let slots = self.slots.as_mut_slice();
        let mut hole = slots.len() - 1;
        while let Some(&before) = slots[..hole].last() {
            if before.0 < end {
                break;
            }
            slots[hole] = before;
            hole -= 1;
        }
        let mut start = arrival;
        if let Some(&(_, front_end)) = slots[..hole].last().filter(|front| front.1 > arrival) {
            // The reservation in front overlaps the request, so no gap
            // before it fits: walk the hole forward to the first that does.
            start = front_end;
            while let Some(&after) = slots.get(hole + 1) {
                if after.0 >= start + service {
                    break;
                }
                slots[hole] = after;
                start = after.1;
                hole += 1;
            }
        }
        slots[hole] = (start, start + service);
        start
    }

    /// Reservations the calendar holds storage for — the quantity lazy
    /// pruning bounds (see `tests/calendar_oracle.rs`).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// `v` is full and its first `dead` entries are no longer needed: drop
/// them instead of growing. Grows after all when that frees less than
/// half of the storage, so the shifting stays amortized O(1) per push
/// and the capacity stays within four times the most entries ever live.
#[cold]
pub(crate) fn drop_prefix<T>(v: &mut Vec<T>, dead: usize) {
    v.drain(..dead);
    let live = v.len();
    if 2 * live > v.capacity() {
        v.reserve(live);
    }
}

/// Aggregate counters exposed in the run report.
///
/// The chip accumulates queueing and service time only at the finest
/// grain — per directed mesh link, per tile port, per memory controller
/// ([`link_wait`](SimStats::link_wait)/[`link_busy`](SimStats::link_busy),
/// `port_*_by_tile`, `mc_*_by_ctrl`). The coarser views of the same time
/// (`router_*_by_tile` and the six scalar totals) are sums over those,
/// *folded* when the stats are read ([`Chip::stats`], which is what a
/// [`crate::SimReport`] carries), so every partition invariant documented
/// below holds by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped from the queue.
    pub events: u64,
    /// Timed RMA operations simulated.
    pub ops: u64,
    /// Cache lines moved by all operations.
    pub lines_moved: u64,
    /// Total time spent queueing at MPB ports (summed over packets).
    pub port_wait: Time,
    /// Total time spent queueing inside mesh routers.
    pub router_wait: Time,
    /// Total time spent queueing at memory controllers.
    pub mc_wait: Time,
    /// Flag park/wake cycles.
    pub parks: u64,
    /// Total MPB-port service time booked (for utilization reports).
    pub port_busy: Time,
    /// Total router occupancy booked.
    pub router_busy: Time,
    /// Total memory-controller service time booked.
    pub mc_busy: Time,
    /// Events pushed onto the event queue (engine-internal; elided
    /// pushes from the coalesced fast path are *not* counted here).
    pub heap_pushes: u64,
    /// Line steps taken on the coalesced fast path, i.e. event-queue
    /// round-trips elided. `events == heap_pushes + coalesced_steps`
    /// on every successful run.
    pub coalesced_steps: u64,
    /// Wakes delivered to a core other than the one running the event
    /// loop — each one changes the runnable core (a coroutine switch).
    /// Wakes returned inline to the calling core are not counted.
    pub handoffs: u64,
    /// Per-tile breakdown of [`port_wait`](SimStats::port_wait)
    /// (24 entries; `sum == port_wait` on every run).
    pub port_wait_by_tile: Vec<Time>,
    /// Per-tile breakdown of [`port_busy`](SimStats::port_busy).
    pub port_busy_by_tile: Vec<Time>,
    /// Per-tile breakdown of [`router_wait`](SimStats::router_wait).
    pub router_wait_by_tile: Vec<Time>,
    /// Per-tile breakdown of [`router_busy`](SimStats::router_busy).
    pub router_busy_by_tile: Vec<Time>,
    /// Per-controller breakdown of [`mc_wait`](SimStats::mc_wait)
    /// (4 entries).
    pub mc_wait_by_ctrl: Vec<Time>,
    /// Per-controller breakdown of [`mc_busy`](SimStats::mc_busy).
    pub mc_busy_by_ctrl: Vec<Time>,
    /// Per-directed-mesh-link breakdown of
    /// [`router_wait`](SimStats::router_wait): entry
    /// `tile * NUM_LINK_DIRS + dir` is the queueing attributed to
    /// packets that left `tile`'s router on output `dir`
    /// ([`LinkDir::Eject`] = delivered into the tile). For every tile
    /// the five entries sum exactly to
    /// [`router_wait_by_tile`](SimStats::router_wait_by_tile) — the
    /// link counters *partition* the per-tile router aggregates.
    pub link_wait: Vec<Time>,
    /// Per-directed-link breakdown of
    /// [`router_busy`](SimStats::router_busy); same layout and same
    /// partition invariant as [`link_wait`](SimStats::link_wait).
    pub link_busy: Vec<Time>,
    /// Faults injected by the run's [`crate::fault::FaultPlan`]
    /// (always zero with an empty plan).
    pub faults: u64,
    /// Virtual time the injected faults cost their ops directly (delay
    /// and slowdown faults; a lost notification's cost is the recovery
    /// traffic, which is ordinary op time).
    pub fault_lost: Time,
}

/// The X-Y route of every ordered tile pair, flattened: the routers of
/// `from -> to` are `links[start[i]..start[i + 1]]` with
/// `i = from * 24 + to`, each as the directed output link
/// (`tile * NUM_LINK_DIRS + dir`) the router forwards the packet on.
/// Routing is static, so the table is built once per process and a path
/// copies a slice instead of re-deriving its route tile by tile.
struct RouteTable {
    links: Vec<u8>,
    start: [u16; 24 * 24 + 1],
}

impl RouteTable {
    fn build() -> RouteTable {
        let mut links = Vec::new();
        let mut start = [0u16; 24 * 24 + 1];
        for from in 0..24u8 {
            for to in 0..24u8 {
                let (a, b) = (Tile::from_index(from), Tile::from_index(to));
                // Each router's output link: towards the route's next
                // tile, or local ejection at the destination.
                let mut route = a.xy_route(b).peekable();
                while let Some(tile) = route.next() {
                    let dir = route.peek().map_or(LinkDir::Eject, |&next| tile.dir_to(next));
                    links.push((tile.index() * NUM_LINK_DIRS + dir.index()) as u8);
                }
                start[from as usize * 24 + to as usize + 1] = links.len() as u16;
            }
        }
        RouteTable { links, start }
    }

    fn get() -> &'static RouteTable {
        static TABLE: OnceLock<RouteTable> = OnceLock::new();
        TABLE.get_or_init(RouteTable::build)
    }

    /// The router stages of `from -> to`.
    fn route(&self, p: &SimParams, from: Tile, to: Tile) -> impl Iterator<Item = Stage> + '_ {
        let i = from.index() * 24 + to.index();
        let links = &self.links[self.start[i] as usize..self.start[i + 1] as usize];
        let (occupancy, l_hop) = (p.router_occupancy, p.l_hop);
        // Attributing a router's booking to its output link makes the five
        // link rows of each tile an exact partition of its router's time.
        links.iter().map(move |&link| {
            Stage::new(link as usize / NUM_LINK_DIRS, link as usize, occupancy, l_hop)
        })
    }
}

/// The calendar table holds the 24 routers, then the 24 tile MPB ports
/// (the two cores of a tile share the physical MPB, hence the port),
/// then the 4 memory controllers. The counter rows, the finest grain
/// [`SimStats`] reports, are the 120 directed mesh links, then the ports
/// and the controllers in calendar order.
const PORT_CALENDAR: usize = 24;
const MC_CALENDAR: usize = 48;
const PORT_ROW: usize = 24 * NUM_LINK_DIRS;
const MC_ROW: usize = PORT_ROW + 24;
const ROWS: usize = MC_ROW + 4;
/// Stages of the longest line: two legs of at most nine routers out,
/// the port or controller, and at most nine routers back.
const MAX_STAGES: usize = 2 * (9 + 1 + 9);

/// One booking of a line: arrive `pre` after the previous stage passed
/// the packet on, reserve `service` on `calendar`, charge the wait and
/// the service to counter row `row`, and pass the packet on `post`
/// after the service started. A leg of Section 3.1's
/// `o_core + d·L_hop + service + d·L_hop` is a run of these: its first
/// router has `o_core` as `pre`, each router passes on after `L_hop`,
/// the port or controller after its service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Stage {
    calendar: u8,
    row: u8,
    pre: Time,
    service: Time,
    post: Time,
}

impl Stage {
    fn new(calendar: usize, row: usize, service: Time, post: Time) -> Stage {
        Stage { calendar: calendar as u8, row: row as u8, pre: Time::ZERO, service, post }
    }

    /// `service` at the MPB port of `tile`.
    pub(crate) fn port(tile: Tile, service: Time) -> Stage {
        Stage::new(PORT_CALENDAR + tile.index(), PORT_ROW + tile.index(), service, service)
    }

    /// `service` at memory controller `mc`.
    pub(crate) fn mc(mc: MemController, service: Time) -> Stage {
        Stage::new(MC_CALENDAR + mc.index(), MC_ROW + mc.index(), service, service)
    }

    /// What a recorded `Wait` names: the resource and, for a router,
    /// the output link.
    fn resource(self) -> (ResourceId, Option<LinkDir>) {
        let c = self.calendar;
        match c as usize {
            i if i < PORT_CALENDAR => {
                (ResourceId::Router(c), Some(LinkDir::ALL[self.row as usize % NUM_LINK_DIRS]))
            }
            i if i < MC_CALENDAR => (ResourceId::Port(c - PORT_CALENDAR as u8), None),
            _ => (ResourceId::Mc(c - MC_CALENDAR as u8), None),
        }
    }
}

/// The stages of one line of one issuer, in booking order, and the key
/// they were built for (see [`Chip::book_line`]). Stored inline, so all
/// of a chip's paths are one allocation: a `Vec` per core fragmented the
/// heap enough to raise a registry run's peak RSS by 2.6 MB.
#[derive(Clone)]
pub(crate) struct Path {
    key: Option<u16>,
    len: u8,
    stages: [Stage; MAX_STAGES],
}

impl Path {
    fn extend(&mut self, stages: impl IntoIterator<Item = Stage>) {
        for stage in stages {
            self.stages[self.len as usize] = stage;
            self.len += 1;
        }
    }

    /// Append one leg from tile `from`: the core's `o_core`, the
    /// request's route to tile `to`, the `serve` stage there, and the
    /// response's route back.
    pub(crate) fn leg(&mut self, p: &SimParams, o_core: Time, from: Tile, to: Tile, serve: Stage) {
        let (routes, first) = (RouteTable::get(), self.len as usize);
        self.extend(routes.route(p, from, to));
        // A route holds at least the router of its own tile.
        self.stages[first].pre = o_core;
        self.extend([serve]);
        self.extend(routes.route(p, to, from));
    }
}

/// Every contended resource of the chip: the calendar table and the
/// counter rows, indexed as a [`Stage`] says. `rows` holds the queueing
/// time of each row, then the service time of each.
struct Resources {
    calendars: Vec<Calendar>,
    rows: Vec<Time>,
    /// Lower bound on all future arrivals, advanced by the scheduler;
    /// lets the calendars prune expired reservations.
    prune_before: Time,
}

impl Resources {
    /// Book `stages` in order for a packet of `issuer` handed to the
    /// first one at `t`; returns when the last one passes it on. With a
    /// recorder, each booking is recorded as a `Wait` as it is made.
    #[inline]
    fn book(
        &mut self,
        recorder: &mut Option<Box<dyn Recorder>>,
        issuer: CoreId,
        t: Time,
        stages: impl IntoIterator<Item = Stage>,
    ) -> Time {
        let (mut t, prune_before) = (t, self.prune_before);
        for stage in stages {
            let (arrival, service) = (t + stage.pre, stage.service);
            let calendar = &mut self.calendars[stage.calendar as usize];
            let start = calendar.reserve(arrival, service, prune_before);
            self.rows[stage.row as usize] += start - arrival;
            self.rows[ROWS + stage.row as usize] += service;
            if let Some(r) = recorder.as_mut() {
                let (resource, link) = stage.resource();
                let end = start + service;
                r.record(ObsEvent::Wait { core: issuer, resource, arrival, start, end, link });
            }
            t = start + stage.post;
        }
        t
    }
}

/// Mutable chip state owned by the scheduler thread.
pub struct Chip {
    /// Fixed for the run: cached paths hold times computed from it.
    pub(crate) params: SimParams,
    pub num_cores: usize,
    mem_bytes: usize,
    /// MPB contents, `num_cores * 8 KB`, indexed by core then byte.
    mpb: Vec<u8>,
    /// Per core, the end of what the three MPB writers have written;
    /// past it the MPB is still zero, so a reset zeroes only below it.
    mpb_written: Vec<usize>,
    /// Private off-chip memory of each core, grown lazily: logically
    /// `mem_bytes` of zeroes, but backed only up to the highest byte a
    /// run has actually touched (a 48-core chip would otherwise zero
    /// 48 x `mem_bytes` on every `run_spmd`).
    private: Vec<Vec<u8>>,
    /// Per core, the end of what the two private writers have written;
    /// past it private memory is still zero, as with `mpb_written`.
    private_written: Vec<usize>,
    resources: Resources,
    /// Per core, the path of its last line (see [`Chip::book_line`]).
    paths: Vec<Path>,
    /// The run's scalar counters as accumulated so far; the per-resource
    /// views live in the counter rows — read through [`Chip::stats`].
    pub(crate) stats: SimStats,
    /// Structured event sink. `None` (the default) keeps the hot path
    /// at a single never-taken branch per booking — see the
    /// `obs_equivalence` test for the zero-cost guarantee.
    pub recorder: Option<Box<dyn Recorder>>,
}

thread_local! {
    /// The last finished run's chip on this host thread.
    static WARM: Cell<Option<Chip>> = const { Cell::new(None) };
}

/// Raise `core`'s written-byte mark in `marks` to `end`.
#[inline]
fn raise(marks: &mut [usize], core: CoreId, end: usize) {
    let mark = &mut marks[core.index()];
    *mark = (*mark).max(end);
}

impl Chip {
    pub fn new(params: SimParams, num_cores: usize, mem_bytes: usize) -> Chip {
        assert!((1..=scc_hal::NUM_CORES).contains(&num_cores));
        Chip {
            params,
            num_cores,
            mem_bytes,
            mpb: vec![0u8; num_cores * MPB_BYTES_PER_CORE],
            mpb_written: vec![0; num_cores],
            private: (0..num_cores).map(|_| Vec::new()).collect(),
            private_written: vec![0; num_cores],
            resources: Resources {
                calendars: vec![Calendar::default(); MC_CALENDAR + 4],
                rows: vec![Time::ZERO; 2 * ROWS],
                prune_before: Time::ZERO,
            },
            paths: vec![
                Path { key: None, len: 0, stages: [Stage::default(); MAX_STAGES] };
                num_cores
            ],
            stats: SimStats::default(),
            recorder: None,
        }
    }

    /// A chip in the state [`Chip::new`] returns: this host thread's
    /// last one (see [`Chip::release`]) reset in place when it has
    /// `num_cores` cores — storage kept, contents cleared — else new.
    pub(crate) fn lease(params: SimParams, num_cores: usize, mem_bytes: usize) -> Chip {
        let Some(mut chip) = WARM.take().filter(|chip| chip.num_cores == num_cores) else {
            return Chip::new(params, num_cores, mem_bytes);
        };
        for (core, written) in chip.mpb_written.iter_mut().enumerate() {
            let base = core * MPB_BYTES_PER_CORE;
            chip.mpb[base..base + *written].fill(0);
            *written = 0;
        }
        for (mem, written) in chip.private.iter_mut().zip(&mut chip.private_written) {
            mem.truncate(mem_bytes);
            let end = std::mem::take(written).min(mem.len());
            mem[..end].fill(0);
        }
        let resources = &mut chip.resources;
        resources.calendars.iter_mut().for_each(|calendar| calendar.slots.clear());
        resources.rows.fill(Time::ZERO);
        resources.prune_before = Time::ZERO;
        // A path's times are the last run's parameters.
        chip.paths.iter_mut().for_each(|path| path.key = None);
        let (stats, recorder) = (SimStats::default(), None);
        Chip { params, mem_bytes, stats, recorder, ..chip }
    }

    /// Keep this finished run's chip for the thread's next
    /// [`Chip::lease`]. A core's private memory stays too when it is at
    /// most one 4 KB page (its growth unit), which the lease re-zeroes
    /// below its written mark; larger storage is released now, so a
    /// warm chip pins at most a page per core.
    pub(crate) fn release(mut self) {
        for mem in self.private.iter_mut().filter(|mem| mem.capacity() > 4096) {
            *mem = Vec::new();
        }
        WARM.set(Some(self));
    }

    /// Advance the pruning horizon (called by the scheduler with its
    /// event clock; all future arrivals are at or after it).
    pub fn set_prune_horizon(&mut self, now: Time) {
        self.resources.prune_before = now;
    }

    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    /// The counters so far: the scalar ones as accumulated, the
    /// per-link, per-port and per-controller views read off the counter
    /// rows, and the per-tile router views and the time totals folded
    /// from those (see [`SimStats`]).
    pub fn stats(&self) -> SimStats {
        let sum = |v: &[Time]| v.iter().copied().sum::<Time>();
        let by_tile = |links: &[Time]| links.chunks_exact(NUM_LINK_DIRS).map(sum).collect();
        let (wait, busy) = self.resources.rows.split_at(ROWS);
        let (links, ports, mcs) = (..PORT_ROW, PORT_ROW..MC_ROW, MC_ROW..);
        SimStats {
            port_wait: sum(&wait[ports.clone()]),
            router_wait: sum(&wait[links]),
            mc_wait: sum(&wait[mcs.clone()]),
            port_busy: sum(&busy[ports.clone()]),
            router_busy: sum(&busy[links]),
            mc_busy: sum(&busy[mcs.clone()]),
            port_wait_by_tile: wait[ports.clone()].to_vec(),
            port_busy_by_tile: busy[ports].to_vec(),
            router_wait_by_tile: by_tile(&wait[links]),
            router_busy_by_tile: by_tile(&busy[links]),
            mc_wait_by_ctrl: wait[mcs.clone()].to_vec(),
            mc_busy_by_ctrl: busy[mcs].to_vec(),
            link_wait: wait[links].to_vec(),
            link_busy: busy[links].to_vec(),
            ..self.stats.clone()
        }
    }

    // ---- byte storage -------------------------------------------------

    pub fn mpb_slice(&self, core: CoreId, byte_off: usize, len: usize) -> &[u8] {
        let base = core.index() * MPB_BYTES_PER_CORE + byte_off;
        &self.mpb[base..base + len]
    }

    pub fn mpb_slice_mut(&mut self, core: CoreId, byte_off: usize, len: usize) -> &mut [u8] {
        raise(&mut self.mpb_written, core, byte_off + len);
        let base = core.index() * MPB_BYTES_PER_CORE + byte_off;
        &mut self.mpb[base..base + len]
    }

    /// Materialize `core`'s private memory up to `len` bytes (page
    /// granularity, zero-filled — untouched memory reads as zeroes).
    fn private_grow(&mut self, core: CoreId, len: usize) {
        let mem = &mut self.private[core.index()];
        debug_assert!(len <= self.mem_bytes && mem.len() <= self.mem_bytes);
        if mem.len() < len {
            mem.resize(len.next_multiple_of(4096).min(self.mem_bytes), 0);
        }
    }

    pub fn private_slice(&mut self, core: CoreId, off: usize, len: usize) -> &[u8] {
        self.private_grow(core, off + len);
        &self.private[core.index()][off..off + len]
    }

    pub fn private_slice_mut(&mut self, core: CoreId, off: usize, len: usize) -> &mut [u8] {
        self.private_grow(core, off + len);
        raise(&mut self.private_written, core, off + len);
        &mut self.private[core.index()][off..off + len]
    }

    /// Copy between an MPB region and a private-memory region in either
    /// direction without aliasing issues (the two storages are disjoint).
    pub fn copy_mpb_to_private(
        &mut self,
        src: CoreId,
        src_byte: usize,
        dst: CoreId,
        dst_off: usize,
        len: usize,
    ) {
        self.private_grow(dst, dst_off + len);
        raise(&mut self.private_written, dst, dst_off + len);
        let base = src.index() * MPB_BYTES_PER_CORE + src_byte;
        let (mpb, private) = (&self.mpb, &mut self.private);
        private[dst.index()][dst_off..dst_off + len].copy_from_slice(&mpb[base..base + len]);
    }

    pub fn copy_private_to_mpb(
        &mut self,
        src: CoreId,
        src_off: usize,
        dst: CoreId,
        dst_byte: usize,
        len: usize,
    ) {
        self.private_grow(src, src_off + len);
        raise(&mut self.mpb_written, dst, dst_byte + len);
        let base = dst.index() * MPB_BYTES_PER_CORE + dst_byte;
        let (mpb, private) = (&mut self.mpb, &self.private);
        mpb[base..base + len].copy_from_slice(&private[src.index()][src_off..src_off + len]);
    }

    pub fn copy_mpb_to_mpb(
        &mut self,
        src: CoreId,
        src_byte: usize,
        dst: CoreId,
        dst_byte: usize,
        len: usize,
    ) {
        let s = src.index() * MPB_BYTES_PER_CORE + src_byte;
        let d = dst.index() * MPB_BYTES_PER_CORE + dst_byte;
        if s == d {
            return;
        }
        raise(&mut self.mpb_written, dst, dst_byte + len);
        // Regions may belong to the same vector and may overlap;
        // copy_within has memmove semantics and allocates nothing.
        self.mpb.copy_within(s..s + len, d);
    }

    // ---- timed resources ----------------------------------------------

    /// Book one cache line of `issuer` starting at `t` and return its
    /// completion. The line walks the issuer's cached path, which
    /// `build` first rebuilds when it was built for another `key`: the
    /// key must name everything the stages depend on but the run's
    /// [`SimParams`] (a lease drops every path, as parameters may
    /// differ between runs).
    pub(crate) fn book_line(
        &mut self,
        issuer: CoreId,
        key: u16,
        t: Time,
        build: impl FnOnce(&mut Path, &SimParams),
    ) -> Time {
        let path = &mut self.paths[issuer.index()];
        if path.key != Some(key) {
            path.len = 0;
            build(path, &self.params);
            path.key = Some(key);
        }
        let stages = path.stages[..path.len as usize].iter().copied();
        self.resources.book(&mut self.recorder, issuer, t, stages)
    }

    /// Send one packet of `issuer` from tile `from` to tile `to`
    /// starting at `t`; returns the arrival time at the destination
    /// router. Charges `L_hop` per router traversed and reserves each
    /// router for `router_occupancy` (virtual cut-through pipelining).
    pub fn traverse(&mut self, issuer: CoreId, t: Time, from: Tile, to: Tile) -> Time {
        let stages = RouteTable::get().route(&self.params, from, to);
        self.resources.book(&mut self.recorder, issuer, t, stages)
    }

    /// Occupy the MPB port of `tile` for a read on behalf of `issuer`;
    /// returns the service completion time.
    pub fn port_read(&mut self, issuer: CoreId, t: Time, tile: Tile) -> Time {
        let stage = Stage::port(tile, self.params.mpb_port_read);
        self.resources.book(&mut self.recorder, issuer, t, [stage])
    }

    /// Occupy a memory controller for one line read/write.
    pub fn mc_service(&mut self, issuer: CoreId, t: Time, mc: MemController, write: bool) -> Time {
        let service = if write { self.params.mc_write } else { self.params.mc_read };
        self.resources.book(&mut self.recorder, issuer, t, [Stage::mc(mc, service)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Chip {
        Chip::new(SimParams::default(), 48, 4096)
    }

    #[test]
    fn calendar_fills_gaps_and_prunes() {
        let mut cal = Calendar::default();
        let ns = Time::from_ns;
        // First reservation: starts at arrival.
        assert_eq!(cal.reserve(ns(100), ns(10), Time::ZERO), ns(100));
        // A later reservation far in the future.
        assert_eq!(cal.reserve(ns(500), ns(10), Time::ZERO), ns(500));
        // An "earlier" arrival (same event time) slips into the idle gap
        // between the two instead of queueing behind the 500ns slot.
        assert_eq!(cal.reserve(ns(105), ns(10), Time::ZERO), ns(110));
        // No gap big enough before 500: a 400ns-long request must wait.
        assert_eq!(cal.reserve(ns(105), ns(400), Time::ZERO), ns(510));
        assert_eq!(cal.slots, [(100, 110), (110, 120), (500, 510), (510, 910)].map(slot));
        // Expired slots stay while there is room for more ...
        let mut t = 1600;
        while cal.slots.len() < cal.slots.capacity() {
            assert_eq!(cal.reserve(ns(t), ns(1), ns(1500)), ns(t));
            t += 10;
        }
        assert_eq!(cal.slots[0], slot((100, 110)));
        // ... and are dropped, in place of growing, once there is not.
        let capacity = cal.slots.capacity();
        assert_eq!(cal.reserve(ns(5000), ns(1), ns(4000)), ns(5000));
        assert_eq!(cal.slots, [(5000, 5001)].map(slot));
        assert_eq!(cal.slots.capacity(), capacity);
        // Never looked at in between: an arrival at the horizon that
        // conflicts with a live slot is placed among the live ones only.
        let mut cal = Calendar::default();
        assert_eq!(cal.reserve(ns(0), ns(10), Time::ZERO), ns(0));
        assert_eq!(cal.reserve(ns(20), ns(10), Time::ZERO), ns(20));
        assert_eq!(cal.reserve(ns(40), ns(10), ns(15)), ns(40));
        assert_eq!(cal.reserve(ns(15), ns(10), ns(15)), ns(30));
        assert_eq!(cal.slots, [(0, 10), (20, 30), (30, 40), (40, 50)].map(slot));
    }

    fn slot((start, end): (u64, u64)) -> (Time, Time) {
        (Time::from_ns(start), Time::from_ns(end))
    }

    #[test]
    fn calendar_back_to_back_same_arrival() {
        let mut cal = Calendar::default();
        let ns = Time::from_ns;
        assert_eq!(cal.reserve(ns(0), ns(7), Time::ZERO), ns(0));
        assert_eq!(cal.reserve(ns(0), ns(7), Time::ZERO), ns(7));
        assert_eq!(cal.reserve(ns(0), ns(7), Time::ZERO), ns(14));
    }

    #[test]
    fn traverse_uncontended_charges_d_lhop() {
        let mut c = chip();
        let from = Tile::new(0, 0);
        let to = Tile::new(3, 2);
        let d = from.routing_distance(to) as u64;
        let t1 = c.traverse(CoreId(0), Time::ZERO, from, to);
        assert_eq!(t1, c.params.l_hop * d);
        assert_eq!(c.stats().router_wait, Time::ZERO);
        assert_eq!(c.stats().router_busy, c.params.router_occupancy * d);
    }

    #[test]
    fn traverse_same_tile_is_one_router() {
        let mut c = chip();
        let t = c.traverse(CoreId(0), Time::ZERO, Tile::new(2, 2), Tile::new(2, 2));
        assert_eq!(t, c.params.l_hop);
    }

    #[test]
    fn back_to_back_packets_queue_on_router() {
        let mut c = chip();
        let tile = Tile::new(1, 1);
        let a = c.traverse(CoreId(0), Time::ZERO, tile, tile);
        assert_eq!(a, c.params.l_hop);
        // Second packet issued at the same instant waits occupancy.
        let b = c.traverse(CoreId(0), Time::ZERO, tile, tile);
        assert_eq!(b, c.params.router_occupancy + c.params.l_hop);
        // The wait is booked on the tile's ejection link and shows up in
        // the per-tile and total router views once folded.
        let stats = c.stats();
        let eject = tile.index() * NUM_LINK_DIRS + LinkDir::Eject.index();
        assert_eq!(stats.link_wait[eject], c.params.router_occupancy);
        assert_eq!(stats.router_wait_by_tile[tile.index()], c.params.router_occupancy);
        assert_eq!(stats.router_wait, c.params.router_occupancy);
        assert_eq!(stats.router_busy, c.params.router_occupancy * 2);
    }

    #[test]
    fn port_serializes_concurrent_accesses() {
        let mut c = chip();
        let tile = Tile::new(0, 0);
        let a = c.port_read(CoreId(0), Time::ZERO, tile);
        let b = c.port_read(CoreId(0), Time::ZERO, tile);
        let s = c.params.mpb_port_read;
        assert_eq!(a, s);
        assert_eq!(b, s * 2);
        assert_eq!(c.stats().port_wait, s);
        assert_eq!(c.stats().port_wait_by_tile[tile.index()], s);
    }

    #[test]
    fn mc_serializes_and_distinguishes_read_write() {
        let mut c = chip();
        let mc = MemController::SouthWest;
        let a = c.mc_service(CoreId(0), Time::ZERO, mc, false);
        let b = c.mc_service(CoreId(0), Time::ZERO, mc, true);
        assert_eq!(a, c.params.mc_read);
        assert_eq!(b, c.params.mc_read + c.params.mc_write);
        // Other controllers are independent.
        let x = c.mc_service(CoreId(0), Time::ZERO, MemController::NorthEast, false);
        assert_eq!(x, c.params.mc_read);
        assert_eq!(c.stats().mc_wait, c.params.mc_read);
        assert_eq!(c.stats().mc_busy, c.params.mc_read * 2 + c.params.mc_write);
    }

    #[test]
    fn route_table_is_xy_route_with_output_links() {
        let (table, p) = (RouteTable::get(), SimParams::default());
        for from in (0..24).map(Tile::from_index) {
            for to in (0..24).map(Tile::from_index) {
                let tiles: Vec<Tile> = from.xy_route(to).collect();
                let stages: Vec<Stage> = table.route(&p, from, to).collect();
                assert_eq!(stages.len(), from.routing_distance(to) as usize, "{from} -> {to}");
                for (i, (&stage, &tile)) in stages.iter().zip(&tiles).enumerate() {
                    let next = tiles.get(i + 1);
                    let dir = next.map_or(LinkDir::Eject, |&next| tile.dir_to(next));
                    let link = tile.index() * NUM_LINK_DIRS + dir.index();
                    let expect = Stage::new(tile.index(), link, p.router_occupancy, p.l_hop);
                    assert_eq!(stage, expect, "{from} -> {to}");
                    assert_eq!(
                        stage.resource(),
                        (ResourceId::Router(tile.index() as u8), Some(dir))
                    );
                }
            }
        }
    }

    #[test]
    fn storage_is_isolated_per_core() {
        let mut c = chip();
        c.mpb_slice_mut(CoreId(0), 0, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(c.mpb_slice(CoreId(0), 0, 4), &[1, 2, 3, 4]);
        assert_eq!(c.mpb_slice(CoreId(1), 0, 4), &[0, 0, 0, 0]);

        c.private_slice_mut(CoreId(5), 32, 2).copy_from_slice(&[9, 9]);
        assert_eq!(c.private_slice(CoreId(5), 32, 2), &[9, 9]);
        assert_eq!(c.private_slice(CoreId(6), 32, 2), &[0, 0]);
    }

    #[test]
    fn cross_space_copies() {
        let mut c = chip();
        c.private_slice_mut(CoreId(2), 0, 3).copy_from_slice(b"abc");
        c.copy_private_to_mpb(CoreId(2), 0, CoreId(7), 64, 3);
        assert_eq!(c.mpb_slice(CoreId(7), 64, 3), b"abc");
        c.copy_mpb_to_mpb(CoreId(7), 64, CoreId(3), 0, 3);
        assert_eq!(c.mpb_slice(CoreId(3), 0, 3), b"abc");
        c.copy_mpb_to_private(CoreId(3), 0, CoreId(3), 96, 3);
        assert_eq!(c.private_slice(CoreId(3), 96, 3), b"abc");
    }
}
