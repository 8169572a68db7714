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

/// Reservation calendar of a single-server resource.
///
/// A scalar "next free" timestamp is not enough here: a multi-stage
/// operation simulated at event time `t` reserves resources at several
/// instants *after* `t`, and another operation simulated next — at the
/// same event time — may arrive at one of those resources *earlier*
/// than an existing reservation. The calendar keeps the outstanding
/// reservations as disjoint, start-sorted intervals and places each new
/// request into the earliest idle gap at or after its arrival, which is
/// exactly what the hardware's FIFO would have done.
#[derive(Debug, Default, Clone)]
pub struct Calendar {
    /// Disjoint, start-sorted intervals; the live ones are
    /// `slots[head..]`. Pruning advances `head` instead of shifting the
    /// vector; the dead prefix is compacted away once it grows past a
    /// small bound, so storage stays flat (no ring-buffer index math in
    /// the hot path) and amortized O(1) per reservation.
    slots: Vec<(Time, Time)>,
    head: usize,
}

impl Calendar {
    /// Reserve `service` time starting no earlier than `arrival`;
    /// returns the service start. `prune_before` must be a lower bound
    /// on every future arrival (the scheduler's current event time), so
    /// intervals ending before it can be dropped.
    #[inline]
    pub fn reserve(&mut self, arrival: Time, service: Time, prune_before: Time) -> Time {
        let mut head = self.head;
        while let Some(&(_, end)) = self.slots.get(head) {
            if end > prune_before {
                break;
            }
            head += 1;
        }
        self.head = head;
        // Events are processed in nondecreasing virtual time, so most
        // arrivals land at or after every outstanding reservation:
        // appending is the hot path, O(1).
        if let Some(&(_, last_end)) = self.slots.last() {
            if arrival < last_end && head < self.slots.len() {
                return self.reserve_in_gap(arrival, service);
            }
        }
        if head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        } else if head >= 64 {
            self.slots.drain(..head);
            self.head = 0;
        }
        self.slots.push((arrival, arrival + service));
        arrival
    }

    /// Slow path of [`reserve`](Self::reserve): the arrival conflicts
    /// with outstanding reservations; find the earliest idle gap at or
    /// after it. Intervals are disjoint and start-sorted (hence also
    /// end-sorted). Conflicts cluster at the tail — a packet's return
    /// trip books the same routers its forward trip just did — so scan
    /// backwards from the end; this is one or two well-predicted steps
    /// in practice, where a binary search would mispredict every probe.
    fn reserve_in_gap(&mut self, arrival: Time, service: Time) -> Time {
        // First interval that ends after the arrival; everything before
        // it is already over and cannot conflict.
        let mut first = self.slots.len();
        while first > self.head && self.slots[first - 1].1 > arrival {
            first -= 1;
        }
        let mut t0 = arrival;
        let mut idx = first;
        while let Some(&(s, e)) = self.slots.get(idx) {
            if s >= t0 + service {
                break; // fits entirely in the gap before this slot
            }
            if e > t0 {
                t0 = e;
            }
            idx += 1;
        }
        self.slots.insert(idx, (t0, t0 + service));
        t0
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.head
    }
}

/// Aggregate counters exposed in the run report.
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
    /// Events pushed onto the scheduler heap (engine-internal; elided
    /// pushes from the coalesced fast path are *not* counted here).
    pub heap_pushes: u64,
    /// Line steps taken on the coalesced fast path, i.e. heap
    /// round-trips elided. `events == heap_pushes + coalesced_steps`
    /// on every successful run.
    pub coalesced_steps: u64,
    /// Grants delivered to a core other than the one running the event
    /// loop — each one changes the runnable core (a coroutine switch).
    /// Grants returned inline to the requesting core are not counted.
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

impl SimStats {
    /// Stats with the per-resource vectors sized for the chip (24 tile
    /// ports, 24 routers, 4 memory controllers).
    pub fn sized() -> SimStats {
        SimStats {
            port_wait_by_tile: vec![Time::ZERO; 24],
            port_busy_by_tile: vec![Time::ZERO; 24],
            router_wait_by_tile: vec![Time::ZERO; 24],
            router_busy_by_tile: vec![Time::ZERO; 24],
            mc_wait_by_ctrl: vec![Time::ZERO; 4],
            mc_busy_by_ctrl: vec![Time::ZERO; 4],
            link_wait: vec![Time::ZERO; 24 * NUM_LINK_DIRS],
            link_busy: vec![Time::ZERO; 24 * NUM_LINK_DIRS],
            ..SimStats::default()
        }
    }
}

/// Mutable chip state owned by the scheduler thread.
pub struct Chip {
    pub params: SimParams,
    pub num_cores: usize,
    mem_bytes: usize,
    /// MPB contents, `num_cores * 8 KB`, indexed by core then byte.
    mpb: Vec<u8>,
    /// Private off-chip memory of each core, grown lazily: logically
    /// `mem_bytes` of zeroes, but backed only up to the highest byte a
    /// run has actually touched (a 48-core chip would otherwise zero
    /// 48 x `mem_bytes` on every `run_spmd`).
    private: Vec<Vec<u8>>,
    /// Reservation calendar per mesh router (one per tile, 24 entries).
    routers: Vec<Calendar>,
    /// Calendar per tile MPB port (the two cores of a tile share the
    /// physical MPB, hence the port).
    ports: Vec<Calendar>,
    /// Calendar per memory controller.
    mcs: Vec<Calendar>,
    /// Lower bound on all future arrivals, advanced by the scheduler;
    /// lets the calendars prune expired reservations.
    prune_before: Time,
    pub stats: SimStats,
    /// Structured event sink. `None` (the default) keeps the hot path
    /// at a single never-taken branch per booking — see the
    /// `obs_equivalence` test for the zero-cost guarantee.
    pub recorder: Option<Box<dyn Recorder>>,
}

impl Chip {
    pub fn new(params: SimParams, num_cores: usize, mem_bytes: usize) -> Chip {
        assert!((1..=scc_hal::NUM_CORES).contains(&num_cores));
        Chip {
            params,
            num_cores,
            mem_bytes,
            mpb: vec![0u8; num_cores * MPB_BYTES_PER_CORE],
            private: (0..num_cores).map(|_| Vec::new()).collect(),
            routers: vec![Calendar::default(); 24],
            ports: vec![Calendar::default(); 24],
            mcs: vec![Calendar::default(); 4],
            prune_before: Time::ZERO,
            stats: SimStats::sized(),
            recorder: None,
        }
    }

    /// Advance the pruning horizon (called by the scheduler with its
    /// event clock; all future arrivals are at or after it).
    pub fn set_prune_horizon(&mut self, now: Time) {
        self.prune_before = now;
    }

    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    // ---- byte storage -------------------------------------------------

    pub fn mpb_slice(&self, core: CoreId, byte_off: usize, len: usize) -> &[u8] {
        let base = core.index() * MPB_BYTES_PER_CORE + byte_off;
        &self.mpb[base..base + len]
    }

    pub fn mpb_slice_mut(&mut self, core: CoreId, byte_off: usize, len: usize) -> &mut [u8] {
        let base = core.index() * MPB_BYTES_PER_CORE + byte_off;
        &mut self.mpb[base..base + len]
    }

    /// Materialize `core`'s private memory up to `len` bytes (4 KB
    /// granularity, zero-filled — untouched memory reads as zeroes).
    fn private_grow(&mut self, core: CoreId, len: usize) {
        debug_assert!(len <= self.mem_bytes);
        let mem = &mut self.private[core.index()];
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
        // Regions may belong to the same vector and may overlap;
        // copy_within has memmove semantics and allocates nothing.
        self.mpb.copy_within(s..s + len, d);
    }

    // ---- timed resources ----------------------------------------------

    /// Send one packet of `issuer` from tile `from` to tile `to`
    /// starting at `t`; returns the arrival time at the destination
    /// router. Charges `L_hop` per router traversed and reserves each
    /// router for `router_occupancy` (virtual cut-through pipelining).
    pub fn traverse(&mut self, issuer: CoreId, t: Time, from: Tile, to: Tile) -> Time {
        let occupancy = self.params.router_occupancy;
        let l_hop = self.params.l_hop;
        let mut t = t;
        let mut route = from.xy_route(to).peekable();
        while let Some(tile) = route.next() {
            // The output link this router forwards the packet on: the
            // next tile of the X-Y route, or local ejection at the
            // destination. Attributing the router's booking to its
            // output link makes the five per-link counters of each tile
            // an exact partition of the per-tile router aggregates.
            let dir = match route.peek() {
                Some(&next) => tile.dir_to(next),
                None => LinkDir::Eject,
            };
            let start = self.routers[tile.index()].reserve(t, occupancy, self.prune_before);
            let wait = start - t;
            self.stats.router_wait += wait;
            self.stats.router_busy += occupancy;
            self.stats.router_wait_by_tile[tile.index()] += wait;
            self.stats.router_busy_by_tile[tile.index()] += occupancy;
            let link = tile.index() * NUM_LINK_DIRS + dir.index();
            self.stats.link_wait[link] += wait;
            self.stats.link_busy[link] += occupancy;
            if let Some(r) = self.recorder.as_mut() {
                r.record(ObsEvent::Wait {
                    core: issuer,
                    resource: ResourceId::Router(tile.index() as u8),
                    arrival: t,
                    start,
                    end: start + occupancy,
                    link: Some(dir),
                });
            }
            t = start + l_hop;
        }
        t
    }

    /// Occupy the MPB port of `tile` for a read on behalf of `issuer`;
    /// returns the service completion time.
    pub fn port_read(&mut self, issuer: CoreId, t: Time, tile: Tile) -> Time {
        let service = self.params.mpb_port_read;
        self.use_port(issuer, t, tile, service)
    }

    /// Occupy the MPB port of `tile` for a write.
    pub fn port_write(&mut self, issuer: CoreId, t: Time, tile: Tile) -> Time {
        let service = self.params.mpb_port_write;
        self.use_port(issuer, t, tile, service)
    }

    fn use_port(&mut self, issuer: CoreId, t: Time, tile: Tile, service: Time) -> Time {
        let start = self.ports[tile.index()].reserve(t, service, self.prune_before);
        let wait = start - t;
        self.stats.port_wait += wait;
        self.stats.port_busy += service;
        self.stats.port_wait_by_tile[tile.index()] += wait;
        self.stats.port_busy_by_tile[tile.index()] += service;
        if let Some(r) = self.recorder.as_mut() {
            r.record(ObsEvent::Wait {
                core: issuer,
                resource: ResourceId::Port(tile.index() as u8),
                arrival: t,
                start,
                end: start + service,
                link: None,
            });
        }
        start + service
    }

    /// Occupy a memory controller for one line read/write.
    pub fn mc_service(&mut self, issuer: CoreId, t: Time, mc: MemController, write: bool) -> Time {
        let service = if write { self.params.mc_write } else { self.params.mc_read };
        let start = self.mcs[mc.index()].reserve(t, service, self.prune_before);
        let wait = start - t;
        self.stats.mc_wait += wait;
        self.stats.mc_busy += service;
        self.stats.mc_wait_by_ctrl[mc.index()] += wait;
        self.stats.mc_busy_by_ctrl[mc.index()] += service;
        if let Some(r) = self.recorder.as_mut() {
            r.record(ObsEvent::Wait {
                core: issuer,
                resource: ResourceId::Mc(mc.index() as u8),
                arrival: t,
                start,
                end: start + service,
                link: None,
            });
        }
        start + service
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
        // Pruning drops expired slots.
        assert_eq!(cal.len(), 4);
        let _ = cal.reserve(ns(2000), ns(1), ns(1500));
        assert_eq!(cal.len(), 1);
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
        assert_eq!(c.stats.router_wait, Time::ZERO);
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
        assert_eq!(c.stats.router_wait, c.params.router_occupancy);
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
        assert_eq!(c.stats.port_wait, s);
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
