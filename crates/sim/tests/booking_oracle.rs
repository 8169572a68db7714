//! `ops::simulate_line` against the per-hop composition it replaced.
//!
//! A line books its cached path of stages in one loop over one calendar
//! table and one counter table. The reference below is a test-local
//! copy of the booking code from before that loop: a router calendar
//! per tile, a port calendar per tile, a calendar per memory
//! controller, the counters kept directly as `SimStats` vectors and
//! folded on reading, and each leg booked as the core's overhead, a
//! walk of the X-Y route (each router charged to its output link), the
//! port's or controller's service, and the walk back. Over random
//! sequences of every op kind from random issuers at nondecreasing
//! times — peers kept, alternated and changed, so cached paths are hit,
//! evicted and rebuilt — both must agree after every line on its
//! completion and on every counter, and in the end on every recorded
//! booking.

use proptest::prelude::*;
use scc_hal::{
    CoreId, FlagValue, LinkDir, MemController, MemRange, MpbAddr, Tile, Time, NUM_LINK_DIRS,
};
use scc_obs::{CostClass, EventLog, ObsEvent, ResourceId};
use scc_sim::chip::{Calendar, Chip};
use scc_sim::ops::{simulate_line, Op};
use scc_sim::{SimParams, SimStats};

/// The per-hop chip: separate calendars per resource kind, counters
/// accumulated at the finest grain, every booking recorded.
struct Hops {
    p: SimParams,
    routers: Vec<Calendar>,
    ports: Vec<Calendar>,
    mcs: Vec<Calendar>,
    prune_before: Time,
    stats: SimStats,
    waits: Vec<ObsEvent>,
}

impl Hops {
    fn new(p: SimParams) -> Hops {
        let zeros = |n: usize| vec![Time::ZERO; n];
        Hops {
            p,
            routers: vec![Calendar::default(); 24],
            ports: vec![Calendar::default(); 24],
            mcs: vec![Calendar::default(); 4],
            prune_before: Time::ZERO,
            stats: SimStats {
                port_wait_by_tile: zeros(24),
                port_busy_by_tile: zeros(24),
                router_wait_by_tile: zeros(24),
                router_busy_by_tile: zeros(24),
                mc_wait_by_ctrl: zeros(4),
                mc_busy_by_ctrl: zeros(4),
                link_wait: zeros(24 * NUM_LINK_DIRS),
                link_busy: zeros(24 * NUM_LINK_DIRS),
                ..SimStats::default()
            },
            waits: Vec::new(),
        }
    }

    /// The coarser views folded from the per-link, per-port and
    /// per-controller counters.
    fn stats(&self) -> SimStats {
        let sum = |v: &[Time]| v.iter().copied().sum::<Time>();
        let mut s = self.stats.clone();
        for (tile, links) in s.link_wait.chunks_exact(NUM_LINK_DIRS).enumerate() {
            s.router_wait_by_tile[tile] = sum(links);
        }
        for (tile, links) in s.link_busy.chunks_exact(NUM_LINK_DIRS).enumerate() {
            s.router_busy_by_tile[tile] = sum(links);
        }
        s.router_wait = sum(&s.router_wait_by_tile);
        s.router_busy = sum(&s.router_busy_by_tile);
        s.port_wait = sum(&s.port_wait_by_tile);
        s.port_busy = sum(&s.port_busy_by_tile);
        s.mc_wait = sum(&s.mc_wait_by_ctrl);
        s.mc_busy = sum(&s.mc_busy_by_ctrl);
        s
    }

    /// Walk the X-Y route `from -> to` starting at `t`; returns the
    /// arrival at the last router.
    fn traverse(&mut self, issuer: CoreId, t: Time, from: Tile, to: Tile) -> Time {
        let (occupancy, mut t) = (self.p.router_occupancy, t);
        let mut route = from.xy_route(to).peekable();
        while let Some(tile) = route.next() {
            let dir = route.peek().map_or(LinkDir::Eject, |&next| tile.dir_to(next));
            let link = tile.index() * NUM_LINK_DIRS + dir.index();
            let start = self.routers[tile.index()].reserve(t, occupancy, self.prune_before);
            self.stats.link_wait[link] += start - t;
            self.stats.link_busy[link] += occupancy;
            let (resource, end) = (ResourceId::Router(tile.index() as u8), start + occupancy);
            let link = Some(dir);
            self.waits.push(ObsEvent::Wait {
                core: issuer,
                resource,
                arrival: t,
                start,
                end,
                link,
            });
            t = start + self.p.l_hop;
        }
        t
    }

    fn port(&mut self, issuer: CoreId, t: Time, tile: Tile, service: Time) -> Time {
        let start = self.ports[tile.index()].reserve(t, service, self.prune_before);
        self.stats.port_wait_by_tile[tile.index()] += start - t;
        self.stats.port_busy_by_tile[tile.index()] += service;
        let (resource, end) = (ResourceId::Port(tile.index() as u8), start + service);
        self.waits.push(ObsEvent::Wait {
            core: issuer,
            resource,
            arrival: t,
            start,
            end,
            link: None,
        });
        end
    }

    fn mc(&mut self, issuer: CoreId, t: Time, mc: MemController, write: bool) -> Time {
        let service = if write { self.p.mc_write } else { self.p.mc_read };
        let start = self.mcs[mc.index()].reserve(t, service, self.prune_before);
        self.stats.mc_wait_by_ctrl[mc.index()] += start - t;
        self.stats.mc_busy_by_ctrl[mc.index()] += service;
        let (resource, end) = (ResourceId::Mc(mc.index() as u8), start + service);
        self.waits.push(ObsEvent::Wait {
            core: issuer,
            resource,
            arrival: t,
            start,
            end,
            link: None,
        });
        end
    }

    /// One leg of a line: the overhead, the request's route to `at`,
    /// the service there, the response's route back.
    fn leg(
        &mut self,
        issuer: CoreId,
        t: Time,
        o_core: Time,
        at: Tile,
        serve: impl FnOnce(&mut Hops, Time) -> Time,
    ) -> Time {
        let t = self.traverse(issuer, t + o_core, issuer.tile(), at);
        let t = serve(self, t);
        self.traverse(issuer, t, at, issuer.tile())
    }

    fn mpb_read(&mut self, t: Time, issuer: CoreId, owner: CoreId) -> Time {
        let (o_core, at, service) = (self.p.o_core_mpb_read, owner.tile(), self.p.mpb_port_read);
        self.leg(issuer, t, o_core, at, |hops, t| hops.port(issuer, t, at, service))
    }

    fn mpb_write(&mut self, t: Time, issuer: CoreId, owner: CoreId) -> Time {
        let (o_core, at, service) = (self.p.o_core_mpb_write, owner.tile(), self.p.mpb_port_write);
        self.leg(issuer, t, o_core, at, |hops, t| hops.port(issuer, t, at, service))
    }

    fn mem(&mut self, t: Time, issuer: CoreId, write: bool) -> Time {
        let mc = issuer.memory_controller();
        let o_core = if write { self.p.o_core_mem_write } else { self.p.o_core_mem_read };
        self.leg(issuer, t, o_core, mc.attach_tile(), |hops, t| hops.mc(issuer, t, mc, write))
    }

    /// One line of `op`, booked hop by hop.
    fn line(&mut self, issuer: CoreId, op: &Op, t: Time) -> Time {
        match op {
            Op::PutFromMem { dst, cached, .. } => {
                let t = if *cached { t } else { self.mem(t, issuer, false) };
                self.mpb_write(t, issuer, dst.core)
            }
            Op::PutFromMpb { dst, .. } | Op::FlagPut { dst, .. } => {
                let t = self.mpb_read(t, issuer, issuer);
                self.mpb_write(t, issuer, dst.core)
            }
            Op::GetToMem { src, .. } => {
                let t = self.mpb_read(t, issuer, src.core);
                self.mem(t, issuer, true)
            }
            Op::GetToMpb { src, .. } => {
                let t = self.mpb_read(t, issuer, src.core);
                self.mpb_write(t, issuer, issuer)
            }
            Op::ReadLine { .. } => self.mpb_read(t, issuer, issuer),
        }
    }
}

/// The seven line kinds: the six `Op`s, puts from memory both cached
/// and not.
fn op(kind: u8, peer: CoreId) -> Op {
    let (line, range) = (MpbAddr::new(peer, 3), MemRange::new(0, 32));
    match kind {
        0 => Op::PutFromMem { src: range, dst: line, cached: false },
        1 => Op::PutFromMem { src: range, dst: line, cached: true },
        2 => Op::PutFromMpb { src_line: 0, dst: line, lines: 1 },
        3 => Op::GetToMem { src: line, dst: range },
        4 => Op::GetToMpb { src: line, dst_line: 0, lines: 1 },
        5 => Op::FlagPut { dst: line, value: FlagValue(1) },
        _ => Op::ReadLine { line: 3 },
    }
}

fn chip(params: SimParams) -> Chip {
    let mut chip = Chip::new(params, 48, 4096);
    chip.recorder = Some(Box::new(EventLog::new()));
    chip
}

/// Timings with hop latency and router occupancy apart from their
/// defaults, and far from each other.
fn skewed() -> SimParams {
    let p = SimParams::default().scaled(CostClass::RouterHop, 2.6);
    p.scaled(CostClass::LinkBandwidth, 7.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Each step: `(issuer, kind, peer, mode, dt_ns)`. Mode 0 issues a
    /// fresh line; mode 1 repeats the previous line's issuer, kind and
    /// peer; mode 2 keeps its issuer and kind and goes back to the peer
    /// before, so one core alternates between two peers.
    #[test]
    fn cached_paths_book_what_the_hops_book(
        skew in 0u8..2,
        steps in proptest::collection::vec(
            (0u8..48, 0u8..7, 0u8..48, 0u8..3, 0u64..40), 1..300),
    ) {
        let params = if skew == 1 { skewed() } else { SimParams::default() };
        let (mut cached, mut hops) = (chip(params), Hops::new(params));
        let (mut t, mut last, mut before) = (Time::ZERO, (0, 0, 0), 0);
        for (n, &(issuer, kind, peer, mode, dt)) in steps.iter().enumerate() {
            let (issuer, kind, peer) = match mode {
                0 => (issuer, kind, peer),
                1 => last,
                _ => (last.0, last.1, before),
            };
            if peer != last.2 {
                before = last.2;
            }
            last = (issuer, kind, peer);
            t += Time::from_ns(dt);
            cached.set_prune_horizon(t);
            hops.prune_before = t;
            let (issuer, op) = (CoreId(issuer), op(kind, CoreId(peer)));
            let done = simulate_line(&mut cached, issuer, &op, t);
            prop_assert_eq!(done, hops.line(issuer, &op, t), "line {}", n);
            // Only `simulate_line` counts lines; every other counter must
            // match the hop-by-hop chip's exactly.
            let stats = cached.stats();
            prop_assert_eq!(stats.lines_moved, n as u64 + 1);
            prop_assert_eq!(
                scc_sim::SimStats { lines_moved: 0, ..stats },
                hops.stats(),
                "line {}",
                n
            );
        }
        prop_assert_eq!(cached.recorder.as_mut().map(|r| r.drain()), Some(hops.waits));
    }
}
