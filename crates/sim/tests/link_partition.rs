//! Per-link mesh accounting must *partition* the per-tile router
//! aggregates: every picosecond of router wait and busy time charged to
//! tile `t` is charged to exactly one of its five directed output links
//! (E/W/N/S/Eject), so the per-link sums reconstruct the per-tile
//! vectors exactly — not approximately. A contended 48-core OC-Bcast is
//! the stress case: every router and every link class (through-traffic
//! and ejection) is exercised. The same run, recorded, folds into the
//! same link heatmap as its counters do.

use oc_bcast::{Algorithm, Broadcaster};
use scc_hal::{CoreId, LinkDir, MemRange, Rma, RmaResult, Tile, Time, NUM_LINK_DIRS};
use scc_obs::{LinkHeatmap, ObsEvent};
use scc_rcce::{Barrier, MpbAllocator};
use scc_sim::{run_spmd, SimConfig, SimStats};

/// One contended 48-core broadcast (two rounds, barrier-separated),
/// recorded.
fn contended_bcast(alg: Algorithm, bytes: usize) -> (SimStats, Vec<ObsEvent>) {
    let cfg = SimConfig { num_cores: 48, mem_bytes: 1 << 20, record: true, ..SimConfig::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        let mut alloc = MpbAllocator::new();
        let mut bar = Barrier::new(&mut alloc, c.num_cores()).expect("barrier lines");
        let mut b = Broadcaster::new(&mut alloc, alg, c.num_cores()).expect("bcast lines");
        let r = MemRange::new(0, bytes);
        if c.core() == CoreId(0) {
            let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
            c.mem_write(0, &payload)?;
        }
        for _ in 0..2 {
            bar.wait(c)?;
            b.bcast(c, CoreId(0), r)?;
        }
        Ok(())
    })
    .expect("broadcast must complete");
    for r in rep.results {
        r.expect("no core may fail");
    }
    (rep.stats, rep.events.expect("recorded"))
}

fn assert_partition(stats: &SimStats) {
    assert_eq!(stats.link_wait.len(), 24 * NUM_LINK_DIRS);
    assert_eq!(stats.link_busy.len(), 24 * NUM_LINK_DIRS);
    for tile in 0..24 {
        let base = tile * NUM_LINK_DIRS;
        let wait_sum: Time =
            (0..NUM_LINK_DIRS).fold(Time::ZERO, |acc, d| acc + stats.link_wait[base + d]);
        let busy_sum: Time =
            (0..NUM_LINK_DIRS).fold(Time::ZERO, |acc, d| acc + stats.link_busy[base + d]);
        assert_eq!(
            wait_sum, stats.router_wait_by_tile[tile],
            "link waits do not partition tile {tile}'s router wait"
        );
        assert_eq!(
            busy_sum, stats.router_busy_by_tile[tile],
            "link busy does not partition tile {tile}'s router busy"
        );
    }
    // And the grand totals close the loop against the global counters.
    let total_wait: Time = stats.link_wait.iter().copied().fold(Time::ZERO, |a, b| a + b);
    let total_busy: Time = stats.link_busy.iter().copied().fold(Time::ZERO, |a, b| a + b);
    assert_eq!(total_wait, stats.router_wait);
    assert_eq!(total_busy, stats.router_busy);
}

#[test]
fn links_partition_router_aggregates_under_contended_oc_bcast() {
    // 16 KB from core 0: saturates source MPB ports and drives
    // through-traffic on interior routers (k=47 is the all-at-once
    // flat tree — worst-case port and mesh contention).
    for alg in [Algorithm::oc_default(), Algorithm::oc_with_k(47)] {
        let (stats, events) = contended_bcast(alg, 16 << 10);
        assert!(stats.router_wait > Time::ZERO, "workload must actually contend");
        assert_partition(&stats);
        assert_eq!(
            LinkHeatmap::from_events(&events),
            LinkHeatmap::from_slices(&stats.link_busy, &stats.link_wait),
            "the recorded stream and the counters disagree on a link"
        );
    }
}

#[test]
fn eject_link_carries_all_destination_traffic() {
    // Every route ends in an ejection at the destination tile, so the
    // Eject share of total busy time must be positive everywhere
    // traffic terminated, and a route of length 1 (same tile) is pure
    // ejection: tile-local traffic can never appear on a mesh link.
    let (stats, _) = contended_bcast(Algorithm::oc_default(), 4 << 10);
    let eject_total: Time = (0..24)
        .map(|t| stats.link_busy[t * NUM_LINK_DIRS + LinkDir::Eject.index()])
        .fold(Time::ZERO, |a, b| a + b);
    assert!(eject_total > Time::ZERO);

    // Boundary sanity: no westward traffic out of column 0, no
    // eastward traffic out of column 5 (X-Y routing cannot wrap).
    for y in 0..4u8 {
        let west_edge = Tile::new(0, y).index();
        let east_edge = Tile::new(5, y).index();
        assert_eq!(
            stats.link_busy[west_edge * NUM_LINK_DIRS + LinkDir::West.index()],
            Time::ZERO,
            "tile (0,{y}) cannot send West"
        );
        assert_eq!(
            stats.link_busy[east_edge * NUM_LINK_DIRS + LinkDir::East.index()],
            Time::ZERO,
            "tile (5,{y}) cannot send East"
        );
    }
}
