//! Per-link mesh occupancy heatmaps: one contended 48-core broadcast
//! per collective, rendered as the 6×4 tile grid with the five
//! directed-output-link counters (E/W/N/S/eject) of every router —
//! the instrument behind the paper's Section 5 X-Y-routing contention
//! argument. The per-link counters must *partition* the per-tile
//! router aggregates exactly, and that invariant is re-checked here on
//! every run.

use super::{outln, Point, Sweep};
use crate::{core_results, setup};
use oc_bcast::{Algorithm, Broadcaster};
use scc_hal::{CoreId, LinkDir, MemRange, Rma, RmaResult, Tile, Time, NUM_LINK_DIRS};
use scc_obs::heatmap::NUM_TILES;
use scc_obs::LinkHeatmap;
use scc_rcce::{Barrier, MpbAllocator};
use scc_sim::{run_spmd, SimConfig, SimError, SimStats};

/// One labelled collective: one contended broadcast, one unit.
struct Collective(&'static str, Algorithm);

impl Point for Collective {
    fn key(&self) -> String {
        format!("bcast {}", self.0)
    }
}

/// One contended 48-core broadcast (two rounds, barrier-separated).
fn contended_bcast(alg: Algorithm, bytes: usize) -> Result<SimStats, SimError> {
    let cfg = SimConfig { num_cores: 48, mem_bytes: 1 << 20, ..SimConfig::default() };
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        let mut alloc = MpbAllocator::new();
        let mut bar = setup(Barrier::new(&mut alloc, c.num_cores()))?;
        let mut b = setup(Broadcaster::new(&mut alloc, alg, c.num_cores()))?;
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
    })?;
    core_results(rep.results)?;
    Ok(rep.stats)
}

/// Does the per-link breakdown reconstruct the per-tile aggregates
/// exactly? Returns the first discrepancy, if any.
fn partition_violation(stats: &SimStats) -> Option<String> {
    for tile in 0..NUM_TILES {
        let base = tile * NUM_LINK_DIRS;
        let wait: Time =
            (0..NUM_LINK_DIRS).fold(Time::ZERO, |acc, d| acc + stats.link_wait[base + d]);
        let busy: Time =
            (0..NUM_LINK_DIRS).fold(Time::ZERO, |acc, d| acc + stats.link_busy[base + d]);
        if wait != stats.router_wait_by_tile[tile] || busy != stats.router_busy_by_tile[tile] {
            return Some(format!(
                "tile {tile}: links ({:.3}, {:.3}) µs vs router ({:.3}, {:.3}) µs",
                wait.as_us_f64(),
                busy.as_us_f64(),
                stats.router_wait_by_tile[tile].as_us_f64(),
                stats.router_busy_by_tile[tile].as_us_f64()
            ));
        }
    }
    None
}

pub(super) fn plan(quick: bool) -> Sweep {
    let bytes = if quick { 4 << 10 } else { 16 << 10 };
    let collectives = vec![
        Collective("OC-Bcast k=2", Algorithm::oc_with_k(2)),
        Collective("OC-Bcast k=7", Algorithm::oc_with_k(7)),
        Collective("OC-Bcast k=47", Algorithm::oc_with_k(47)),
        Collective("binomial", Algorithm::Binomial),
    ];
    Sweep::points(
        collectives,
        move |c| contended_bcast(c.1, bytes),
        move |ctx, pairs| {
            outln!(
                ctx,
                "# directed-link occupancy, contended 48-core broadcast ({bytes} B from C0)"
            );
            outln!(ctx);
            for (Collective(label, _), stats) in pairs {
                let hm = LinkHeatmap::from_slices(&stats.link_busy, &stats.link_wait);
                outln!(ctx, "{}", hm.render_ascii(&format!("{label} — busy µs per directed link")));

                let (peak_tile, peak_dir, peak_busy) = hm.peak();
                let total_busy: Time =
                    stats.link_busy.iter().copied().fold(Time::ZERO, |a, b| a + b);
                let eject: Time = (0..NUM_TILES)
                    .map(|t| stats.link_busy[t * NUM_LINK_DIRS + LinkDir::Eject.index()])
                    .fold(Time::ZERO, |a, b| a + b);
                ctx.row(
                    format!("{label} peak link busy"),
                    None,
                    None,
                    peak_busy.as_us_f64(),
                    0.02,
                    "us",
                );
                ctx.row(
                    format!("{label} total link busy"),
                    None,
                    None,
                    total_busy.as_us_f64(),
                    0.02,
                    "us",
                );
                ctx.row(
                    format!("{label} eject share"),
                    None,
                    None,
                    eject.as_us_f64() / total_busy.as_us_f64(),
                    0.02,
                    "frac",
                );

                let violation = partition_violation(&stats);
                ctx.shape(
                    &format!("{label}: per-link counters partition the router aggregates"),
                    violation.is_none(),
                    violation
                        .unwrap_or_else(|| "links sum exactly to per-tile router busy/wait".into()),
                );
                ctx.shape(
                    &format!("{label}: X-Y routing never leaves the mesh boundary"),
                    (0..4u8).all(|y| {
                        stats.link_busy
                            [Tile::new(0, y).index() * NUM_LINK_DIRS + LinkDir::West.index()]
                            == Time::ZERO
                            && stats.link_busy
                                [Tile::new(5, y).index() * NUM_LINK_DIRS + LinkDir::East.index()]
                                == Time::ZERO
                    }),
                    format!(
                        "peak link: tile {peak_tile} {peak_dir:?} at {:.3} µs",
                        peak_busy.as_us_f64()
                    ),
                );
            }
            outln!(
                ctx,
                "# every collective: link counters partition per-tile router busy/wait exactly"
            );
        },
    )
}
