//! Per-link mesh occupancy heatmaps: one contended 48-core broadcast
//! per collective, rendered as the 6×4 tile grid with the five
//! directed-output-link counters (E/W/N/S/eject) of every router —
//! the instrument behind the paper's Section 5 X-Y-routing contention
//! argument. The per-link counters must *partition* the per-tile
//! router aggregates exactly, and that invariant is re-checked here on
//! every run.

use super::{outln, Point, Sweep};
use crate::{Run, Scenario};
use oc_bcast::Algorithm;
use scc_hal::{LinkDir, Tile, Time, NUM_LINK_DIRS};
use scc_obs::heatmap::NUM_TILES;
use scc_obs::LinkHeatmap;
use scc_sim::SimStats;

/// One labelled collective: one contended broadcast, one unit.
struct Collective(&'static str, Algorithm);

impl Point for Collective {
    fn key(&self) -> String {
        format!("bcast {}", self.0)
    }
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
    let lines = if quick { 128 } else { 512 };
    let bytes = lines * 32;
    let collectives = vec![
        Collective("OC-Bcast k=2", Algorithm::oc_with_k(2)),
        Collective("OC-Bcast k=7", Algorithm::oc_with_k(7)),
        Collective("OC-Bcast k=47", Algorithm::oc_with_k(47)),
        Collective("binomial", Algorithm::Binomial),
    ];
    Sweep::points(
        collectives,
        // Two barrier-separated rounds on the full chip.
        move |c| {
            let run = Run { aligned: true, epochs: 0..2, ..Run::default() };
            Scenario::new(c.1, 48, lines).run(&run).map(|out| out.stats)
        },
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
