//! Per-link mesh occupancy heatmaps.
//!
//! The simulator attributes every router booking to the *directed
//! output link* the packet leaves the router on (E/W/N/S, or the
//! ejection port at the destination tile), so the 24×5 link counters
//! are an exact partition of the per-tile router aggregates — per-link
//! sums reconstruct the per-tile busy/wait vectors picosecond for
//! picosecond (guarded by `link_partition.rs` in `scc-sim`).
//!
//! A [`LinkHeatmap`] can be built two ways:
//!
//! * [`LinkHeatmap::from_slices`] — from the `link_busy`/`link_wait`
//!   vectors of a `SimStats` (the cheap path; works with recording off);
//! * [`LinkHeatmap::from_events`] — by folding a recorded [`ObsEvent`]
//!   stream, summing the service and queueing time of every router
//!   `Wait` that carries a [`LinkDir`]. On the same run both
//!   constructions agree exactly (`link_partition.rs` in `scc-sim`
//!   asserts it on a recorded contended broadcast).
//!
//! The renderer is an ASCII 6×4 mesh: one cell per tile, one digit of
//! busy-occupancy per directed link, normalized to the hottest link.

use crate::event::{ObsEvent, ResourceId};
use scc_hal::{LinkDir, Tile, Time, NUM_LINK_DIRS, TILE_COLS, TILE_ROWS};
use std::fmt::Write as _;

pub const NUM_TILES: usize = (TILE_COLS as usize) * (TILE_ROWS as usize);

/// Directed-link occupancy of the 6×4 mesh for one collective/run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkHeatmap {
    /// Service time per directed link, `tile * NUM_LINK_DIRS + dir`.
    busy: Vec<Time>,
    /// Queueing wait per directed link, same layout.
    wait: Vec<Time>,
}

impl LinkHeatmap {
    /// Build from the simulator's per-link accounting vectors
    /// (`SimStats::link_busy` / `SimStats::link_wait`).
    pub fn from_slices(link_busy: &[Time], link_wait: &[Time]) -> LinkHeatmap {
        assert_eq!(link_busy.len(), NUM_TILES * NUM_LINK_DIRS, "expected 24x5 busy vector");
        assert_eq!(link_wait.len(), NUM_TILES * NUM_LINK_DIRS, "expected 24x5 wait vector");
        LinkHeatmap { busy: link_busy.to_vec(), wait: link_wait.to_vec() }
    }

    /// Rebuild the same map from a recorded event stream: every router
    /// `Wait` carrying a link direction contributes its service time
    /// (`end - start`) to busy and its queueing time (`start -
    /// arrival`) to wait.
    pub fn from_events(events: &[ObsEvent]) -> LinkHeatmap {
        let mut busy = vec![Time::ZERO; NUM_TILES * NUM_LINK_DIRS];
        let mut wait = vec![Time::ZERO; NUM_TILES * NUM_LINK_DIRS];
        for ev in events {
            if let ObsEvent::Wait {
                resource: ResourceId::Router(tile),
                arrival,
                start,
                end,
                link: Some(dir),
                ..
            } = *ev
            {
                let slot = tile as usize * NUM_LINK_DIRS + dir.index();
                busy[slot] += end.saturating_sub(start);
                wait[slot] += start.saturating_sub(arrival);
            }
        }
        LinkHeatmap { busy, wait }
    }

    pub fn busy(&self, tile: usize, dir: LinkDir) -> Time {
        self.busy[tile * NUM_LINK_DIRS + dir.index()]
    }

    /// The hottest directed link by service time.
    pub fn peak(&self) -> (Tile, LinkDir, Time) {
        // Both constructors size `busy` to one slot per directed link
        // of the mesh (24 x 5), so it is never empty.
        let (slot, &t) =
            self.busy.iter().enumerate().max_by_key(|(_, t)| **t).expect("non-empty map");
        (Tile::from_index((slot / NUM_LINK_DIRS) as u8), LinkDir::ALL[slot % NUM_LINK_DIRS], t)
    }

    /// ASCII rendering of the mesh: one cell per tile (row y=3 on top,
    /// matching the paper's chip diagrams), each showing the busy
    /// occupancy of its five output links as a single digit 0–9
    /// normalized to the hottest link ('-' for exactly zero, '+' for
    /// the saturated maximum). Layout and digit rounding live in
    /// [`crate::grid`], shared with the congestion movie.
    pub fn render_ascii(&self, title: &str) -> String {
        let max = self.busy.iter().copied().max().unwrap_or(Time::ZERO);
        let mut out = String::new();
        let _ = writeln!(out, "link occupancy: {title}");
        let _ = writeln!(out, "cell = tile(x,y) E W N S eject  (busy 0-9, '-' = idle, '+' = max)");
        out.push_str(&crate::grid::render_mesh(|t, dir| {
            crate::grid::occupancy_digit(self.busy(t, dir), max)
        }));
        let (pt, pd, pb) = self.peak();
        let _ = writeln!(out, "peak link: tile {pt} dir {pd} busy {:.3}us", pb.as_us_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::CoreId;

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    fn router_wait(tile: u8, dir: LinkDir, arrival: u64, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Wait {
            core: CoreId(0),
            resource: ResourceId::Router(tile),
            arrival: ns(arrival),
            start: ns(start),
            end: ns(end),
            link: Some(dir),
        }
    }

    #[test]
    fn events_and_slices_agree() {
        let events = vec![
            router_wait(0, LinkDir::East, 0, 10, 30),
            router_wait(0, LinkDir::East, 5, 30, 50),
            router_wait(1, LinkDir::Eject, 50, 50, 70),
            // Port waits never carry a link and must be ignored.
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Port(0),
                arrival: ns(0),
                start: ns(1),
                end: ns(2),
                link: None,
            },
        ];
        let hm = LinkHeatmap::from_events(&events);
        assert_eq!(hm.busy(0, LinkDir::East), ns(40));
        assert_eq!(hm.busy(1, LinkDir::Eject), ns(20));
        assert_eq!(hm.busy(0, LinkDir::West), Time::ZERO);

        let mut busy = vec![Time::ZERO; NUM_TILES * NUM_LINK_DIRS];
        let mut wait = vec![Time::ZERO; NUM_TILES * NUM_LINK_DIRS];
        busy[LinkDir::East.index()] = ns(40);
        wait[LinkDir::East.index()] = ns(35);
        busy[NUM_LINK_DIRS + LinkDir::Eject.index()] = ns(20);
        assert_eq!(hm, LinkHeatmap::from_slices(&busy, &wait));
    }

    #[test]
    fn ascii_render_marks_hot_and_idle_links() {
        let hm = LinkHeatmap::from_events(&[
            router_wait(0, LinkDir::East, 0, 0, 90),
            router_wait(7, LinkDir::Eject, 0, 0, 10),
        ]);
        let art = hm.render_ascii("test");
        assert!(art.contains("link occupancy: test"));
        // Hottest link saturates to '+'; the cold tile row is all '-'.
        assert!(art.contains("+----"), "{art}");
        assert!(art.contains("-----"), "{art}");
        assert!(art.contains("peak link: tile (0,0) dir E"), "{art}");
        // 4 tile rows * 2 lines + header(2) + floor + peak line.
        assert_eq!(art.lines().count(), 12, "{art}");
    }
}
