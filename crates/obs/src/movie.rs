//! Mesh congestion timeline: the link heatmap, sliced over time.
//!
//! A [`LinkHeatmap`](crate::heatmap::LinkHeatmap) integrates router
//! occupancy over a whole run; this module cuts the run into equal
//! frames and renders one 6×4 grid per frame, so a transient hot spot
//! (OC-Bcast's root-column burst, a ring round marching around the
//! mesh) is visible as motion rather than averaged away. Cells share
//! the heatmap's digit rounding through [`crate::grid`], but are
//! normalized to the *global* maximum across all frames, so a digit
//! means the same busy fraction in every frame.

use crate::event::{ObsEvent, ResourceId};
use crate::grid;
use crate::heatmap::NUM_TILES;
use scc_hal::{Time, NUM_LINK_DIRS};
use std::fmt::Write as _;

/// Time-sliced per-link busy occupancy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CongestionMovie {
    /// Per frame: service time per directed link
    /// (`tile * NUM_LINK_DIRS + dir`).
    frames: Vec<Vec<Time>>,
    /// Frame boundaries in ps (`frames.len() + 1` entries, exact
    /// integer partition of `[0, horizon]`).
    bounds: Vec<u64>,
}

impl CongestionMovie {
    /// Slice the router-link service intervals of a recorded stream
    /// into `frames` equal windows over `[0, horizon]`, where the
    /// horizon is the latest event instant.
    pub fn from_events(events: &[ObsEvent], frames: usize) -> CongestionMovie {
        assert!(frames >= 1);
        let horizon = events.iter().map(|e| e.at().as_ps()).max().unwrap_or(0);
        let bounds: Vec<u64> = (0..=frames as u64).map(|f| horizon * f / frames as u64).collect();
        let mut out = vec![vec![Time::ZERO; NUM_TILES * NUM_LINK_DIRS]; frames];
        for ev in events {
            if let ObsEvent::Wait {
                resource: ResourceId::Router(tile),
                start,
                end,
                link: Some(dir),
                ..
            } = *ev
            {
                let slot = tile as usize * NUM_LINK_DIRS + dir.index();
                let (s, e) = (start.as_ps(), end.as_ps());
                for f in 0..frames {
                    let (a, b) = (bounds[f], bounds[f + 1]);
                    let lo = s.max(a);
                    let hi = e.min(b);
                    if lo < hi {
                        out[f][slot] += Time::from_ps(hi - lo);
                    }
                }
            }
        }
        CongestionMovie { frames: out, bounds }
    }

    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The global maximum cell across every frame (the `9` reference).
    pub fn global_max(&self) -> Time {
        self.frames.iter().flatten().copied().max().unwrap_or(Time::ZERO)
    }

    /// Render all frames as stacked ASCII grids (`results/movie_*.txt`).
    pub fn render(&self, title: &str) -> String {
        let max = self.global_max();
        let mut out = String::new();
        let _ = writeln!(out, "link congestion movie: {title}");
        let _ = writeln!(
            out,
            "cell = tile(x,y) E W N S eject  (busy 0-9 vs global max, '-' = idle, '+' = max)"
        );
        for (f, frame) in self.frames.iter().enumerate() {
            let _ = writeln!(
                out,
                "frame {}/{}  [{:.3} .. {:.3}] us",
                f + 1,
                self.frames.len(),
                Time::from_ps(self.bounds[f]).as_us_f64(),
                Time::from_ps(self.bounds[f + 1]).as_us_f64(),
            );
            out.push_str(&grid::render_mesh(|t, dir| {
                grid::occupancy_digit(frame[t * NUM_LINK_DIRS + dir.index()], max)
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::LinkHeatmap;
    use scc_hal::{CoreId, LinkDir};

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    fn router_wait(tile: u8, dir: LinkDir, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Wait {
            core: CoreId(0),
            resource: ResourceId::Router(tile),
            arrival: ps(start),
            start: ps(start),
            end: ps(end),
            link: Some(dir),
        }
    }

    #[test]
    fn frames_partition_service_time_exactly() {
        let events = vec![
            router_wait(0, LinkDir::East, 0, 1000),
            router_wait(5, LinkDir::Eject, 250, 750),
            ObsEvent::Finish { core: CoreId(0), at: ps(1000) },
        ];
        let movie = CongestionMovie::from_events(&events, 4);
        assert_eq!(movie.num_frames(), 4);
        let frame_busy =
            |f: usize, t: usize, dir: LinkDir| movie.frames[f][t * NUM_LINK_DIRS + dir.index()];
        // The spanning interval contributes 250 ps to every frame.
        for f in 0..4 {
            assert_eq!(frame_busy(f, 0, LinkDir::East), ps(250));
        }
        // The centered interval straddles frames 1 and 2 exactly.
        assert_eq!(frame_busy(0, 5, LinkDir::Eject), Time::ZERO);
        assert_eq!(frame_busy(1, 5, LinkDir::Eject), ps(250));
        assert_eq!(frame_busy(2, 5, LinkDir::Eject), ps(250));
        assert_eq!(frame_busy(3, 5, LinkDir::Eject), Time::ZERO);
        // Per-link totals equal the whole-run heatmap (exact partition).
        let hm = LinkHeatmap::from_events(&events);
        for t in 0..NUM_TILES {
            for dir in LinkDir::ALL {
                let total: Time = (0..4).map(|f| frame_busy(f, t, dir)).sum();
                assert_eq!(total, hm.busy(t, dir), "tile {t} {dir:?}");
            }
        }
    }

    #[test]
    fn render_uses_global_normalization() {
        let events = vec![
            router_wait(0, LinkDir::East, 0, 500), // all in frame 0
            router_wait(1, LinkDir::East, 500, 550),
            ObsEvent::Finish { core: CoreId(0), at: ps(1000) },
        ];
        let movie = CongestionMovie::from_events(&events, 2);
        assert_eq!(movie.global_max(), ps(500));
        let art = movie.render("test");
        assert!(art.contains("link congestion movie: test"), "{art}");
        assert!(art.contains("frame 1/2"), "{art}");
        assert!(art.contains("frame 2/2"), "{art}");
        // Frame 0's hot link saturates to '+'; frame 1's faint link
        // renders as 1 (normalized to the global max, not its own
        // frame). Only cell rows count — the grid borders are drawn
        // with '+' too.
        let frames: Vec<&str> = art.split("frame ").collect();
        let cells =
            |s: &str| s.lines().filter(|l| l.starts_with("| ")).collect::<Vec<_>>().join("\n");
        assert!(cells(frames[1]).contains('+'), "{art}");
        assert!(cells(frames[2]).contains('1') && !cells(frames[2]).contains('+'), "{art}");
    }

    #[test]
    fn empty_stream_renders_idle_frames() {
        let movie = CongestionMovie::from_events(&[], 3);
        assert_eq!(movie.global_max(), Time::ZERO);
        let art = movie.render("empty");
        // Every grid cell row is fully idle (header lines excluded).
        for line in art.lines().filter(|l| l.starts_with("| ")) {
            assert!(!line.contains(|c: char| c.is_ascii_digit()), "{art}");
        }
        assert!(art.contains("frame 3/3"), "{art}");
    }
}
