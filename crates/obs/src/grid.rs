//! The one 6×4 mesh-grid renderer.
//!
//! Both the per-run link heatmap ([`crate::heatmap::LinkHeatmap`]) and
//! the time-sliced congestion movie ([`crate::movie`]) draw the same
//! picture: the 24-tile SCC mesh, row `y = 3` on top to match the
//! paper's chip diagrams, one cell per tile showing five per-direction
//! characters in `E W N S eject` order. This module is the single
//! source of truth for that layout *and* for the occupancy-digit
//! rounding, so the two views can never round a cell differently.

use scc_hal::{LinkDir, Tile, Time, TILE_COLS, TILE_ROWS};
use std::fmt::Write as _;

/// One occupancy digit: `'-'` for exactly zero, `'0'` when the
/// normalization maximum is zero (nothing to scale against), `1..=9`
/// for the interior of the scale, and `'+'` at saturation (the cell
/// that *is* the maximum, or anything past it) — previously the
/// double-digit bucket was silently clamped to `'9'`, making the
/// hottest cell indistinguishable from a merely-hot one.
pub fn occupancy_digit(t: Time, max: Time) -> char {
    if t == Time::ZERO {
        '-'
    } else if max == Time::ZERO {
        '0'
    } else {
        let d = 1 + (t.as_ps() as u128 * 9 / max.as_ps() as u128) as u32;
        char::from_digit(d, 10).unwrap_or('+')
    }
}

/// Render the 6×4 tile grid. `cell` supplies the character for one
/// `(tile index, direction)` slot; the output covers the tile rows plus
/// the closing floor line (headers and legends are the caller's).
pub fn render_mesh(mut cell: impl FnMut(usize, LinkDir) -> char) -> String {
    let mut out = String::new();
    for y in (0..TILE_ROWS).rev() {
        let mut row1 = String::new();
        let mut row2 = String::new();
        for x in 0..TILE_COLS {
            let t = Tile::new(x, y).index();
            let _ = write!(row1, "+--({x},{y})--");
            let _ = write!(
                row2,
                "| {}{}{}{}{} ",
                cell(t, LinkDir::East),
                cell(t, LinkDir::West),
                cell(t, LinkDir::North),
                cell(t, LinkDir::South),
                cell(t, LinkDir::Eject),
            );
        }
        let _ = writeln!(out, "{row1}+");
        let _ = writeln!(out, "{row2}|");
    }
    let _ = writeln!(out, "{}+", "+---------".repeat(TILE_COLS as usize));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_rounding() {
        let ns = Time::from_ns;
        assert_eq!(occupancy_digit(Time::ZERO, ns(9)), '-');
        assert_eq!(occupancy_digit(ns(1), Time::ZERO), '0');
        // Saturation is its own glyph, not a clamped '9'.
        assert_eq!(occupancy_digit(ns(9), ns(9)), '+');
        assert_eq!(occupancy_digit(ns(10), ns(9)), '+');
        // Just under the maximum still reads as a digit.
        assert_eq!(occupancy_digit(ns(8), ns(9)), '9');
        // The faintest non-zero signal still shows as at least 1.
        assert_eq!(occupancy_digit(Time::from_ps(1), ns(100)), '1');
        assert_eq!(occupancy_digit(ns(5), ns(9)), '6');
    }

    #[test]
    fn mesh_layout_is_4_rows_of_6_cells() {
        let art = render_mesh(|_, _| 'x');
        // 4 tile rows * 2 lines + the floor.
        assert_eq!(art.lines().count(), 9, "{art}");
        // Row y=3 renders first.
        assert!(art.starts_with("+--(0,3)--"), "{art}");
        assert!(art.lines().nth(1).unwrap().starts_with("| xxxxx "), "{art}");
        assert!(art.ends_with(&format!("{}+\n", "+---------".repeat(6))), "{art}");
    }

    #[test]
    fn cell_callback_sees_every_tile_and_direction_once() {
        let mut seen = std::collections::HashSet::new();
        render_mesh(|t, d| {
            assert!(seen.insert((t, d.index())), "duplicate slot ({t}, {d:?})");
            '.'
        });
        assert_eq!(seen.len(), 24 * 5);
    }
}
