//! Figure 4: MPB contention — (a) average and per-core spread of the
//! completion time of concurrent 128-cache-line gets from core 0's
//! MPB, (b) the same for concurrent 1-cache-line puts, as the number
//! of concurrent accessors grows.

use super::{outln, Point, Sweep};
use crate::paper_chip;
use scc_model::ClosedQueue;
use scc_sim::{measure_contention, SimError};

fn counts(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 8, 24, 47]
    } else {
        &[1, 2, 4, 6, 8, 12, 16, 24, 32, 40, 47]
    }
}

/// `(title, lines, puts, reps, tag)` per panel.
type Panel = (&'static str, usize, bool, u32, &'static str);

const PANELS: [Panel; 2] = [
    ("Concurrent MPB get completion time (128 cache lines)", 128, false, 2, "get128"),
    ("Concurrent MPB put completion time (1 cache line)", 1, true, 50, "put1"),
];

/// One panel at one accessor count: the simulator measurement reduced
/// to (avg, min, max). The queueing-model overlay is pure arithmetic and
/// stays in finalize.
struct Load {
    panel: Panel,
    n: usize,
}

impl Point for Load {
    fn key(&self) -> String {
        format!("{} n={}", self.panel.4, self.n)
    }
    fn cost(&self) -> u64 {
        (self.panel.1 * self.n) as u64
    }
}

fn measure(&Load { panel: (_, lines, puts, reps, _), n }: &Load) -> Result<[f64; 3], SimError> {
    let v = measure_contention(&paper_chip(), n, lines, puts, reps)?;
    let us: Vec<f64> = v.iter().map(|t| t.as_us_f64()).collect();
    let avg = us.iter().sum::<f64>() / us.len() as f64;
    let min = us.iter().copied().fold(f64::INFINITY, f64::min);
    let max = us.iter().copied().fold(0.0f64, f64::max);
    Ok([avg, min, max])
}

pub(super) fn plan(quick: bool) -> Sweep {
    let loads =
        PANELS.iter().flat_map(|&panel| counts(quick).iter().map(move |&n| Load { panel, n }));
    Sweep::points(loads.collect(), measure, |ctx, pairs| {
        // The closed-queueing bound model of scc-model (an extension: the
        // paper declares contention hard to model) overlays each panel.
        let get_model = ClosedQueue::get_scenario(128, 9.0, 0.010, 0.126, 0.005);
        let put_model = ClosedQueue {
            think_us: 0.069 + 0.136 + (0.126 + 2.0 * 9.0 * 0.005) - 0.018,
            service_us: 0.018,
        };
        let labels = ["avg_us", "min_us", "max_us", "model_us"].map(String::from);
        for panel in pairs.chunk_by(|a, b| a.0.panel == b.0.panel) {
            let (title, _, _, _, tag) = panel[0].0.panel;
            let model = if tag == "get128" { &get_model } else { &put_model };
            let rows: Vec<(usize, Vec<f64>)> = panel
                .iter()
                .map(|(Load { n, .. }, [avg, min, max])| {
                    (*n, vec![*avg, *min, *max, model.cycle_estimate_us(*n)])
                })
                .collect();
            ctx.series(title, "accessors", &labels, &rows);
            for (n, cols) in &rows {
                ctx.row(format!("{tag} n={n} avg"), None, Some(cols[3]), cols[0], 0.05, "us");
            }

            // Shape checks mirroring Section 3.3's findings; a missing
            // count fails its claim.
            let at = |n: usize| rows.iter().find(|r| r.0 == n).map(|r| r.1[0]);
            let single = at(1).unwrap_or(f64::NAN);
            if let Some(a24) = at(24) {
                ctx.shape(
                    &format!("{tag}: no measurable contention up to 24 accessors"),
                    a24 < single * 1.12,
                    format!("n=1 {single:.3} µs vs n=24 {a24:.3} µs"),
                );
            }
            let a47 = at(47).unwrap_or(f64::NAN);
            ctx.shape(
                &format!("{tag}: visible contention at 47 accessors"),
                a47 > single * 1.3,
                format!("n=1 {single:.3} µs vs n=47 {a47:.3} µs"),
            );
        }
        outln!(ctx, "# knee past 24 accessors, clear contention at 47 — as in Figure 4");
    })
}
