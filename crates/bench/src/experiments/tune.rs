//! Configuration-space sweep: OC-Bcast latency/throughput over the
//! (k × chunk size × notification fan-out × tree strategy) grid on the
//! simulated chip, reporting the best configuration per objective.
//!
//! Registry port of the former standalone `tune` binary: each
//! admissible `(k, M_oc)` cell is one schedulable unit measuring all
//! four (fan-out × strategy) variants; finalize walks the cells in
//! declaration order, so the text — and the committed
//! `results/tune.txt` — keeps the original nested-loop order.

use super::{outln, Point, Sweep};
use crate::measure_bcast;
use oc_bcast::{Algorithm, OcConfig, TreeStrategy};
use scc_sim::SimError;

/// The (fan-out × strategy) variants of one cell, nested-loop order.
const VARIANTS: [(usize, TreeStrategy); 4] = [
    (2, TreeStrategy::ById),
    (2, TreeStrategy::TopologyAware),
    (3, TreeStrategy::ById),
    (3, TreeStrategy::TopologyAware),
];

/// One admissible `(k, M_oc)` cell; `large` is the throughput run's
/// message size in cache lines.
struct Cell {
    k: usize,
    chunk_lines: usize,
    large: usize,
}

impl Point for Cell {
    fn key(&self) -> String {
        format!("tune k={} M_oc={}", self.k, self.chunk_lines)
    }
    // The large-message throughput run dominates; weight by the fan-out
    // depth so k=2's deep trees start early.
    fn cost(&self) -> u64 {
        48 / self.k as u64 + 1
    }
}

/// Measure one cell: `(latency_us, throughput_mb_s)` per variant.
fn measure_cell(&Cell { k, chunk_lines, large }: &Cell) -> Result<Vec<(f64, f64)>, SimError> {
    let mut out = Vec::with_capacity(VARIANTS.len());
    for (notify_fanout, strategy) in VARIANTS {
        let oc = OcConfig { k, chunk_lines, notify_fanout, strategy, ..OcConfig::default() };
        let lat = measure_bcast(Algorithm::OcBcast(oc), 1, 1, 2)?.latency_us;
        let tput = measure_bcast(Algorithm::OcBcast(oc), large, 0, 1)?;
        out.push((lat, tput.throughput_mb_s));
    }
    Ok(out)
}

pub(super) fn plan(quick: bool) -> Sweep {
    let (ks, chunks): (&[usize], &[usize]) =
        if quick { (&[2, 7], &[96]) } else { (&[2, 4, 7, 12, 24, 47], &[48, 96, 120]) };
    let large = if quick { 96 * 8 } else { 96 * 24 };
    let cells = ks
        .iter()
        .flat_map(|&k| chunks.iter().map(move |&chunk_lines| Cell { k, chunk_lines, large }))
        // k + 1 flags + two buffers + the measurement harness's 6
        // barrier lines must fit the MPB.
        .filter(|c| 1 + c.k + 2 * c.chunk_lines + 6 <= 256);
    Sweep::points(cells.collect(), measure_cell, |ctx, pairs| {
        let mut best_lat: (f64, String) = (f64::INFINITY, String::new());
        let mut best_tput: (f64, String) = (0.0, String::new());
        let mut paper_cell = (f64::NAN, f64::NAN);

        outln!(ctx, "{:<42} {:>10} {:>10}", "configuration", "1CL (µs)", "peak MB/s");
        for (Cell { k, chunk_lines, .. }, variants) in &pairs {
            for (&(notify_fanout, strategy), &(lat, tput)) in VARIANTS.iter().zip(variants) {
                let label =
                    format!("k={k:<2} M_oc={chunk_lines:<3} fanout={notify_fanout} {:?}", strategy);
                outln!(ctx, "{label:<42} {lat:>10.2} {tput:>10.2}");
                if lat < best_lat.0 {
                    best_lat = (lat, label.clone());
                }
                if tput > best_tput.0 {
                    best_tput = (tput, label);
                }
                if (*k, *chunk_lines, notify_fanout, strategy) == (7, 96, 2, TreeStrategy::ById) {
                    paper_cell = (lat, tput);
                }
            }
        }
        outln!(ctx);
        outln!(ctx, "best 1-CL latency : {:.2} µs  ({})", best_lat.0, best_lat.1);
        outln!(ctx, "best throughput   : {:.2} MB/s ({})", best_tput.0, best_tput.1);
        outln!(ctx, "# paper's choice — k=7, M_oc=96, binary fan-out, id tree — trades a few");
        outln!(ctx, "# percent of each objective for contention headroom (Sections 3.3/5.2).");

        ctx.row("best 1CL latency", None, None, best_lat.0, 0.02, "us");
        ctx.row("best throughput", None, None, best_tput.0, 0.02, "MB/s");
        // A grid without the paper's cell leaves these NaN, which fails
        // the claim below.
        let (paper_lat, paper_tput) = paper_cell;
        ctx.row("paper config 1CL latency", None, None, paper_lat, 0.02, "us");
        ctx.row("paper config throughput", None, None, paper_tput, 0.02, "MB/s");
        ctx.shape(
            "the paper's k=7/M_oc=96 choice stays within 15% of both optima",
            paper_lat <= best_lat.0 * 1.15 && paper_tput >= best_tput.0 * 0.85,
            format!(
                "paper {paper_lat:.2} us / {paper_tput:.2} MB/s vs best {:.2} us / {:.2} MB/s",
                best_lat.0, best_tput.0
            ),
        );
        ctx.shape(
            "both objectives found a finite optimum",
            best_lat.0.is_finite() && best_tput.0 > 0.0,
            format!("lat {} | tput {}", best_lat.1, best_tput.1),
        );
    })
}
