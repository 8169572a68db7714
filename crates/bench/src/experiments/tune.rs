//! Configuration-space sweep: OC-Bcast latency/throughput over the
//! (k × chunk size × notification fan-out × tree strategy) grid on the
//! simulated chip, reporting the best configuration per objective.
//!
//! Registry port of the former standalone `tune` binary: each
//! admissible `(k, M_oc)` cell is one schedulable unit measuring all
//! four (fan-out × strategy) variants; finalize replays the original
//! nested-loop order so the text — and the committed
//! `results/tune.txt` — stays byte-identical.

use super::{outln, Sweep};
use crate::{measure_bcast, paper_chip};
use oc_bcast::{Algorithm, OcConfig, TreeStrategy};
use scc_hal::CoreId;

const FANOUTS: [usize; 2] = [2, 3];
const STRATEGIES: [TreeStrategy; 2] = [TreeStrategy::ById, TreeStrategy::TopologyAware];

fn ks(quick: bool) -> &'static [usize] {
    if quick {
        &[2, 7]
    } else {
        &[2, 4, 7, 12, 24, 47]
    }
}

fn chunks(quick: bool) -> &'static [usize] {
    if quick {
        &[96]
    } else {
        &[48, 96, 120]
    }
}

/// k + 1 flags + two buffers + the measurement harness's 6 barrier
/// lines must fit the MPB.
fn fits(k: usize, chunk_lines: usize) -> bool {
    1 + k + 2 * chunk_lines + 6 <= 256
}

/// Measure one `(k, M_oc)` cell: `(latency_us, throughput_mb_s)` per
/// (fan-out × strategy) variant, nested-loop order.
fn measure_cell(quick: bool, k: usize, chunk_lines: usize) -> Vec<(f64, f64)> {
    let cfg = paper_chip();
    let small = 32; // 1 CL
    let large = if quick { 96 * 32 * 8 } else { 96 * 32 * 24 };
    let mut out = Vec::with_capacity(FANOUTS.len() * STRATEGIES.len());
    for &notify_fanout in &FANOUTS {
        for &strategy in &STRATEGIES {
            let oc = OcConfig { k, chunk_lines, notify_fanout, strategy, ..OcConfig::default() };
            let lat = measure_bcast(&cfg, Algorithm::OcBcast(oc), CoreId(0), small, 1, 2)
                .expect("sim")
                .latency_us;
            let tput = measure_bcast(&cfg, Algorithm::OcBcast(oc), CoreId(0), large, 0, 1)
                .expect("sim")
                .throughput_mb_s;
            out.push((lat, tput));
        }
    }
    out
}

pub(super) fn plan(sweep: &mut Sweep) {
    let quick = sweep.quick;
    for &k in ks(quick) {
        for &chunk_lines in chunks(quick) {
            if !fits(k, chunk_lines) {
                continue;
            }
            // The large-message throughput run dominates; weight by the
            // fan-out depth so k=2's deep trees start early.
            sweep.value_unit_w(
                format!("tune k={k} M_oc={chunk_lines}"),
                48 / k as u64 + 1,
                move |_| measure_cell(quick, k, chunk_lines),
            );
        }
    }

    sweep.finalize(|ctx, mut values| {
        let mut best_lat: (f64, String) = (f64::INFINITY, String::new());
        let mut best_tput: (f64, String) = (0.0, String::new());
        let mut paper_cell: Option<(f64, f64)> = None;

        outln!(ctx, "{:<42} {:>10} {:>10}", "configuration", "1CL (µs)", "peak MB/s");
        for &k in ks(ctx.quick) {
            for &chunk_lines in chunks(ctx.quick) {
                if !fits(k, chunk_lines) {
                    continue;
                }
                let cell = values.next_as::<Vec<(f64, f64)>>();
                let mut variants = cell.into_iter();
                for &notify_fanout in &FANOUTS {
                    for &strategy in &STRATEGIES {
                        let (lat, tput) = variants.next().expect("4 variants per cell");
                        let label = format!(
                            "k={k:<2} M_oc={chunk_lines:<3} fanout={notify_fanout} {:?}",
                            strategy
                        );
                        outln!(ctx, "{label:<42} {lat:>10.2} {tput:>10.2}");
                        if lat < best_lat.0 {
                            best_lat = (lat, label.clone());
                        }
                        if tput > best_tput.0 {
                            best_tput = (tput, label);
                        }
                        if k == 7
                            && chunk_lines == 96
                            && notify_fanout == 2
                            && strategy == TreeStrategy::ById
                        {
                            paper_cell = Some((lat, tput));
                        }
                    }
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
        let (paper_lat, paper_tput) = paper_cell.expect("grid covers the paper's k=7 M_oc=96");
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
    });
}
