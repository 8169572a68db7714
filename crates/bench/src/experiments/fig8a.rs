//! Figure 8a: *measured* broadcast latency vs message size on the
//! 48-core chip — OC-Bcast (k = 2, 7, 47) against the RCCE_comm
//! binomial tree, sizes up to 2·M_oc = 192 cache lines.

use super::{outln, ExpCtx, Sweep};
use crate::{measure_bcast, paper_algorithms};
use oc_bcast::Algorithm;
use scc_model::Predictor;

fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 32, 96, 192]
    } else {
        vec![1, 8, 16, 32, 48, 64, 80, 96, 97, 112, 128, 144, 160, 176, 192]
    }
}

pub(super) fn plan(quick: bool) -> Sweep {
    // One unit per (algorithm, size) point.
    let sizes = sizes(quick);
    let points = paper_algorithms(Algorithm::Binomial)
        .into_iter()
        .flat_map(|alg| sizes.iter().map(move |&m| (alg, m)))
        .collect();
    Sweep::points(points, |&(alg, m)| measure_bcast(alg, m, 1, 3).map(|t| t.latency_us), finalize)
}

fn finalize(ctx: &mut ExpCtx, pairs: Vec<((Algorithm, usize), f64)>) {
    let columns: Vec<_> = pairs.chunk_by(|a, b| a.0 .0 == b.0 .0).collect();
    let labels: Vec<String> = columns.iter().map(|c| c[0].0 .0.label()).collect();
    let rows: Vec<(usize, Vec<f64>)> = (columns[0].iter().enumerate())
        .map(|(i, &((_, m), _))| (m, columns.iter().map(|c| c[i].1).collect()))
        .collect();
    ctx.series(
        "Figure 8a — measured broadcast latency (µs), P = 48",
        "cache_lines",
        &labels,
        &rows,
    );

    // Structured rows with the contention-free model's prediction
    // alongside each simulator measurement.
    let predictor = Predictor::paper();
    for i in 0..rows.len() {
        for &((alg, m), sim) in columns.iter().map(|c| &c[i]) {
            let model = match alg {
                Algorithm::OcBcast(c) => Some(predictor.oc_latency_us(48, m, c.k)),
                Algorithm::Binomial => Some(predictor.binomial_latency_us(48, m)),
                _ => None,
            };
            ctx.row(format!("latency {} m={m}", alg.label()), None, model, sim, 0.02, "us");
        }
    }

    // Section 6.2.1 claims; a point the sweep lacks fails its claim.
    let at = |m: usize, alg: Algorithm| {
        pairs.iter().find(|(p, _)| *p == (alg, m)).map_or(f64::NAN, |(_, v)| *v)
    };
    let (k2, k7, binomial) =
        (Algorithm::oc_with_k(2), Algorithm::oc_with_k(7), Algorithm::Binomial);
    let improvement = 1.0 - at(1, k7) / at(1, binomial);
    outln!(
        ctx,
        "# 1-CL latency: k=7 {:.2} µs vs binomial {:.2} µs — {:.0}% improvement (paper: ≥27%)",
        at(1, k7),
        at(1, binomial),
        improvement * 100.0
    );
    ctx.shape(
        "1-CL latency improves ≥27% over the binomial tree",
        improvement >= 0.27,
        format!(
            "k=7 {:.2} µs vs binomial {:.2} µs ({:.0}%)",
            at(1, k7),
            at(1, binomial),
            improvement * 100.0
        ),
    );
    if !ctx.quick {
        let k7_gain_over_k2 = 1.0 - at(144, k7) / at(144, k2);
        outln!(
            ctx,
            "# 96–192 CL: k=7 is {:.0}% better than k=2 (paper: ~25%)",
            k7_gain_over_k2 * 100.0
        );
        ctx.shape(
            "k=7 clearly beats k=2 at 144 CL",
            k7_gain_over_k2 > 0.10,
            format!("{:.0}% gain", k7_gain_over_k2 * 100.0),
        );
        // The gap to binomial grows with size.
        let gap1 = at(1, binomial) - at(1, k7);
        let gap192 = at(192, binomial) - at(192, k7);
        ctx.shape(
            "the gap to binomial grows with message size",
            gap192 > gap1,
            format!("gap at 1 CL {gap1:.2} µs, at 192 CL {gap192:.2} µs"),
        );
    }
}
