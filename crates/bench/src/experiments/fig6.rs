//! Figure 6: *analytically modeled* broadcast latency vs message size
//! for OC-Bcast (k = 2, 7, 47) and the binomial tree at P = 48 —
//! panel (a) up to 180 cache lines, panel (b) the ≤ 30-line zoom.

use super::{outln, ExpCtx, Sweep};
use scc_model::bcast::FullModelCfg;
use scc_model::series::{fig6_curves, LatencyCurve};
use scc_model::{ModelError, ModelParams};

const KS: [usize; 3] = [2, 7, 47];

type Panel = (&'static str, Vec<LatencyCurve>);

pub(super) fn plan(_quick: bool) -> Sweep {
    // Model-only (no simulator in the loop) — one unit computes both
    // panels' curves.
    Sweep::points(vec!["curves"], |_| panels(), finalize)
}

fn panels() -> Result<Vec<Panel>, ModelError> {
    [
        ("Figure 6a — modeled broadcast latency (µs), P = 48", (1..=180).step_by(4).collect()),
        ("Figure 6b — zoom on small messages", (1..=30).collect::<Vec<usize>>()),
    ]
    .into_iter()
    .map(|(title, sizes)| {
        Ok((title, fig6_curves(&ModelParams::paper(), &FullModelCfg::default(), 48, &KS, &sizes)?))
    })
    .collect()
}

fn finalize(ctx: &mut ExpCtx, pairs: Vec<(&'static str, Vec<Panel>)>) {
    let params = ModelParams::paper();
    let cfg = FullModelCfg::default();
    for (title, curves) in pairs.iter().flat_map(|(_, panels)| panels) {
        let labels: Vec<String> = curves.iter().map(|c| c.label.clone()).collect();
        let rows: Vec<(usize, Vec<f64>)> = (curves[0].points.iter().enumerate())
            .map(|(i, &(m, _))| (m, curves.iter().map(|c| c.points[i].1).collect()))
            .collect();
        ctx.series(title, "cache_lines", &labels, &rows);
    }

    // Structured rows: the model is the measurement here (there is no
    // simulator in the loop), so `sim` and `model` coincide and the
    // drift gate tracks changes to the analytical code itself.
    for m in [1usize, 29, 96, 177] {
        for k in &KS {
            let v = scc_model::oc_latency_full(&params, &cfg, 48, m, *k);
            ctx.row(format!("latency k={k} m={m}"), None, Some(v), v, 0.01, "us");
        }
        let v = scc_model::binomial_latency_full(&params, &cfg, 48, m);
        ctx.row(format!("latency binomial m={m}"), None, Some(v), v, 0.01, "us");
    }

    // The qualitative claims of Section 5.2.
    let l = |m: usize, k: usize| scc_model::oc_latency_full(&params, &cfg, 48, m, k);
    let binom = |m: usize| scc_model::binomial_latency_full(&params, &cfg, 48, m);
    ctx.shape(
        "OC-Bcast (k=7) beats binomial at 1 CL",
        l(1, 7) < binom(1),
        format!("k=7 {:.3} µs vs binomial {:.3} µs", l(1, 7), binom(1)),
    );
    ctx.shape(
        "k=47 pays the polling cost at 1 CL",
        l(1, 47) > l(1, 7),
        format!("k=47 {:.3} µs vs k=7 {:.3} µs", l(1, 47), l(1, 7)),
    );
    ctx.shape(
        "the gap to binomial grows with message size",
        binom(180) - l(180, 7) > binom(1) - l(1, 7),
        format!(
            "gap at 180 CL {:.3} µs vs gap at 1 CL {:.3} µs",
            binom(180) - l(180, 7),
            binom(1) - l(1, 7)
        ),
    );
    outln!(ctx, "# Section 5.2 ordering claims hold for the modeled curves");
}
