//! Table 2: modeled peak broadcast throughput (MB/s) for OC-Bcast
//! (k = 2, 7, 47) vs the two-sided scatter-allgather, both from the
//! simplified Formulas (15)/(16) and from the complete model.

use super::{outln, ExpCtx, Sweep};
use scc_model::bcast::FullModelCfg;
use scc_model::series::table2_rows;
use scc_model::{oc_throughput_simplified, sag_throughput_simplified, ModelParams};

pub(super) fn plan(_quick: bool) -> Sweep {
    // Model-only (no simulator in the loop) — one unit computes the
    // complete model's rows.
    Sweep::points(
        vec!["table"],
        |_| table2_rows(&ModelParams::paper(), &FullModelCfg::default(), 48, &[2, 7, 47]),
        finalize,
    )
}

fn finalize(ctx: &mut ExpCtx, pairs: Vec<(&'static str, Vec<(String, f64)>)>) {
    let params = ModelParams::paper();
    for (_, rows) in pairs {
        // The numbers printed in the paper's Table 2.
        let paper: [(&str, f64); 4] = [
            ("OC-Bcast, k=2", 35.22),
            ("OC-Bcast, k=7", 34.30),
            ("OC-Bcast, k=47", 35.88),
            ("scatter-allgather", 13.38),
        ];

        outln!(ctx, "# Table 2 — analytical peak throughput (MB/s), P = 48, M_oc = 96 CL");
        outln!(ctx, "{:<20} {:>10} {:>10}", "algorithm", "model", "paper");
        let mut labels_match = true;
        for ((label, ours), (plabel, theirs)) in rows.iter().zip(paper) {
            labels_match &= label == plabel;
            outln!(ctx, "{label:<20} {ours:>10.2} {theirs:>10.2}");
            ctx.row(label.clone(), Some(theirs), Some(*ours), *ours, 0.01, "MB/s");
        }
        ctx.shape(
            "the model sweep produces exactly the paper's four Table-2 rows",
            labels_match && rows.len() == paper.len(),
            format!("{} rows", rows.len()),
        );
        outln!(ctx);
        outln!(
            ctx,
            "# simplified Formula (15): {:.2} MB/s (k-independent)",
            oc_throughput_simplified(&params, 96)
        );
        outln!(
            ctx,
            "# simplified Formula (16): {:.2} MB/s",
            sag_throughput_simplified(&params, 48, 96)
        );
        ctx.row(
            "simplified (15)",
            None,
            Some(oc_throughput_simplified(&params, 96)),
            oc_throughput_simplified(&params, 96),
            0.01,
            "MB/s",
        );
        ctx.row(
            "simplified (16)",
            None,
            Some(sag_throughput_simplified(&params, 48, 96)),
            sag_throughput_simplified(&params, 48, 96),
            0.01,
            "MB/s",
        );

        let sag = rows[rows.len() - 1].1;
        let ratio = rows[1].1 / sag;
        outln!(
            ctx,
            "# OC-Bcast (k=7) / scatter-allgather = {ratio:.2}x (paper: ~2.6x, \"almost 3 times\")"
        );
        ctx.shape(
            "the almost-3x headline holds for the modeled peak",
            ratio > 2.3,
            format!("OC-Bcast (k=7) / scatter-allgather = {ratio:.2}x"),
        );
    }
}
