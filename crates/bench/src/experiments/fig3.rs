//! Figure 3: put/get completion time as a function of router distance
//! for 1/4/8/16 cache lines — measurement dots (simulator) vs model
//! lines (Formulas 7–12 with Table-1 parameters), four panels.

use super::{outln, Point, Sweep};
use crate::paper_chip;
use scc_model::{ModelParams, P2p};
use scc_sim::{measure_p2p, P2pKind, SimError};

const SIZES: [usize; 4] = [1, 4, 8, 16];
const REPS: u32 = 3;

const PANELS: [(&str, P2pKind, u32); 4] = [
    ("MPB to MPB Get Completion Time", P2pKind::GetMpb, 9),
    ("MPB to MPB Put Completion Time", P2pKind::PutMpb, 9),
    ("MPB to Memory Get Completion Time", P2pKind::GetMem, 4),
    ("Memory to MPB Put Completion Time", P2pKind::PutMem, 4),
];

/// One panel's column at one distance: the four sizes' measurements.
/// The model half of each column is pure arithmetic and stays in the
/// finalize step.
struct Column {
    title: &'static str,
    kind: P2pKind,
    d: u32,
}

impl Point for Column {
    fn key(&self) -> String {
        format!("{} d={}", kind_short(self.kind), self.d)
    }
}

pub(super) fn plan(_quick: bool) -> Sweep {
    let columns = PANELS
        .iter()
        .flat_map(|&(title, kind, dmax)| (1..=dmax).map(move |d| Column { title, kind, d }))
        .collect();
    Sweep::points(
        columns,
        |c: &Column| {
            let cfg = paper_chip();
            SIZES
                .iter()
                .map(|&m| Ok(measure_p2p(&cfg, c.kind, m, c.d, REPS)?.as_us_f64()))
                .collect::<Result<Vec<f64>, SimError>>()
        },
        |ctx, pairs| {
            let model = P2p::new(ModelParams::paper());
            let labels: Vec<String> =
                SIZES.iter().flat_map(|m| [format!("exp:{m}CL"), format!("model:{m}CL")]).collect();
            for panel in pairs.chunk_by(|a, b| a.0.kind == b.0.kind) {
                let (title, kind) = (panel[0].0.title, panel[0].0.kind);
                let mut rows = Vec::new();
                for (Column { d, .. }, exps) in panel {
                    let mut cols = Vec::new();
                    for (i, &m) in SIZES.iter().enumerate() {
                        let mdl = match kind {
                            P2pKind::GetMpb => model.c_get_mpb(m, *d),
                            P2pKind::PutMpb => model.c_put_mpb(m, *d),
                            P2pKind::GetMem => model.c_get_mem(m, 1, *d),
                            P2pKind::PutMem => model.c_put_mem(m, *d, 1),
                        };
                        cols.push(exps[i]);
                        cols.push(mdl);
                    }
                    rows.push((*d as usize, cols));
                }
                ctx.series(title, "hops", &labels, &rows);

                // Structured rows: the near and far end of each panel's
                // sweep.
                let short = kind_short(kind);
                for &(d, ref cols) in [&rows[0], &rows[rows.len() - 1]] {
                    for (i, &m) in SIZES.iter().enumerate() {
                        ctx.row(
                            format!("{short} {m}CL d={d}"),
                            None,
                            Some(cols[2 * i + 1]),
                            cols[2 * i],
                            0.02,
                            "us",
                        );
                    }
                }

                // The paper's validation claim: model and measurement
                // agree.
                let mut worst = (0.0f64, 0usize, 0.0, 0.0);
                for (d, cols) in &rows {
                    for pair in cols.chunks_exact(2) {
                        let rel = (pair[0] - pair[1]).abs() / pair[1];
                        if rel > worst.0 {
                            worst = (rel, *d, pair[0], pair[1]);
                        }
                    }
                }
                ctx.shape(
                    &format!("{short}: simulator within 2% of model at every (size, distance)"),
                    worst.0 < 0.02,
                    format!(
                        "worst at d={}: exp {:.4} vs model {:.4} ({:.2}% off)",
                        worst.1,
                        worst.2,
                        worst.3,
                        worst.0 * 100.0
                    ),
                );
            }
            outln!(ctx, "# all panels: simulator within 2% of the analytical model");
        },
    )
}

fn kind_short(kind: P2pKind) -> &'static str {
    match kind {
        P2pKind::GetMpb => "get_mpb",
        P2pKind::PutMpb => "put_mpb",
        P2pKind::GetMem => "get_mem",
        P2pKind::PutMem => "put_mem",
    }
}
