//! Table 1: recover the eight model parameters from microbenchmarks on
//! the simulated chip and compare with the values the authors measured
//! on real silicon.

use super::{outln, ExpCtx, Point, Sweep};
use crate::paper_chip;
use scc_model::{fit_params, FitSamples, ModelParams};
use scc_sim::{measure_p2p, P2pKind, SimError};

const REPS: u32 = 3;
const SIZES: [usize; 4] = [1, 4, 8, 16];
const MPB_DISTS: [u32; 4] = [1, 3, 5, 9];
const MEM_DISTS: [u32; 3] = [1, 2, 4];

/// One unit's raw measurements. All sample algebra (the C_r(1) anchor,
/// the per-line differences) and the least-squares fit run in finalize,
/// where every sample lands in `FitSamples` in declaration order.
#[derive(Clone, Copy)]
enum Probe {
    /// A 1-line MPB get at distance `d`.
    MpbRead(u32),
    /// A 2-line MPB get at distance 1.
    Mpb2Cl,
    /// 1- and 2-line memory gets and puts at memory distance `d`.
    Mem(u32),
    /// Every op kind at `m` lines over the MPB and memory distances.
    Ops(usize),
}

impl Point for Probe {
    fn key(&self) -> String {
        match self {
            Probe::MpbRead(d) => format!("mpb_read d={d}"),
            Probe::Mpb2Cl => "mpb 2cl d=1".to_string(),
            Probe::Mem(d) => format!("mem d={d}"),
            Probe::Ops(m) => format!("ops m={m}"),
        }
    }
    fn cost(&self) -> u64 {
        match self {
            Probe::Ops(m) => *m as u64,
            _ => 1,
        }
    }
}

impl Probe {
    /// The `(kind, lines, distance)` measurements this unit makes, in
    /// order.
    fn measurements(self) -> Vec<(P2pKind, usize, u32)> {
        use P2pKind::*;
        match self {
            Probe::MpbRead(d) => vec![(GetMpb, 1, d)],
            Probe::Mpb2Cl => vec![(GetMpb, 2, 1)],
            Probe::Mem(d) => vec![(GetMem, 1, d), (GetMem, 2, d), (PutMem, 1, d), (PutMem, 2, d)],
            Probe::Ops(m) => {
                let mpb = MPB_DISTS.into_iter().flat_map(|d| [(PutMpb, m, d), (GetMpb, m, d)]);
                let mem = MEM_DISTS.into_iter().flat_map(|d| [(PutMem, m, d), (GetMem, m, d)]);
                mpb.chain(mem).collect()
            }
        }
    }

    fn run(&self) -> Result<Vec<f64>, SimError> {
        let cfg = paper_chip();
        self.measurements()
            .into_iter()
            .map(|(kind, m, d)| Ok(measure_p2p(&cfg, kind, m, d, REPS)?.as_us_f64()))
            .collect()
    }
}

pub(super) fn plan(_quick: bool) -> Sweep {
    let mut probes: Vec<Probe> = (1..=9).map(Probe::MpbRead).collect();
    probes.push(Probe::Mpb2Cl);
    probes.extend((1..=4).map(Probe::Mem));
    probes.extend(SIZES.map(Probe::Ops));
    Sweep::points(probes, Probe::run, finalize)
}

fn finalize(ctx: &mut ExpCtx, pairs: Vec<(Probe, Vec<f64>)>) {
    let mut s = FitSamples::default();
    let mut c_r_1 = 0.0;
    for (probe, v) in pairs {
        match probe {
            // Single-line primitives are not directly observable (a lone
            // read is always part of an op), so derive them the way the
            // authors do: from 1-line ops at varying distance.
            // C_get_mpb(1, d) = o_get + C_r(d) + C_w(1); differencing over
            // d isolates the mesh slope, and the 1-line put/get samples
            // pin the rest.
            Probe::MpbRead(d) => s.mpb_read.push((d, v[0])),
            Probe::Mpb2Cl => {
                // Anchor: the raw samples above are C_get(1, d) = const +
                // C_r(d); turn them into pseudo C_r(d) samples by removing
                // the constant measured at the smallest distance (the fit
                // only cares about the slope and a consistent intercept,
                // which we re-derive from the op samples below anyway).
                let c11 = s.mpb_read[0].1;
                // C_r(1) on the simulator's contention-free chip is o_mpb
                // + 2 Lhop; compute it from a 2-line vs 1-line difference
                // at d = 1:
                let per_line_d1 = v[0] - c11; // C_r(1) + C_w(1)
                c_r_1 = per_line_d1 / 2.0; // symmetric at d = 1
                for e in &mut s.mpb_read {
                    e.1 = e.1 - c11 + c_r_1;
                }
            }
            // Off-chip read/write per line, from put/get size differences
            // at each memory-controller distance.
            Probe::Mem(d) => {
                let (g1, g2, p1, p2) = (v[0], v[1], v[2], v[3]);
                // per-line = C_r_mpb(1) + C_w_mem(d)
                s.mem_write.push((d, g2 - g1 - c_r_1));
                // per-line = C_r_mem(d) + C_w_mpb(1); C_w(1) == C_r(1) here.
                s.mem_read.push((d, p2 - p1 - c_r_1));
            }
            // Op-overhead samples.
            Probe::Ops(_) => {
                for ((kind, m, d), t) in probe.measurements().into_iter().zip(v) {
                    match kind {
                        P2pKind::PutMpb => s.put_mpb.push((m, d, t)),
                        P2pKind::GetMpb => s.get_mpb.push((m, d, t)),
                        P2pKind::PutMem => s.put_mem.push((m, d, 1, t)),
                        // GetMem keeps the MPB side local: d_src = 1,
                        // memory at d.
                        P2pKind::GetMem => s.get_mem.push((m, 1, d, t)),
                    }
                }
            }
        }
    }

    let (fitted, rms) = match fit_params(&s) {
        Ok(fit) => fit,
        Err(e) => {
            ctx.shape("the samples fit all eight parameters", false, e.to_string());
            return;
        }
    };
    let paper = ModelParams::paper();

    outln!(ctx, "# Table 1 — model parameters (µs): simulator-fitted vs paper");
    outln!(ctx, "# primitive-fit RMS residual: {rms:.6} µs");
    outln!(ctx, "{:<12} {:>10} {:>10} {:>8}", "parameter", "fitted", "paper", "Δ%");
    let rows = [
        ("Lhop", fitted.l_hop, paper.l_hop),
        ("o_mpb", fitted.o_mpb, paper.o_mpb),
        ("o_mem_w", fitted.o_mem_w, paper.o_mem_w),
        ("o_mem_r", fitted.o_mem_r, paper.o_mem_r),
        ("o_mpb_put", fitted.o_mpb_put, paper.o_mpb_put),
        ("o_mpb_get", fitted.o_mpb_get, paper.o_mpb_get),
        ("o_mem_put", fitted.o_mem_put, paper.o_mem_put),
        ("o_mem_get", fitted.o_mem_get, paper.o_mem_get),
    ];
    for (name, f, p) in rows {
        outln!(ctx, "{name:<12} {f:>10.4} {p:>10.4} {:>7.1}%", (f - p) / p * 100.0);
        ctx.row(name, Some(p), None, f, 0.02, "us");
    }
    // Relative tolerance is meaningless for a ~0 residual; the gate's
    // `max(|old|, 1e-9)` floor makes 1.0 an absolute 1e-9 µs band.
    ctx.row("rms", None, None, rms, 1.0, "us");
    ctx.shape(
        "fitted parameters are physical",
        fitted.is_plausible(),
        format!(
            "Lhop {:.4}, o_mpb {:.4}, o_mem_w {:.4}",
            fitted.l_hop, fitted.o_mpb, fitted.o_mem_w
        ),
    );
    ctx.shape(
        "primitive fit is essentially exact on the noise-free simulator",
        rms < 1e-3,
        format!("rms residual {rms:.6} µs"),
    );
    ctx.shape(
        "every fitted parameter lands within 5% of the paper's Table 1",
        rows.iter().all(|(_, f, p)| ((f - p) / p).abs() < 0.05),
        rows.iter()
            .map(|(n, f, p)| format!("{n} {:.1}%", (f - p) / p * 100.0))
            .collect::<Vec<_>>()
            .join(", "),
    );
}
