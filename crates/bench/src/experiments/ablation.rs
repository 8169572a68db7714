//! Ablation study of OC-Bcast's design choices (DESIGN.md §4):
//!
//! * notification fan-out — binary tree (paper) vs ternary vs the
//!   parent notifying all children sequentially;
//! * double buffering on/off, with the standard and the `leaf_direct`
//!   consumption patterns;
//! * the Section 5.4 `leaf_direct` optimization itself;
//! * chunk size (M_oc) sweep;
//! * tree layout — the paper's id-based k-ary heap vs the
//!   topology-aware extension;
//! * the Section 5.4 alternative design: scatter-allgather over
//!   one-sided RMA, vs the two-sided baseline and vs OC-Bcast.

use super::{outln, ExpCtx, Point, Sweep};
use crate::measure_bcast;
use oc_bcast::{Algorithm, OcConfig, TreeLayout, TreeStrategy};
use scc_hal::CoreId;
use scc_sim::SimError;

/// 1 CL.
const SMALL: usize = 1;

/// One measured configuration; each section of the text is one variant.
#[derive(Clone, Copy)]
enum Knob {
    /// Notification fan-out at k = 7: 1-CL latency, large throughput.
    Fanout(&'static str, usize),
    /// Notification fan-out at k = 47: 1-CL latency.
    FanoutK47(&'static str, usize),
    /// Large-message throughput with double buffering on, then off.
    DoubleBuffer(&'static str, bool),
    /// Latency at this many cache lines, standard then `leaf_direct`.
    LeafDirect(usize),
    /// Large-message throughput at this chunk size.
    Chunk(usize),
    /// Latency at 1 CL and at 96 CL under a tree layout.
    Layout(usize, &'static str, TreeStrategy),
    /// Large-message throughput of an alternative design.
    Alt(&'static str, Algorithm),
}

/// A knob and the large-message size of this run, in cache lines.
struct Setting {
    knob: Knob,
    large: usize,
}

impl Point for Setting {
    fn key(&self) -> String {
        match self.knob {
            Knob::Fanout(name, _) => format!("fanout {name}"),
            Knob::FanoutK47(name, _) => format!("fanout k47 {name}"),
            Knob::DoubleBuffer(name, _) => format!("double-buffer {name}"),
            Knob::LeafDirect(lines) => format!("leaf_direct {}B", lines * 32),
            Knob::Chunk(chunk) => format!("chunk M_oc={chunk}"),
            Knob::Layout(k, name, _) => format!("layout k={k} {name}"),
            Knob::Alt(label, _) => format!("alt {label}"),
        }
    }
    // Cost in cache lines moved — large-message units dominate, so they
    // get scheduled first.
    fn cost(&self) -> u64 {
        let big = self.large as u64;
        match self.knob {
            Knob::Fanout(..) => big + 1,
            Knob::FanoutK47(..) => 1,
            Knob::DoubleBuffer(..) => 2 * big,
            Knob::LeafDirect(lines) => 2 * lines as u64,
            Knob::Chunk(_) | Knob::Alt(..) => big,
            Knob::Layout(..) => 97,
        }
    }
}

/// `(latency_us, throughput_mb_s)` of one OC-Bcast configuration.
fn run_one(cfg_oc: OcConfig, lines: usize) -> Result<(f64, f64), SimError> {
    let t = measure_bcast(Algorithm::OcBcast(cfg_oc), lines, 1, 2)?;
    Ok((t.latency_us, t.throughput_mb_s))
}

/// The two numbers a knob's text line reports.
fn measure(&Setting { knob, large }: &Setting) -> Result<(f64, f64), SimError> {
    let oc = OcConfig::default();
    Ok(match knob {
        Knob::Fanout(_, notify_fanout) => {
            let c = OcConfig { notify_fanout, ..oc };
            (run_one(c, SMALL)?.0, run_one(c, large)?.1)
        }
        Knob::FanoutK47(_, notify_fanout) => {
            run_one(OcConfig { k: 47, notify_fanout, chunk_lines: 96, ..oc }, SMALL)?
        }
        Knob::DoubleBuffer(_, leaf_direct) => (
            run_one(OcConfig { leaf_direct, ..oc }, large)?.1,
            run_one(OcConfig { leaf_direct, double_buffer: false, ..oc }, large)?.1,
        ),
        Knob::LeafDirect(lines) => {
            (run_one(oc, lines)?.0, run_one(OcConfig { leaf_direct: true, ..oc }, lines)?.0)
        }
        Knob::Chunk(chunk_lines) => run_one(OcConfig { chunk_lines, ..oc }, large)?,
        Knob::Layout(k, _, strategy) => {
            let c = OcConfig { k, strategy, ..oc };
            (run_one(c, SMALL)?.0, run_one(c, 96)?.0)
        }
        Knob::Alt(_, alg) => {
            let t = measure_bcast(alg, large, 0, 1)?;
            (t.latency_us, t.throughput_mb_s)
        }
    })
}

pub(super) fn plan(quick: bool) -> Sweep {
    use TreeStrategy::{ById, TopologyAware};
    let large = if quick { 96 * 8 } else { 96 * 40 };
    let knobs = [
        Knob::Fanout("binary (paper)", 2),
        Knob::Fanout("ternary", 3),
        Knob::Fanout("sequential", 64),
        Knob::FanoutK47("binary (paper)", 2),
        Knob::FanoutK47("sequential", 64),
        Knob::DoubleBuffer("standard steps", false),
        Knob::DoubleBuffer("leaf_direct", true),
        Knob::LeafDirect(SMALL),
        Knob::LeafDirect(96),
        Knob::LeafDirect(large),
        Knob::Chunk(24),
        Knob::Chunk(48),
        Knob::Chunk(96),
        Knob::Chunk(120),
        Knob::Layout(2, "by-id (paper)", ById),
        Knob::Layout(2, "topology-aware", TopologyAware),
        Knob::Layout(7, "by-id (paper)", ById),
        Knob::Layout(7, "topology-aware", TopologyAware),
        Knob::Alt("s-ag two-sided", Algorithm::ScatterAllgather),
        Knob::Alt("s-ag one-sided", Algorithm::RmaScatterAllgather),
        Knob::Alt("OC-Bcast k=7", Algorithm::oc_default()),
    ];
    Sweep::points(knobs.map(|knob| Setting { knob, large }).into(), measure, finalize)
}

/// Render the sections in declaration order, each from its own knobs.
fn finalize(ctx: &mut ExpCtx, pairs: Vec<(Setting, (f64, f64))>) {
    let knobs = || pairs.iter().map(|(s, v)| (s.knob, *v));

    outln!(ctx, "# --- notification fan-out (k = 7, 1 CL latency / large-msg throughput) ---");
    let mut fanout_lat = Vec::new();
    for (knob, (l, t)) in knobs() {
        let Knob::Fanout(name, _) = knob else { continue };
        outln!(ctx, "{name:<16} latency {l:>8.2} µs   throughput {t:>7.2} MB/s");
        ctx.row(format!("fanout {name} latency"), None, None, l, 0.02, "us");
        ctx.row(format!("fanout {name} throughput"), None, None, t, 0.02, "MB/s");
        fanout_lat.push(l);
    }
    ctx.shape(
        "binary notification beats sequential at k=7",
        fanout_lat[0] < fanout_lat[2],
        format!("binary {:.2} µs vs sequential {:.2} µs", fanout_lat[0], fanout_lat[2]),
    );
    outln!(ctx);

    outln!(ctx, "# --- notification fan-out at k = 47 (polling-heavy regime) ---");
    let mut k47_lat = Vec::new();
    for (knob, (l, _)) in knobs() {
        let Knob::FanoutK47(name, _) = knob else { continue };
        outln!(ctx, "{name:<16} 1-CL latency {l:>8.2} µs");
        ctx.row(format!("fanout k=47 {name} latency"), None, None, l, 0.02, "us");
        k47_lat.push(l);
    }
    ctx.shape(
        "binary notification matters most in the polling-heavy k=47 regime",
        k47_lat[0] < k47_lat[1],
        format!("binary {:.2} µs vs sequential {:.2} µs", k47_lat[0], k47_lat[1]),
    );
    outln!(ctx);

    outln!(ctx, "# --- double buffering (large-message throughput, MB/s) ---");
    for (knob, (on, off)) in knobs() {
        let Knob::DoubleBuffer(name, _) = knob else { continue };
        outln!(ctx, "{name:<16} double {on:>7.2}   single {off:>7.2}   gain {:>5.2}x", on / off);
        ctx.row(format!("double-buffer {name} on"), None, None, on, 0.02, "MB/s");
        ctx.row(format!("double-buffer {name} off"), None, None, off, 0.02, "MB/s");
        ctx.shape(
            &format!("double buffering never hurts ({name})"),
            on >= off * 0.999,
            format!("double {on:.2} vs single {off:.2} MB/s"),
        );
    }
    outln!(ctx, "# (with the paper's early done-release the single buffer keeps up;");
    outln!(
        ctx,
        "#  with monolithic consumption the ping-pong penalty appears — see EXPERIMENTS.md)"
    );
    outln!(ctx);

    outln!(ctx, "# --- leaf_direct (Section 5.4 optimization the paper omits) ---");
    for (knob, (base, opt)) in knobs() {
        let Knob::LeafDirect(lines) = knob else { continue };
        let bytes = lines * 32;
        outln!(
            ctx,
            "{:>8} B: standard {base:>9.2} µs   leaf_direct {opt:>9.2} µs   gain {:>5.1}%",
            bytes,
            (1.0 - opt / base) * 100.0
        );
        ctx.row(format!("leaf_direct {bytes}B standard"), None, None, base, 0.02, "us");
        ctx.row(format!("leaf_direct {bytes}B optimized"), None, None, opt, 0.02, "us");
    }
    outln!(ctx);

    outln!(ctx, "# --- chunk size M_oc (large-message throughput, MB/s) ---");
    let mut chunk_tput = Vec::new();
    for (knob, (_, t)) in knobs() {
        let Knob::Chunk(chunk) = knob else { continue };
        let paper = if chunk == 96 { "  (paper)" } else { "" };
        outln!(ctx, "M_oc = {chunk:>3} CL: {t:>7.2} MB/s{paper}");
        ctx.row(format!("chunk M_oc={chunk}"), None, None, t, 0.02, "MB/s");
        chunk_tput.push(t);
    }
    ctx.shape(
        "the paper's M_oc=96 beats small chunks",
        chunk_tput[2] > chunk_tput[0],
        format!("96 CL {:.2} vs 24 CL {:.2} MB/s", chunk_tput[2], chunk_tput[0]),
    );
    outln!(ctx);

    outln!(ctx, "# --- tree layout: id-based (paper) vs topology-aware (extension) ---");
    for (knob, (l1, l96)) in knobs() {
        let Knob::Layout(k, name, strategy) = knob else { continue };
        let dist = TreeLayout::build(strategy, 48, k, CoreId(0)).total_parent_distance();
        outln!(
            ctx,
            "k={k} {name:<16} 1CL {l1:>7.2} µs   96CL {l96:>8.2} µs   Σ parent-dist {dist}"
        );
        ctx.row(format!("layout k={k} {name} 1CL"), None, None, l1, 0.02, "us");
        ctx.row(format!("layout k={k} {name} 96CL"), None, None, l96, 0.02, "us");
    }
    outln!(ctx);

    outln!(ctx, "# --- Section 5.4 alternative: one-sided scatter-allgather ---");
    let mut sag = Vec::new();
    for (knob, (_, t)) in knobs() {
        let Knob::Alt(label, _) = knob else { continue };
        outln!(ctx, "{label:<16} peak {t:>7.2} MB/s");
        ctx.row(format!("alt {label} peak"), None, None, t, 0.02, "MB/s");
        sag.push(t);
    }
    ctx.shape(
        "one-sided RMA beats the two-sided scatter-allgather",
        sag[1] > sag[0],
        format!("one-sided {:.2} vs two-sided {:.2} MB/s", sag[1], sag[0]),
    );
    ctx.shape(
        "OC-Bcast beats both scatter-allgather variants",
        sag[2] > sag[1] && sag[2] > sag[0],
        format!("OC-Bcast {:.2} vs one-sided {:.2} MB/s", sag[2], sag[1]),
    );
    outln!(ctx, "# one-sided RMA roughly doubles scatter-allgather, but the algorithm");
    outln!(ctx, "# shape (no off-chip round trip per hop) is what OC-Bcast adds on top.");
}
