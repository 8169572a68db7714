//! Degradation under injected faults: the reliable collectives
//! (timeout/retry/ack — `oc_bcast::reliable`) swept across the
//! deterministic fault plan's drop/delay rates on the full 48-core
//! chip. Every operating point must deliver the verified payload to
//! all 47 destinations; what the sweep measures is the *price* of that
//! guarantee — per-destination delivered latency (p50/p99/max) and the
//! makespan as the injected rate rises, next to the recovery counters
//! (timeouts, probes, recoveries, re-notifies) that explain it.
//!
//! Faults are seeded and drawn in deterministic event order, so the
//! text and rows are byte-identical at any `--jobs` count.

use super::{outln, Point, Sweep};
use crate::{fault_plan, policy, Run, Scenario, FAULT_DELAY};
use oc_bcast::{Algorithm, RelStats};
use scc_hal::Time;
use scc_obs::LatencyHistogram;
use scc_sim::SimError;

/// The paper's full chip; fault tolerance is only interesting at scale.
const CORES: usize = 48;

/// One reliable broadcast of `lines` cache lines under one drop rate.
struct Rate {
    id: &'static str,
    alg: Algorithm,
    lines: usize,
    /// Remote-notification drop rate, ppm; transfers are delayed at
    /// half the drop rate so both fault classes stress every point.
    drop_ppm: u32,
}

impl Point for Rate {
    fn key(&self) -> String {
        format!("faults {} drop={}ppm", self.id, self.drop_ppm)
    }
    // Heavier rates do more recovery work — weight them so the
    // longest-task-first scheduler starts them early.
    fn cost(&self) -> u64 {
        self.lines as u64 * (1 + u64::from(self.drop_ppm) / 25_000)
    }
}

/// What the reliable broadcast delivered at one fault rate.
struct FaultPoint {
    /// Destinations that returned with a verified payload.
    delivered: usize,
    /// Per-destination delivered-latency percentiles (nearest-rank).
    p50: Time,
    p99: Time,
    /// Engine makespan of the run (includes the root's drain).
    makespan: Time,
    /// Faults the engine injected.
    faults: u64,
    /// Recovery-layer counters summed over every core.
    timeouts: u64,
    recoveries: u64,
}

/// Run one reliable broadcast under the given drop rate and reduce it
/// to its point of the curve: the delivered-latency distribution (root's
/// call to each destination's return) plus the recovery counters summed
/// over every core. No barrier aligns the cores (see [`Run::aligned`]):
/// set-up is deterministic and near symmetric, and latency is measured
/// from the root's call (the paper's definition).
fn run_point(&Rate { alg, lines, drop_ppm, .. }: &Rate) -> Result<FaultPoint, SimError> {
    let run = Run { faults: fault_plan(drop_ppm), policy: Some(policy()), ..Run::default() };
    let out = Scenario::new(alg, CORES, lines).run(&run)?;
    let mut hist = LatencyHistogram::new();
    out.deliveries(0).for_each(|l| hist.record(l));
    let mut q = |q| hist.quantile(q).ok_or_else(|| SimError::Engine("no destinations".into()));
    let (p50, p99) = (q(0.50)?, q(0.99)?);
    let mut rel = RelStats::default();
    out.cores.iter().for_each(|core| rel.accumulate(core[0].rel));
    Ok(FaultPoint {
        // The runner verified every destination's payload.
        delivered: hist.count(),
        p50,
        p99,
        makespan: out.makespan,
        faults: out.stats.faults,
        timeouts: rel.timeouts,
        recoveries: rel.recoveries,
    })
}

pub(super) fn plan(quick: bool) -> Sweep {
    let lines = if quick { 32 } else { 96 };
    let rates: &[u32] = if quick { &[0, 50_000] } else { &[0, 20_000, 50_000, 100_000] };
    // Same contention spectrum as the `skew` experiment: the flat-tree
    // extreme, the paper's default operating point, and the baseline.
    let scenarios = [
        ("oc_k47", Algorithm::oc_with_k(47)),
        ("oc_k7", Algorithm::oc_with_k(7)),
        ("binomial", Algorithm::Binomial),
    ];
    let points = scenarios
        .into_iter()
        .flat_map(|(id, alg)| rates.iter().map(move |&drop_ppm| Rate { id, alg, lines, drop_ppm }));
    Sweep::points(points.collect(), run_point, move |ctx, pairs| {
        outln!(
            ctx,
            "# reliable broadcast under injected faults, {CORES} cores, {lines} cache lines"
        );
        outln!(
            ctx,
            "# drop = remote-notification loss (ppm); transfers delayed {FAULT_DELAY} at drop/2"
        );
        for rates in pairs.chunk_by(|a, b| a.0.id == b.0.id) {
            let id = rates[0].0.id;
            for (Rate { drop_ppm: rate, .. }, p) in rates {
                ctx.row(
                    format!("{id} drop={rate}ppm delivery p50"),
                    None,
                    None,
                    p.p50.as_us_f64(),
                    0.02,
                    "us",
                );
                ctx.row(
                    format!("{id} drop={rate}ppm delivery p99"),
                    None,
                    None,
                    p.p99.as_us_f64(),
                    0.02,
                    "us",
                );
                ctx.row(
                    format!("{id} drop={rate}ppm makespan"),
                    None,
                    None,
                    p.makespan.as_us_f64(),
                    0.02,
                    "us",
                );
                outln!(
                    ctx,
                    "{id:<10} drop {rate:>6}ppm  p50 {:>9.3}  p99 {:>9.3}  makespan {:>9.3} us  \
                     {:>4} faults  {:>3} recoveries",
                    p.p50.as_us_f64(),
                    p.p99.as_us_f64(),
                    p.makespan.as_us_f64(),
                    p.faults,
                    p.recoveries,
                );
            }

            let all_delivered = rates.iter().all(|(_, p)| p.delivered == CORES - 1);
            ctx.shape(
                &format!("{id}: every destination verifies delivery at every fault rate"),
                all_delivered,
                format!("{} destinations x {} rates", CORES - 1, rates.len()),
            );
            let clean = &rates[0].1;
            ctx.shape(
                &format!("{id}: the fault-free point injects nothing and recovers nothing"),
                clean.faults == 0 && clean.timeouts == 0 && clean.recoveries == 0,
                format!("{} faults, {} timeouts at rate 0", clean.faults, clean.timeouts),
            );
            let (top_rate, top) = &rates[rates.len() - 1];
            ctx.shape(
                &format!("{id}: faults fire and are absorbed at the top rate"),
                top.faults > 0 && top.recoveries > 0,
                format!(
                    "drop {}ppm: {} faults, {} timeouts, {} recoveries",
                    top_rate.drop_ppm, top.faults, top.timeouts, top.recoveries
                ),
            );
        }
        outln!(ctx, "# every point: payload verified on all {} destinations", CORES - 1);
    })
}
