//! Soak: thousands of back-to-back reliable broadcasts through healthy
//! and fault-plan traffic phases, reduced to streaming telemetry.
//!
//! Nobody replays ten thousand event streams, so the soak inverts the
//! observability pipeline: every epoch collapses to an [`EpochRollup`]
//! (exact per-epoch p99/makespan plus recovery-counter deltas), the
//! cross-epoch latency distribution lives in mergeable log₂
//! [`QuantileSketch`]es, and the [`SloPolicy`] watchdog checks every
//! rollup against its budgets. Only a breach triggers forensics: the
//! breached chunk ran with the bounded flight-recorder ring on, and its
//! retained window is dumped as a Chrome trace + journey book + skew
//! digest (first [`MAX_DUMPS`] breached chunks per scenario).
//!
//! Epochs are grouped into chunks — one [`Scenario::run`] per chunk,
//! the broadcast context shared across all epochs of the chunk (the
//! repeated-broadcast pattern of `oc_bcast::reliable`'s tests) — so
//! the sweep parallelizes across chunks while every number merges in
//! declaration order: the text, the rows and the dumps are
//! byte-identical at any `--jobs`.

use super::{outln, Point, Sweep};
use crate::{fault_plan, policy, Run, Scenario};
use oc_bcast::{Algorithm, RelStats};
use scc_hal::Time;
use scc_obs::{
    artifact, audit, chrome_trace_json, render_skew_markdown, AuditSpec, EpochRollup, JourneyBook,
    LatencyHistogram, ObsEvent, QuantileSketch, RecoveryCounters, SkewReport, SloPolicy,
};
use scc_sim::SimError;

/// Soak trades chip scale for epoch volume: half the chip, small
/// messages, ten thousand broadcasts.
const CORES: usize = 24;

/// Flight-recorder ring capacity for fault-phase chunks: enough for
/// the last few epochs of a chunk at fixed memory cost.
const FLIGHT_WINDOW: usize = 16_384;

/// At most this many forensic dumps per scenario (first breached
/// chunks in epoch order); the rest are listed as breaches only.
const MAX_DUMPS: usize = 2;

/// The watchdog budgets. Healthy epochs on this configuration finish
/// well under 100 µs end to end; a recovery stalls its epoch by the
/// 600 µs timeout. The budgets sit between those regimes, so healthy
/// phases must be breach-free and every recovered epoch trips all
/// three objectives.
fn slo() -> SloPolicy {
    SloPolicy {
        p99_budget: Some(Time::from_us_f64(300.0)),
        makespan_budget: Some(Time::from_us_f64(450.0)),
        zero_recoveries: true,
    }
}

/// One unit: `epochs` back-to-back broadcasts of `lines` cache lines,
/// the `start`-th onwards of its scenario, in one traffic phase.
struct Chunk {
    scenario: &'static str,
    alg: Algorithm,
    lines: usize,
    phase: &'static str,
    drop_ppm: u32,
    start: usize,
    epochs: usize,
}

impl Point for Chunk {
    fn key(&self) -> String {
        format!("soak {} {} e{}", self.scenario, self.phase, self.start)
    }
    // Fault-phase chunks do recovery work and carry the flight ring —
    // start them early.
    fn cost(&self) -> u64 {
        self.epochs as u64 * if self.drop_ppm > 0 { 4 } else { 1 }
    }
}

/// Mid-run fault phase between two healthy phases, each split into
/// chunks. The full oc_k7 soak is the acceptance workload: 10,000
/// epochs. Quick mode keeps the same three-phase shape at a few dozen
/// epochs (with a denser drop rate so the short fault phase still
/// faults).
fn chunks(quick: bool) -> Vec<Chunk> {
    let (lines, oc, bin, rate) = if quick {
        (4, (48, 24, 24), (40, 20, 20), 20_000)
    } else {
        (8, (4_000, 2_000, 200), (400, 200, 100), 2_000)
    };
    let mut out = Vec::new();
    for (scenario, alg, (healthy, faulty, chunk)) in
        [("oc_k7", Algorithm::oc_with_k(7), oc), ("binomial", Algorithm::Binomial, bin)]
    {
        let mut start = 0;
        for (phase, drop_ppm, epochs) in
            [("healthy_a", 0, healthy), ("faults", rate, faulty), ("healthy_b", 0, healthy)]
        {
            let end = start + epochs;
            while start < end {
                let epochs = chunk.min(end - start);
                out.push(Chunk { scenario, alg, lines, phase, drop_ppm, start, epochs });
                start += epochs;
            }
        }
    }
    out
}

/// What one chunk of back-to-back epochs reduces to.
struct ChunkOut {
    /// One rollup per epoch, global epoch ids.
    rollups: Vec<EpochRollup>,
    /// Per-destination delivered latencies, all epochs of the chunk.
    sketch: QuantileSketch,
    /// The same latencies exactly, for the sketch-vs-exact replay
    /// check in finalize.
    lats: Vec<Time>,
    probes: u64,
    renotifies: u64,
    /// Faults the plan injected across the whole chunk run.
    faults: u64,
    /// Flight-recorder window (fault-phase chunks only).
    window: Option<Vec<ObsEvent>>,
}

/// One traffic phase of one protocol's soak, merged over its chunks.
struct SoakPhase {
    /// Stable id, e.g. `"healthy_a"` / `"faults"` / `"healthy_b"`.
    id: &'static str,
    /// Remote-notification drop rate this phase injects, ppm.
    drop_ppm: u32,
    /// Per-destination delivered latencies, every epoch of the phase.
    sketch: QuantileSketch,
    /// Worst per-epoch makespan in the phase.
    makespan_max: Time,
    /// Recovery counters summed over the phase.
    timeouts: u64,
    recoveries: u64,
    /// Faults the plan injected during the phase.
    faults: u64,
    /// Watchdog breaches, and forensic files dumped.
    breaches: usize,
    dumps: usize,
}

/// Run one chunk: `epochs` broadcasts in one shared reliable context,
/// with no barrier (see [`Run::aligned`]).
fn run_chunk(chunk: &Chunk) -> Result<ChunkOut, SimError> {
    let &Chunk { alg, lines, drop_ppm, start, epochs, .. } = chunk;
    let run = Run {
        faults: fault_plan(drop_ppm),
        // Forensics are only ever wanted where faults can strike; the
        // bounded ring keeps the cost fixed per chunk.
        flight: if drop_ppm > 0 { FLIGHT_WINDOW } else { 0 },
        policy: Some(policy()),
        epochs: start..start + epochs,
        ..Run::default()
    };
    let mut outcome = Scenario::new(alg, CORES, lines).run(&run)?;
    let mut out = ChunkOut {
        rollups: Vec::with_capacity(epochs),
        sketch: QuantileSketch::new(),
        lats: Vec::with_capacity(epochs * (CORES - 1)),
        probes: 0,
        renotifies: 0,
        faults: outcome.stats.faults,
        window: outcome.events.take(),
    };
    for e in 0..epochs {
        let mut hist = LatencyHistogram::new();
        let mut makespan = Time::ZERO;
        let mut rel = RelStats::default();
        outcome.cores.iter().for_each(|core| rel.accumulate(core[e].rel));
        out.probes += rel.probes;
        out.renotifies += rel.renotifies;
        for lat in outcome.deliveries(e) {
            hist.record(lat);
            out.sketch.record(lat);
            out.lats.push(lat);
            makespan = makespan.max(lat);
        }
        out.rollups.push(EpochRollup {
            epoch: (start + e) as u32,
            // Without destinations there is no latency: zero, as the
            // makespan.
            p99: hist.quantile(0.99).unwrap_or(makespan),
            makespan,
            timeouts: rel.timeouts,
            recoveries: rel.recoveries,
            // Fault injection is only observable per run, not per
            // epoch; phase totals carry the injected counts.
            faults: 0,
        });
    }
    Ok(out)
}

pub(super) fn plan(quick: bool) -> Sweep {
    sweep(chunks(quick))
}

/// The soak over `chunks`, consecutive chunks of one scenario and
/// phase forming that phase.
fn sweep(chunks: Vec<Chunk>) -> Sweep {
    Sweep::points(chunks, run_chunk, |ctx, pairs| {
        let lines = pairs[0].0.lines;
        outln!(ctx, "# soak: back-to-back reliable broadcasts, {CORES} cores, {lines} cache lines");
        outln!(ctx, "# SLO per epoch: p99 <= 300 us, makespan <= 450 us, zero recoveries");
        let policy = slo();
        let (mut scenarios, mut total) = (0, 0);
        // `(dump stem, invariant instances checked, violations)` for
        // every flight window dumped below.
        let mut dump_audits: Vec<(String, u64, u64)> = Vec::new();
        for sc in pairs.chunk_by(|a, b| a.0.scenario == b.0.scenario) {
            let id = sc[0].0.scenario;
            let mut phases: Vec<SoakPhase> = Vec::new();
            let mut dumps_left = MAX_DUMPS;
            for ph in sc.chunk_by(|a, b| a.0.phase == b.0.phase) {
                let (phase_id, drop_ppm) = (ph[0].0.phase, ph[0].0.drop_ppm);
                let epochs: usize = ph.iter().map(|(c, _)| c.epochs).sum();
                total += epochs;
                let mut phase = SoakPhase {
                    id: phase_id,
                    drop_ppm,
                    sketch: QuantileSketch::new(),
                    makespan_max: Time::ZERO,
                    timeouts: 0,
                    recoveries: 0,
                    faults: 0,
                    breaches: 0,
                    dumps: 0,
                };
                let mut exact = LatencyHistogram::new();
                for (_, chunk) in ph {
                    let n = chunk.rollups.len();
                    phase.sketch.merge(&chunk.sketch);
                    for &l in &chunk.lats {
                        exact.record(l);
                    }
                    phase.faults += chunk.faults;
                    let mut chunk_breached = false;
                    for r in &chunk.rollups {
                        phase.makespan_max = phase.makespan_max.max(r.makespan);
                        phase.timeouts += r.timeouts;
                        phase.recoveries += r.recoveries;
                        let breaches = policy.check(r).len();
                        chunk_breached |= breaches > 0;
                        phase.breaches += breaches;
                    }
                    // A breach freezes the chunk's flight ring and
                    // dumps forensics for just that window.
                    if chunk_breached && dumps_left > 0 {
                        if let Some(window) = &chunk.window {
                            dumps_left -= 1;
                            let first = chunk.rollups[0].epoch;
                            let last = chunk.rollups[n - 1].epoch;
                            let stem = format!("results/soak_dump_{id}_e{first:05}-{last:05}");
                            // Audit the retained window before dumping
                            // it: a breach explains *slow*, never
                            // *wrong* — window mode tolerates the
                            // ring's truncated prefix.
                            let arep = audit(window, &AuditSpec::faulted().windowed());
                            dump_audits.push((
                                stem.clone(),
                                arep.checked(),
                                arep.violations.len() as u64,
                            ));
                            ctx.artifact(format!("{stem}_trace.json"), chrome_trace_json(window));
                            let book = (id.to_string(), JourneyBook::from_events(window));
                            ctx.artifact(
                                format!("{stem}_journeys.json"),
                                artifact::scenarios("journeys", std::slice::from_ref(&book))
                                    .render(),
                            );
                            let book = book.1;
                            phase.dumps += 2;
                            if let Some(skew) = SkewReport::from_book(id, &book) {
                                // The dumped chunk's own counters, not
                                // the phase's running totals.
                                let skew = skew.with_recovery(RecoveryCounters {
                                    timeouts: chunk.rollups.iter().map(|r| r.timeouts).sum(),
                                    probes: chunk.probes,
                                    recoveries: chunk.rollups.iter().map(|r| r.recoveries).sum(),
                                    renotifies: chunk.renotifies,
                                });
                                ctx.artifact(
                                    format!("{stem}_skew.md"),
                                    render_skew_markdown(std::slice::from_ref(&skew)),
                                );
                                phase.dumps += 1;
                            }
                        }
                    }
                }
                let us = |t: Option<Time>| t.map_or(0.0, |t| t.as_us_f64());
                let p50 = us(phase.sketch.quantile(0.50));
                let p99 = us(phase.sketch.quantile(0.99));
                ctx.row(format!("{id} {phase_id} delivery p50"), None, None, p50, 0.02, "us");
                ctx.row(format!("{id} {phase_id} delivery p99"), None, None, p99, 0.02, "us");
                ctx.row(
                    format!("{id} {phase_id} makespan max"),
                    None,
                    None,
                    phase.makespan_max.as_us_f64(),
                    0.02,
                    "us",
                );
                outln!(
                    ctx,
                    "{:<10} {:<10} {:>6} epochs  p50 {:>9.3}  p99 {:>9.3} us  \
                     {:>4} recoveries  {:>4} breaches  {} dumps",
                    id,
                    phase_id,
                    epochs,
                    p50,
                    p99,
                    phase.recoveries,
                    phase.breaches,
                    phase.dumps,
                );
                // The acceptance bound: a sketch quantile is the upper
                // edge of the exact value's bucket — at least the
                // exact nearest-rank value and less than 2x it
                // (replayed here on the retained full distribution).
                let (pass, detail) = match (phase.sketch.quantile(0.99), exact.quantile(0.99)) {
                    (Some(sk), Some(ex)) => (
                        sk >= ex && (ex == Time::ZERO || sk.as_ps() < 2 * ex.as_ps()),
                        format!("sketch {:.3} us, exact {:.3} us", sk.as_us_f64(), ex.as_us_f64()),
                    ),
                    _ => (false, "the phase delivered no latencies".to_string()),
                };
                ctx.shape(
                    &format!("{id}/{phase_id}: sketch p99 within its bucket bound of exact"),
                    pass,
                    detail,
                );
                phases.push(phase);
            }

            for ph in &phases {
                if ph.drop_ppm == 0 {
                    ctx.shape(
                        &format!("{id}/{}: healthy phase is clean and dump-free", ph.id),
                        ph.timeouts == 0
                            && ph.recoveries == 0
                            && ph.faults == 0
                            && ph.breaches == 0
                            && ph.dumps == 0,
                        format!(
                            "{} timeouts, {} recoveries, {} faults, {} breaches, {} dumps",
                            ph.timeouts, ph.recoveries, ph.faults, ph.breaches, ph.dumps
                        ),
                    );
                } else {
                    ctx.shape(
                        &format!(
                            "{id}/{}: fault phase injects, recovers, and trips the watchdog",
                            ph.id
                        ),
                        ph.faults > 0 && ph.recoveries > 0 && ph.breaches > 0,
                        format!(
                            "{} faults, {} recoveries, {} breaches, {} dumps",
                            ph.faults, ph.recoveries, ph.breaches, ph.dumps
                        ),
                    );
                }
            }
            scenarios += 1;
        }
        // The runner checked every core's bytes after every epoch; a
        // wrong payload would have failed its chunk's unit.
        ctx.shape(
            "every destination of every epoch verifies its payload",
            true,
            format!("{scenarios} scenarios x {} destinations", CORES - 1),
        );
        ctx.shape(
            "every forensic dump window audits causally clean",
            !dump_audits.is_empty()
                && dump_audits.iter().all(|(_, checked, viol)| *viol == 0 && *checked > 0),
            dump_audits
                .iter()
                .map(|(stem, checked, viol)| format!("{stem}: {checked} checks, {viol} violations"))
                .collect::<Vec<_>>()
                .join("; "),
        );
        outln!(ctx, "# {total} epochs total; dumps only from fault-phase windows");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment_full, Experiment, Outputs};

    /// Epochs `start..start + epochs` of a binomial fault phase, at a
    /// drop rate dense enough that a chunk of ten or more breaches.
    fn fault_chunk(start: usize, epochs: usize) -> Chunk {
        Chunk {
            scenario: "binomial",
            alg: Algorithm::Binomial,
            lines: 4,
            phase: "faults",
            drop_ppm: 20_000,
            start,
            epochs,
        }
    }

    fn soak_of(plan: fn(bool) -> Sweep) -> Outputs {
        let exp = Experiment { id: "soak", title: "soak", plan };
        run_experiment_full(&exp, true).2
    }

    fn file<'a>(out: &'a Outputs, path: &str) -> &'a str {
        let found = out.files.iter().find(|(p, _)| p == path);
        &found.unwrap_or_else(|| panic!("no {path}")).1
    }

    /// `[timeouts, probes, recoveries, renotifies]` of one chunk, from
    /// the chunk runner's own result.
    fn chunk_counters(chunk: &Chunk) -> [u64; 4] {
        let out = run_chunk(chunk).unwrap();
        let sum = |count: fn(&EpochRollup) -> u64| out.rollups.iter().map(count).sum();
        [sum(|r| r.timeouts), out.probes, sum(|r| r.recoveries), out.renotifies]
    }

    /// The recoveries the text reports for the one phase of a soak.
    fn phase_recoveries(out: &Outputs) -> u64 {
        let line = file(out, "results/soak.txt").lines().find(|l| l.ends_with(" dumps")).unwrap();
        let before = line.split(" recoveries").next().unwrap();
        before.split_whitespace().last().unwrap().parse().unwrap()
    }

    /// The four counts a skew digest's `reliability` row names.
    fn reliability(skew_md: &str) -> [u64; 4] {
        let row = skew_md.lines().find(|l| l.starts_with("| reliability |")).unwrap();
        let counts: Vec<u64> = row
            .trim_start_matches("| reliability | ")
            .split(", ")
            .take(4)
            .map(|part| part.split(' ').next().unwrap().parse().unwrap())
            .collect();
        counts.try_into().unwrap()
    }

    #[test]
    fn each_dump_reports_its_own_chunks_recovery_counters() {
        let both = soak_of(|_| sweep(vec![fault_chunk(0, 10), fault_chunk(10, 12)]));
        let dumps = ["e00000-00009", "e00010-00021"]
            .map(|w| reliability(file(&both, &format!("results/soak_dump_binomial_{w}_skew.md"))));
        let alone = [chunk_counters(&fault_chunk(0, 10)), chunk_counters(&fault_chunk(10, 12))];
        assert_eq!(dumps, alone, "each dump names its own chunk's counters");
        assert!(alone.iter().all(|c| c[2] > 0), "both chunks recover: {alone:?}");
        let recoveries = dumps[0][2] + dumps[1][2];
        assert_eq!(recoveries, phase_recoveries(&both), "the dumps add up to their phase");
    }
}
