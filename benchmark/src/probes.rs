//! Per-layer host probes: small fixed loops that time one public
//! function of one layer from outside, run in the traced pass of every
//! workload. They are independent of the workload except for the
//! `core.*` probes, which use the workload's message size.
//!
//! Every probe reports the median over its repetitions, so one
//! descheduled repetition does not move the number.

use crate::span::{SpanId, Tracer};
use crate::stats::median;
use crate::workloads::bcast::{sim_bcast, BcastSpec, Recording};
use crate::workloads::CORES;
use oc_bcast::{Algorithm, OcBcast, OcConfig, Reliability};
use scc_hal::{CoreId, MemController, MemRange, MpbAddr, Rma, RmaExt, Tile, Time};
use scc_model::{fit_params, FitSamples, ModelParams, P2p, Predictor};
use scc_rcce::{Barrier, MpbAllocator, RcceComm};
use scc_sim::chip::{Calendar, Chip};
use scc_sim::handoff::{pool_stats, ParkCell};
use scc_sim::ops::{apply, simulate_line, Op};
use scc_sim::{run_spmd, SimConfig, SimParams, SimStats};
use std::hint::black_box;
use std::time::Instant;

/// The per-layer metrics the probes report (the rest come from the
/// loop's counts and spans).
#[cfg(test)]
pub const NAMES: [&str; 33] = [
    "sim.engine.null_run_us",
    "sim.engine.raw_put_ns_per_event",
    "sim.engine.contended_get_ns_per_event",
    "sim.handoff.roundtrip_ns",
    "sim.handoff.pool_spawned",
    "sim.handoff.pool_reused",
    "sim.chip.calendar_append_ns",
    "sim.chip.calendar_gap_ns",
    "sim.chip.traverse_ns_per_hop",
    "sim.chip.port_ns",
    "sim.chip.mc_ns",
    "sim.chip.chip_new_us",
    "sim.ops.simulate_line_ns",
    "sim.ops.apply_ns_per_line",
    "sim.record.overhead_pct",
    "sim.record.flight_overhead_pct",
    "sim.record.obs_events_per_sim_event",
    "hal.xy_route_ns",
    "rcce.barrier_host_us",
    "rcce.sendrecv_ns_per_event",
    "model.predict_ns",
    "model.fit_us",
    "core.oc_k2_host_ms",
    "core.oc_k2_sim_us",
    "core.oc_k7_host_ms",
    "core.oc_k7_sim_us",
    "core.oc_k47_host_ms",
    "core.oc_k47_sim_us",
    "core.binomial_host_ms",
    "core.binomial_sim_us",
    "core.sag_host_ms",
    "core.sag_sim_us",
    "core.reliable_overhead_pct",
];

/// Probe results by per-layer metric name, plus what went wrong.
#[derive(Default)]
pub struct Probes {
    pub values: Vec<(&'static str, f64)>,
    pub errors: Vec<String>,
}

impl Probes {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Median wall of `f` over `reps` calls, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Median wall of one `run_spmd` of `f`, ns, with the run's stats.
fn timed_run<F>(cfg: &SimConfig, reps: usize, f: F) -> Result<(f64, SimStats), String>
where
    F: Fn(&mut scc_sim::SimCore) -> Result<(), String> + Send + Sync,
{
    let mut stats = SimStats::default();
    let mut failure = None;
    let ns = median_ns(reps, || match run_spmd(cfg, &f) {
        Ok(rep) => {
            if let Some(e) = rep.results.iter().find_map(|r| r.as_ref().err()) {
                failure = Some(e.clone());
            }
            stats = rep.stats;
        }
        Err(e) => failure = Some(e.to_string()),
    });
    match failure {
        Some(e) => Err(e),
        None => Ok((ns, stats)),
    }
}

fn tiny(num_cores: usize) -> SimConfig {
    SimConfig { num_cores, mem_bytes: 4096, ..SimConfig::default() }
}

/// `sim.engine.*`: the fixed cost of a run and the two event paths.
fn engine(p: &mut Probes) -> Result<f64, String> {
    // Worker dispatch, chip construction, start grants, teardown — no op.
    let (null_ns, _) = timed_run(&tiny(CORES), 100, |_| Ok(()))?;
    p.put("sim.engine.null_run_us", null_ns / 1e3);

    // One core, nobody to interleave with: the coalesced fast path.
    let (ns, stats) = timed_run(&tiny(2), 20, |c| {
        if c.core().index() == 0 {
            for _ in 0..10_000 {
                c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), 1).map_err(|e| format!("{e:?}"))?;
            }
        }
        Ok(())
    })?;
    p.put("sim.engine.raw_put_ns_per_event", ns / stats.events.max(1) as f64);

    // 47 cores read one MPB: every line contends, every step is a heap
    // round-trip and most are a thread handoff.
    let (ns, stats) = timed_run(&tiny(CORES), 10, |c| {
        if c.core().index() != 0 {
            for _ in 0..32 {
                c.get_to_mpb(MpbAddr::new(CoreId(0), 0), 0, 1).map_err(|e| format!("{e:?}"))?;
            }
        }
        Ok(())
    })?;
    p.put("sim.engine.contended_get_ns_per_event", ns / stats.events.max(1) as f64);
    Ok(null_ns)
}

/// `sim.handoff.*`: one baton round trip between two host threads.
fn handoff(p: &mut Probes) {
    const ROUND_TRIPS: usize = 20_000;
    let (ping, pong) = (ParkCell::<u32>::new(), ParkCell::<u32>::new());
    let ns = std::thread::scope(|s| {
        s.spawn(|| {
            while let Ok(v) = ping.take() {
                if pong.put(v).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        for i in 0..ROUND_TRIPS as u32 {
            if ping.put(i).is_err() || pong.take() != Ok(i) {
                p.errors.push("ParkCell ping-pong lost a value".to_string());
                break;
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        ping.close();
        ns
    });
    p.put("sim.handoff.roundtrip_ns", ns / ROUND_TRIPS as f64);
    let pool = pool_stats();
    p.put("sim.handoff.pool_spawned", pool.spawned as f64);
    p.put("sim.handoff.pool_reused", pool.reused as f64);
}

/// `sim.chip.*` and `sim.ops.*`: the reservation calendar, the mesh,
/// the port, the memory controller and the per-line op simulation.
fn chip_and_ops(p: &mut Probes) {
    const N: u64 = 200_000;
    let service = Time::from_ns(4);
    let step = Time::from_ns(100);

    // Arrivals in time order, each after every outstanding slot.
    let mut cal = Calendar::default();
    let append_ns = median_ns(5, || {
        let mut t = Time::ZERO;
        for _ in 0..N {
            black_box(cal.reserve(t, service, t));
            t += step;
        }
        cal = Calendar::default();
    }) / N as f64;
    p.put("sim.chip.calendar_append_ns", append_ns);

    // A later booking first, then an arrival before it: the second
    // call takes the gap search. Reported net of the append it rides on.
    let pair_ns = median_ns(5, || {
        let mut t = Time::ZERO;
        for _ in 0..N {
            black_box(cal.reserve(t + Time::from_ns(50), service, t));
            black_box(cal.reserve(t + Time::from_ns(10), service, t));
            t += step;
        }
        cal = Calendar::default();
    }) / N as f64;
    p.put("sim.chip.calendar_gap_ns", (pair_ns - append_ns).max(0.0));

    let tiles: Vec<Tile> = (0..24).map(Tile::from_index).collect();
    let fresh = || Chip::new(SimParams::default(), CORES, 4096);
    let mut chip = fresh();
    let hops: usize = tiles.iter().flat_map(|a| tiles.iter().map(|b| a.xy_route(*b).count())).sum();
    const SWEEPS: usize = 50;
    let ns = median_ns(5, || {
        let mut t = Time::ZERO;
        for _ in 0..SWEEPS {
            for &a in &tiles {
                for &b in &tiles {
                    chip.set_prune_horizon(t);
                    black_box(chip.traverse(CoreId(0), t, a, b));
                    t += step;
                }
            }
        }
        chip = fresh();
    });
    p.put("sim.chip.traverse_ns_per_hop", ns / (SWEEPS * hops) as f64);

    let ns = median_ns(5, || {
        let mut t = Time::ZERO;
        for i in 0..N {
            chip.set_prune_horizon(t);
            black_box(chip.port_read(CoreId(0), t, tiles[(i % 24) as usize]));
            t += step;
        }
        chip = fresh();
    });
    p.put("sim.chip.port_ns", ns / N as f64);

    let ns = median_ns(5, || {
        let mut t = Time::ZERO;
        for i in 0..N {
            chip.set_prune_horizon(t);
            black_box(chip.mc_service(
                CoreId(0),
                t,
                MemController::ALL[(i % 4) as usize],
                i % 2 == 0,
            ));
            t += step;
        }
        chip = fresh();
    });
    p.put("sim.chip.mc_ns", ns / N as f64);

    // The size every broadcast of the benchmark constructs.
    let ns = median_ns(200, || {
        black_box(Chip::new(SimParams::default(), CORES, 1 << 18));
    });
    p.put("sim.chip.chip_new_us", ns / 1e3);

    // One line of a put from the issuer's MPB to the far corner.
    let put = Op::PutFromMpb { src_line: 0, dst: MpbAddr::new(CoreId(47), 0), lines: 1 };
    let ns = median_ns(5, || {
        let mut t = Time::ZERO;
        for _ in 0..N {
            chip.set_prune_horizon(t);
            t = black_box(simulate_line(&mut chip, CoreId(0), &put, t));
        }
        chip = fresh();
    });
    p.put("sim.ops.simulate_line_ns", ns / N as f64);

    const LINES: usize = 16;
    let put = Op::PutFromMpb { src_line: 0, dst: MpbAddr::new(CoreId(5), 0), lines: LINES };
    let ns = median_ns(5, || {
        for _ in 0..N / 10 {
            black_box(apply(&mut chip, CoreId(0), &put));
        }
    });
    p.put("sim.ops.apply_ns_per_line", ns / (N / 10) as f64 / LINES as f64);
}

/// `sim.record.*`: the same broadcast with recording off, on, and in
/// the flight-recorder ring, repetitions interleaved.
fn recording(p: &mut Probes) -> Result<(), String> {
    let spec = BcastSpec::reference(Algorithm::oc_with_k(7), 96);
    let tr = Tracer::new();
    let modes = [Recording::Off, Recording::Full, Recording::Flight(4096)];
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let mut ratio = 0.0;
    for _ in 0..7 {
        for (mode, wall) in modes.iter().zip(&mut walls) {
            let t0 = Instant::now();
            let run = sim_bcast(&spec, *mode, &tr, "sim.run_spmd", SpanId::NONE)?;
            wall.push(t0.elapsed().as_nanos() as f64);
            if *mode == Recording::Full {
                ratio = run.events.map_or(0, |e| e.len()) as f64 / run.stats.events.max(1) as f64;
            }
        }
    }
    let [off, full, flight] = walls.map(|w| median(&w).unwrap_or(0.0));
    p.put("sim.record.overhead_pct", 100.0 * (full - off) / off);
    p.put("sim.record.flight_overhead_pct", 100.0 * (flight - off) / off);
    p.put("sim.record.obs_events_per_sim_event", ratio);
    Ok(())
}

/// `hal.*`, `rcce.*`, `model.*`: small shares of `registry_slice`.
fn small_layers(p: &mut Probes, null_run_ns: f64) -> Result<(), String> {
    let tiles: Vec<Tile> = (0..24).map(Tile::from_index).collect();
    const SWEEPS: usize = 200;
    let ns = median_ns(5, || {
        for _ in 0..SWEEPS {
            for &a in &tiles {
                for &b in &tiles {
                    black_box(black_box(a).xy_route(black_box(b)).count());
                }
            }
        }
    });
    p.put("hal.xy_route_ns", ns / (SWEEPS * 24 * 24) as f64);

    // Host cost of one 48-core barrier episode, net of the empty run.
    const EPISODES: usize = 20;
    let (ns, _) = timed_run(&tiny(CORES), 10, |c| {
        let mut alloc = MpbAllocator::new();
        let mut bar = Barrier::new(&mut alloc, CORES).map_err(|e| format!("{e:?}"))?;
        for _ in 0..EPISODES {
            bar.wait(c).map_err(|e| format!("{e:?}"))?;
        }
        Ok(())
    })?;
    p.put("rcce.barrier_host_us", (ns - null_run_ns).max(0.0) / EPISODES as f64 / 1e3);

    // Two-sided send/receive of 768 CL between two cores.
    let msg = MemRange::new(0, 768 * 32);
    let cfg = SimConfig { num_cores: 2, mem_bytes: 1 << 16, ..SimConfig::default() };
    let (ns, stats) = timed_run(&cfg, 20, |c| {
        let mut alloc = MpbAllocator::new();
        let comm = RcceComm::new(&mut alloc, 2).map_err(|e| format!("{e:?}"))?;
        match c.core().index() {
            0 => comm.send(c, CoreId(1), msg),
            _ => comm.recv(c, CoreId(0), msg),
        }
        .map_err(|e| format!("{e:?}"))
    })?;
    p.put("rcce.sendrecv_ns_per_event", ns / stats.events.max(1) as f64);

    let predictor = Predictor::paper();
    const PREDICTIONS: usize = 3 * 192;
    let ns = median_ns(20, || {
        for k in [2, 7, 47] {
            for lines in 1..=192 {
                black_box(predictor.oc_latency_us(CORES, black_box(lines), k));
            }
        }
    });
    p.put("model.predict_ns", ns / PREDICTIONS as f64);

    // Fit Table 1 back from samples the model itself generated.
    let m = P2p::new(ModelParams::paper());
    let mut s = FitSamples::default();
    for d in 1..=9 {
        s.mpb_read.push((d, m.c_mpb_r(d)));
    }
    for d in 1..=4 {
        s.mem_read.push((d, m.c_mem_r(d)));
        s.mem_write.push((d, m.c_mem_w(d)));
    }
    for lines in [1, 4, 8, 16] {
        for d in [1, 3, 5, 9] {
            s.put_mpb.push((lines, d, m.c_put_mpb(lines, d)));
            s.get_mpb.push((lines, d, m.c_get_mpb(lines, d)));
        }
        for d in [1, 2, 4] {
            s.put_mem.push((lines, d, 1, m.c_put_mem(lines, d, 1)));
            s.get_mem.push((lines, 1, d, m.c_get_mem(lines, 1, d)));
        }
    }
    fit_params(&s).map_err(|e| format!("fit_params: {e:?}"))?;
    let ns = median_ns(50, || {
        black_box(fit_params(black_box(&s)).is_ok());
    });
    p.put("model.fit_us", ns / 1e3);
    Ok(())
}

/// Simulated makespan of one fault-free reliable OC-Bcast k=7.
fn reliable_makespan(lines: usize) -> Result<Time, String> {
    let spec = BcastSpec::reference(Algorithm::oc_with_k(7), lines);
    let range = MemRange::new(0, spec.payload.len());
    let cfg = SimConfig { num_cores: CORES, mem_bytes: 1 << 18, ..SimConfig::default() };
    let rep = run_spmd(&cfg, |c| -> Result<bool, String> {
        let mut alloc = MpbAllocator::new();
        let mut b = OcBcast::new_reliable(&mut alloc, OcConfig::with_k(7), Reliability::standard())
            .map_err(|e| format!("{e:?}"))?;
        if c.core() == spec.root {
            c.mem_write(0, &spec.payload).map_err(|e| format!("{e:?}"))?;
        }
        b.bcast_reliable(c, spec.root, range).map_err(|e| format!("{e:?}"))?;
        Ok(c.mem_to_vec(range).map_err(|e| format!("{e:?}"))? == spec.payload)
    })
    .map_err(|e| e.to_string())?;
    match rep.results.iter().position(|r| r != &Ok(true)) {
        Some(core) => Err(format!("reliable broadcast: core {core}: {:?}", rep.results[core])),
        None => Ok(rep.makespan),
    }
}

/// `core.*`: each protocol once at the workload's message size, root 0.
fn protocols(p: &mut Probes, lines: usize) -> Result<(), String> {
    let algs = [
        ("core.oc_k2_host_ms", "core.oc_k2_sim_us", Algorithm::oc_with_k(2)),
        ("core.oc_k7_host_ms", "core.oc_k7_sim_us", Algorithm::oc_with_k(7)),
        ("core.oc_k47_host_ms", "core.oc_k47_sim_us", Algorithm::oc_with_k(47)),
        ("core.binomial_host_ms", "core.binomial_sim_us", Algorithm::Binomial),
        ("core.sag_host_ms", "core.sag_sim_us", Algorithm::ScatterAllgather),
    ];
    let tr = Tracer::new();
    let mut plain_k7 = Time::ZERO;
    for (host, sim, alg) in algs {
        let spec = BcastSpec::reference(alg, lines);
        let mut makespan = Ok(Time::ZERO);
        let ns = median_ns(3, || {
            makespan = sim_bcast(&spec, Recording::Off, &tr, "sim.run_spmd", SpanId::NONE)
                .map(|r| r.makespan);
        });
        let makespan = makespan.map_err(|e| format!("{} {lines} CL: {e}", alg.label()))?;
        p.put(host, ns / 1e6);
        p.put(sim, makespan.as_us_f64());
        if alg == Algorithm::oc_with_k(7) {
            plain_k7 = makespan;
        }
    }
    let reliable = reliable_makespan(lines)?;
    let overhead = reliable.as_us_f64() - plain_k7.as_us_f64();
    p.put("core.reliable_overhead_pct", 100.0 * overhead / plain_k7.as_us_f64());
    Ok(())
}

/// Run every probe. `lines` is the workload's message size.
pub fn run(lines: usize) -> Probes {
    let mut p = Probes::default();
    let null_run_ns = match engine(&mut p) {
        Ok(ns) => ns,
        Err(e) => {
            p.errors.push(format!("engine probes: {e}"));
            0.0
        }
    };
    handoff(&mut p);
    chip_and_ops(&mut p);
    if let Err(e) = recording(&mut p) {
        p.errors.push(format!("recording probes: {e}"));
    }
    if let Err(e) = small_layers(&mut p, null_run_ns) {
        p.errors.push(format!("small-layer probes: {e}"));
    }
    if let Err(e) = protocols(&mut p, lines) {
        p.errors.push(format!("protocol probes: {e}"));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_finite_positive_number() {
        let p = run(4);
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        for (name, v) in &p.values {
            let may_be_zero = ["sim.chip.calendar_gap_ns", "rcce.barrier_host_us"].contains(name)
                || name.ends_with("overhead_pct");
            assert!(v.is_finite() && (*v > 0.0 || may_be_zero), "{name} = {v}");
        }
        // Exactly the announced names, each a declared per-layer metric.
        let mut names: Vec<&str> = p.values.iter().map(|(n, _)| *n).collect();
        let mut announced = NAMES.to_vec();
        names.sort_unstable();
        announced.sort_unstable();
        assert_eq!(names, announced);
        for n in NAMES {
            assert!(crate::manifest::PER_LAYER.iter().any(|m| m.name == n), "{n} undeclared");
        }
        assert!(p.get("core.sag_sim_us") > p.get("core.oc_k7_sim_us"));
    }
}
