//! The benchmark's contract as data: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! at the repo root is rendered from these tables (`run.sh` with no
//! `--workload` rewrites it; a test keeps the committed copy in step).

use crate::workloads::WORKLOADS;
use scc_obs::Json;

/// Seconds one run measures; the same on every commit.
pub const RUN_SECONDS: u64 = 20;

/// Seed of a full run when none is given.
pub const DEFAULT_SEED: u64 = 0x5CC_2012;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Virtual time: repeats exactly whatever the seed, so `--aa`
    /// demands equality and the bound is as small as a bound can be.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact: false }
}

const fn exact_v(name: &'static str, unit: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better: Better::Lower, bound: 0.001, exact: true }
}

/// H = host time, V = simulated virtual time. Every metric is reported
/// for every workload, from the untraced pass.
///
/// The H and memory bounds are the contract's ceiling, 25 %, not the
/// 10 % the issue asked for, because the driver refuses a benchmark
/// whose ten-seed spread, or whose shift between two ten-seed medians,
/// exceeds the bound at the moment it looks. The build host is a shared
/// two-vCPU VM: calm, every H metric spreads by 1–8 %; in a noisy
/// stretch (minutes long, several a day) they spread by 13–18 % and two
/// back-to-back sets differed by 19 % in median. `peak_rss_mb` has two
/// modes 19 % apart on `registry_slice` for identical inputs. README,
/// "Steadiness", has the sets. Claims are made on ten alternating
/// parent/change pairs, whose medians resolve far less than the bound.
pub const END_TO_END: [EndToEnd; 7] = [
    // H: median host wall of one unit.
    gated("unit_wall_ms_p50", "ms", Better::Lower, 0.25),
    // H: units completed ÷ timed wall (shows stalls the median hides).
    gated("units_per_s", "1/s", Better::Higher, 0.25),
    // H: simulated events retired ÷ timed wall.
    gated("sim_events_per_s", "1/s", Better::Higher, 0.25),
    // VmHWM of the workload's own process after the first cycle.
    gated("peak_rss_mb", "MB", Better::Lower, 0.25),
    // H: everything before the timed loop, median of 3 to 15 set-ups.
    gated("setup_s", "s", Better::Lower, 0.25),
    // V: mean |sim − model| ÷ model over the reference broadcasts.
    exact_v("model_err_pct", "%"),
    // V: mean sim ÷ model over the same broadcasts — the issue's
    // `sim_makespan_us`, normalised. Signed where `model_err_pct` is
    // not: a broadcast that gets slower in simulated time always raises
    // it, also when that moves the simulation towards the model.
    exact_v("sim_makespan_rel", "ratio"),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for the same seed and code (a count or a
    /// virtual-time value): `--aa` demands equality.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: true }
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

/// Every per-layer metric, from the traced pass. A span metric of a
/// layer the workload never calls is reported as 0: that workload
/// spends no time there.
pub const PER_LAYER: &[PerLayer] = &[
    // Engine: exact counts over one cycle of the unit list, then host probes.
    exact("sim.engine.events_per_unit", "count"),
    exact("sim.engine.heap_pushes_per_unit", "count"),
    PerLayer {
        name: "sim.engine.coalesced_frac",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    },
    exact("sim.engine.handoffs_per_event", "ratio"),
    exact("sim.engine.parks_per_unit", "count"),
    exact("sim.engine.runs_per_unit", "count"),
    host("sim.engine.null_run_us", "us"),
    host("sim.engine.raw_put_ns_per_event", "ns"),
    host("sim.engine.contended_get_ns_per_event", "ns"),
    // Thread handoff.
    host("sim.handoff.roundtrip_ns", "ns"),
    host("sim.handoff.pool_spawned", "count"),
    info("sim.handoff.pool_reused", "count", Better::Higher),
    host("sim.handoff.est_share_pct", "%"),
    // Chip model and op layer: host probes, then modelled-component V stats.
    host("sim.chip.calendar_append_ns", "ns"),
    host("sim.chip.calendar_gap_ns", "ns"),
    host("sim.chip.traverse_ns_per_hop", "ns"),
    host("sim.chip.port_ns", "ns"),
    host("sim.chip.mc_ns", "ns"),
    host("sim.chip.chip_new_us", "us"),
    host("sim.ops.simulate_line_ns", "ns"),
    host("sim.ops.apply_ns_per_line", "ns"),
    exact("sim.chip.port_wait_us", "us"),
    exact("sim.chip.router_wait_us", "us"),
    exact("sim.chip.mc_wait_us", "us"),
    exact("sim.chip.port_util_pct", "%"),
    exact("sim.ops.ops_per_unit", "count"),
    exact("sim.ops.lines_per_unit", "count"),
    // Recording.
    host("sim.record.overhead_pct", "%"),
    host("sim.record.flight_overhead_pct", "%"),
    exact("sim.record.obs_events_per_sim_event", "ratio"),
    // Small layers.
    host("hal.xy_route_ns", "ns"),
    host("rcce.barrier_host_us", "us"),
    host("rcce.sendrecv_ns_per_event", "ns"),
    host("model.predict_ns", "ns"),
    host("model.fit_us", "us"),
    // Protocols at the workload's message size.
    host("core.oc_k2_host_ms", "ms"),
    host("core.oc_k7_host_ms", "ms"),
    host("core.oc_k47_host_ms", "ms"),
    host("core.binomial_host_ms", "ms"),
    host("core.sag_host_ms", "ms"),
    exact("core.oc_k2_sim_us", "us"),
    exact("core.oc_k7_sim_us", "us"),
    exact("core.oc_k47_sim_us", "us"),
    exact("core.binomial_sim_us", "us"),
    exact("core.sag_sim_us", "us"),
    exact("core.reliable_overhead_pct", "%"),
    exact("core.sim_makespan_us", "us"),
    // Analysis stack: mean self time of each span per traced unit.
    host("obs.critical_path_ms", "ms"),
    host("obs.phase_profile_ms", "ms"),
    host("obs.journey_book_ms", "ms"),
    host("obs.causal_graph_ms", "ms"),
    host("obs.audit_ms", "ms"),
    host("obs.hist_ms", "ms"),
    host("obs.chrome_json_ms", "ms"),
    info("obs.json_parse_mb_s", "MB/s", Better::Higher),
    host("obs.flame_ms", "ms"),
    host("obs.movie_ms", "ms"),
    host("obs.util_series_ms", "ms"),
    host("obs.analysis_ns_per_obs_event", "ns"),
    // Experiment harness: mean self time per traced unit.
    host("bench.exp.table1_ms", "ms"),
    host("bench.exp.fig3_ms", "ms"),
    host("bench.exp.fig4_ms", "ms"),
    host("bench.exp.fig8a_ms", "ms"),
    host("bench.exp.linkstress_ms", "ms"),
    host("bench.exp.heatmap_ms", "ms"),
    host("bench.exp.whatif_ms", "ms"),
    host("bench.exp.skew_ms", "ms"),
    host("bench.exp.faults_ms", "ms"),
    host("bench.exp.audit_ms", "ms"),
    host("bench.gate_ms", "ms"),
    host("bench.render_ms", "ms"),
    // Where a traced unit's wall goes, by layer (sums to 100).
    host("span.sim_pct", "%"),
    host("span.core_pct", "%"),
    host("span.obs_pct", "%"),
    host("span.bench_pct", "%"),
    host("span.harness_pct", "%"),
    // The harness itself, and the untraced-unit diagnostics that stay
    // outside the gate (they do not repeat within a tenth here).
    host("harness.trace_overhead_pct", "%"),
    host("harness.unit_wall_ms_p90", "ms"),
    host("harness.unit_wall_ms_tail", "ms"),
    info("harness.unit_wall_tail_pct", "%", Better::Higher),
    host("harness.unit_wall_iqr_pct", "%"),
    info("harness.samples", "count", Better::Higher),
    info("harness.pinned_cpu", "count", Better::Higher),
    info("harness.nproc", "count", Better::Higher),
    host("harness.loadavg1", "count"),
];

/// Render `BENCHMARK.json`: exactly the keys the driver's contract
/// names, one metric per line.
pub fn benchmark_json() -> String {
    fn lines(items: Vec<Json>) -> String {
        let rows: Vec<String> = items.iter().map(|j| format!("    {}", j.render())).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
    let strs =
        |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect()).render();
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::obj()
                .set("name", Json::Str(name.to_string()))
                .set("why", Json::Str(why.to_string()))
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", Json::Str(m.name.to_string()))
                .set("unit", Json::Str(m.unit.to_string()))
                .set("better", Json::Str(m.better.as_str().to_string()))
                .set("bound", Json::Num(m.bound))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", Json::Str(m.name.to_string()))
                .set("unit", Json::Str(m.unit.to_string()))
                .set("better", Json::Str(m.better.as_str().to_string()))
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(&["bash", "benchmark/run.sh"]),
        strs(&["benchmark"]),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_parses_and_has_exactly_the_contract_keys() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("valid JSON");
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_i64), Some(RUN_SECONDS as i64));
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(e2e[0].get("bound").and_then(Json::as_f64), Some(END_TO_END[0].bound));
    }

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale; `benchmark/run.sh` rewrites it"
        );
    }
}
