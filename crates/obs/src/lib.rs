//! # scc-obs — structured tracing & metrics for the OC-Bcast suite
//!
//! The paper's whole argument (Sections 3, 5–6 of *"High-Performance
//! RMA-Based Broadcast on the Intel SCC"*) is about *where time goes*:
//! core overhead `o`, mesh hop latency `L_hop`, and MPB-port
//! contention. This crate turns every simulated run into an inspectable
//! record of exactly that:
//!
//! * [`event`] — the typed event model: every timed op, every resource
//!   booking (with the resource id and the queueing wait), park/wake
//!   pairs, coroutine handoffs, protocol-phase spans, all at picosecond
//!   resolution, behind the cheap-when-disabled [`Recorder`] trait;
//! * [`percore`] — [`PerCore`], the dense `CoreId`-indexed table every
//!   stream walker below keeps its per-core state in (iteration in
//!   core order is structural, not a sort);
//! * [`lanes`] — [`Lanes`], the one stepper that pairs span begins
//!   with ends and parks with wakes under the five span/park walkers;
//! * [`trace`] — the text Gantt and per-core summary of the `Op` events;
//! * [`chrome`] — Chrome `trace_event` JSON export (loads in Perfetto):
//!   one track per core, one per contended resource, phase spans and
//!   parked intervals on the core tracks;
//! * [`series`] — bucketed per-resource utilization / queue-depth time
//!   series (CSV), the measurement behind the paper's Figure 6;
//! * [`critpath`] — a critical-path extractor that walks the event
//!   dependency graph backwards from the last receiver and attributes
//!   the end-to-end latency to op service vs. port/router/MC queueing
//!   vs. compute vs. idle;
//! * [`report`] — a tiny JSON builder + strict parser for the
//!   machine-readable `BENCH_figures.json` report and the JSON forensic
//!   files (this workspace has no serde);
//! * [`artifact`] — the one wire codec on top of it: the [`Wire`]
//!   writer trait, its field kinds (non-negative integers, ps times,
//!   `Option`, `Vec`), the `record!` declaration `BENCH_figures.json`
//!   and the journey book are written with, the versioned scenario list
//!   of the soak dumps' journey books, and the strict `Parse` half for the
//!   one artifact read back (`BENCH_figures.json`);
//! * [`hist`] — per-phase / per-resource latency histograms with exact
//!   nearest-rank quantiles and log₂ shapes;
//! * [`flame`] — collapsed-stack flamegraph export
//!   (`core → phase nest`, consumable by inferno/speedscope);
//! * [`diff`] — differential critical paths: a (phase × resource) grid
//!   whose cell deltas sum *exactly* to the makespan delta between two
//!   runs;
//! * [`whatif`] — the [`CostClass`] taxonomy and Coz-style causal
//!   what-if profiles (sensitivity of the makespan to each simulator
//!   cost class);
//! * [`conformance`] — the structured experiment record behind the
//!   `observatory` harness: per-point paper/model/sim rows, shape
//!   checks, host self-metrics, and the CI drift gate that compares a
//!   run against a committed baseline;
//! * [`heatmap`] — per-directed-link mesh occupancy maps whose per-tile
//!   sums exactly partition the simulator's per-tile router aggregates;
//! * [`grid`] — the one 6×4 mesh-grid renderer (layout + digit
//!   rounding) shared by the heatmap and the congestion movie;
//! * [`journey`] — per-destination delivery timelines: each core's
//!   delivery window, exactly partitioned into typed legs (inject,
//!   router dwell, port service, flag notify, drain, …);
//! * [`skew`] — the delivery-time distribution, straggler
//!   identification, and per-leg root-cause attribution vs the median
//!   journey, rendered as the `<stem>_skew.md` digest of each soak
//!   forensic dump;
//! * [`movie`] — the link heatmap sliced into equal time frames, a
//!   congestion timeline (`results/movie_*.txt`);
//! * [`sketch`] — fixed-cost, deterministic, exactly mergeable log₂
//!   quantile sketches: the always-on telemetry that replaces full
//!   event streams under sustained traffic;
//! * [`slo`] — declarative per-protocol SLOs (latency/makespan
//!   budgets, zero-recovery expectation) evaluated per epoch; breaches
//!   trigger the flight recorder's forensic dumps;
//! * [`causal`] — the happens-before graph of a recorded stream
//!   (program, notification and per-resource service edges, shortest
//!   cycle witnesses);
//! * [`mod@audit`] — the ten-class invariant auditor over that graph, with
//!   non-vacuity counts and the seeded mutation harness.
//!
//! The simulator (`scc-sim`) records into this crate's [`Recorder`];
//! collectives annotate phases through `scc_hal::Rma::span_begin`; the
//! `trace` experiment in `scc-bench` drives all exporters.

pub mod artifact;
pub mod audit;
pub mod causal;
pub mod chrome;
pub mod conformance;
pub mod critpath;
pub mod diff;
pub mod event;
pub mod flame;
pub mod grid;
pub mod heatmap;
pub mod hist;
pub mod journey;
pub mod lanes;
pub mod movie;
pub mod percore;
pub mod report;
pub mod series;
pub mod sketch;
pub mod skew;
pub mod slo;
pub mod trace;
pub mod whatif;

pub use artifact::Wire;
pub use audit::{
    audit, mutate, AuditReport, AuditSpec, CheckStat, MutationClass, Violation, ViolationClass,
};
pub use causal::{actor, CausalGraph, Edge, EdgeKind};
pub use chrome::chrome_trace_json;
pub use conformance::{
    drift_gate, ConformanceReport, DriftReport, DriftViolation, ExperimentReport, ExperimentRow,
    RunMetrics, SelfMetrics, ShapeCheck,
};
pub use critpath::{
    critical_path, Breakdown, CritPathError, CriticalPath, PathSegment, SegmentKind,
};
pub use diff::{DiffCell, DiffReport, PhaseProfile};
pub use event::{EventLog, FaultKind, FlightRecorder, ObsEvent, OpKind, Recorder, ResourceId};
pub use flame::flamegraph_collapsed;
pub use heatmap::LinkHeatmap;
pub use hist::{LatencyHistogram, RunHistograms};
pub use journey::{Journey, JourneyBook, LegKind};
pub use lanes::{Closed, Lanes};
pub use movie::CongestionMovie;
pub use percore::PerCore;
pub use report::{validate_json, Json};
pub use series::{UtilBucket, UtilizationSeries};
pub use sketch::{QuantileSketch, SKETCH_BUCKETS};
pub use skew::{render_skew_markdown, RecoveryCounters, SkewReport};
pub use slo::{EpochRollup, SloBreach, SloKind, SloPolicy};
pub use trace::{render_gantt, summarize, CoreSummary};
pub use whatif::{CostClass, WhatIfPoint, WhatIfProfile};
