//! Chrome `trace_event` JSON export (the format Perfetto and
//! `chrome://tracing` load natively).
//!
//! Layout: process 0 holds one track (tid) per simulated core, carrying
//! its timed ops, computes, protocol-phase spans and parked intervals;
//! process 1 holds one track per **contended** resource — an MPB port,
//! router or memory controller on which at least one packet queued —
//! carrying every service booking on that resource. Uncontended
//! resources are omitted to keep traces lean; the utilization CSV (see
//! [`crate::series`]) still covers them.
//!
//! Timestamps: the format's `ts`/`dur` are microseconds; we print six
//! decimal places, which is exactly the engine's picosecond resolution —
//! and print them from the integer picoseconds (`ps / 10^6`, a point,
//! `ps % 10^6` zero-padded), which is exact for every `u64` and equal to
//! the `{:.6}` rendering of `ps as f64 / 1e6` for every `ps < 2^52`
//! (≈ 75 simulated minutes; beyond that it is the float that rounds).
//!
//! The writer is one pass into one `String`: every event is appended
//! in place, piece by piece, with no per-event temporaries.

use crate::event::{ObsEvent, ResourceId};
use crate::lanes::{Closed, Lanes};
use crate::percore::PerCore;
use scc_hal::Time;
use std::fmt::{self, Write as _};

/// Track (tid) layout inside the resource process: stable, readable
/// ordering — ports first, then routers, then memory controllers.
fn resource_tid(r: ResourceId) -> usize {
    match r {
        ResourceId::Port(i) => i as usize,
        ResourceId::Router(i) => 100 + i as usize,
        ResourceId::Mc(i) => 200 + i as usize,
    }
}

/// Append `v` in decimal, left-padded with zeros to `width` digits.
fn push_uint(out: &mut String, mut v: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    for &digit in &buf[i.min(buf.len() - width)..] {
        out.push(digit as char);
    }
}

/// Append `t` as microseconds with six decimals.
fn push_us(out: &mut String, t: Time) {
    push_uint(out, t.as_ps() / 1_000_000, 1);
    out.push('.');
    push_uint(out, t.as_ps() % 1_000_000, 6);
}

/// How a complete ("X") and a thread-scoped instant ("i") event open.
const COMPLETE: &str = "{\"ph\":\"X\",\"pid\":";
const INSTANT: &str = "{\"ph\":\"i\",\"s\":\"t\",\"pid\":";

/// The output document under construction. An event is written as
/// `complete`/`instant`, then zero or more `arg_*`, then `close` —
/// or, for what [`Lanes`] closed, as one `closed`.
struct Emitter {
    out: String,
    first: bool,
    in_args: bool,
}

impl Emitter {
    fn new(events: usize) -> Emitter {
        // ≈ 123 bytes per event in practice; one allocation up front
        // instead of a dozen doublings of a multi-megabyte buffer.
        let mut out = String::with_capacity(events * 128 + 256);
        out.push_str("{\"traceEvents\":[");
        Emitter { out, first: true, in_args: false }
    }

    /// The comma between two elements of `traceEvents`.
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    /// `{"ph":…,"pid":P,"tid":T,"cat":"C","name":"` — `open` is the
    /// text up to the pid; the name and the closing quote are the
    /// caller's.
    fn head(&mut self, open: &str, pid: u32, tid: usize, cat: &str) {
        self.separate();
        self.out.push_str(open);
        push_uint(&mut self.out, pid as u64, 1);
        self.out.push_str(",\"tid\":");
        push_uint(&mut self.out, tid as u64, 1);
        self.out.push_str(",\"cat\":\"");
        self.out.push_str(cat);
        self.out.push_str("\",\"name\":\"");
    }

    fn ts(&mut self, at: Time) {
        self.out.push_str("\",\"ts\":");
        push_us(&mut self.out, at);
    }

    fn ts_dur(&mut self, start: Time, end: Time) {
        self.ts(start);
        self.out.push_str(",\"dur\":");
        push_us(&mut self.out, end.saturating_sub(start));
    }

    /// A complete ("X") event.
    fn complete(&mut self, pid: u32, tid: usize, cat: &str, name: &str, start: Time, end: Time) {
        self.head(COMPLETE, pid, tid, cat);
        self.out.push_str(name);
        self.ts_dur(start, end);
    }

    /// What [`Lanes`] closed, as a complete event on its core's track:
    /// a protocol-phase span, or a parked interval carrying the wake's
    /// line and writer.
    fn closed(&mut self, closed: Closed) {
        match closed {
            Closed::Span { core, span, begin, end, .. } => {
                self.head(COMPLETE, 0, core.index(), "phase");
                self.out.push_str(span.phase.name());
                self.out.push(' ');
                push_uint(&mut self.out, span.arg as u64, 1);
                self.ts_dur(begin, end);
            }
            Closed::Park { core, begin, end, wake } => {
                self.complete(0, core.index(), "sched", "parked", begin, end);
                if let Some((line, writer)) = wake {
                    self.arg_uint("line", line);
                    self.arg_uint("writer", writer.index());
                }
            }
        }
        self.close();
    }

    /// An instant ("i") thread-scoped event.
    fn instant(&mut self, pid: u32, tid: usize, cat: &str, name: &str, at: Time) {
        self.head(INSTANT, pid, tid, cat);
        self.out.push_str(name);
        self.ts(at);
    }

    fn arg_key(&mut self, key: &str) {
        self.out.push_str(if self.in_args { ",\"" } else { ",\"args\":{\"" });
        self.in_args = true;
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    fn arg_uint(&mut self, key: &str, v: usize) {
        self.arg_key(key);
        push_uint(&mut self.out, v as u64, 1);
    }

    fn arg_us(&mut self, key: &str, t: Time) {
        self.arg_key(key);
        push_us(&mut self.out, t);
    }

    fn close(&mut self) {
        self.out.push_str(if self.in_args { "}}" } else { "}" });
        self.in_args = false;
    }

    fn metadata(&mut self, pid: u32, tid: Option<usize>, what: &str, name: fmt::Arguments<'_>) {
        self.separate();
        let _ = write!(self.out, "{{\"ph\":\"M\",\"pid\":{pid}");
        if let Some(t) = tid {
            let _ = write!(self.out, ",\"tid\":{t}");
        }
        let _ = write!(self.out, ",\"name\":\"{what}\",\"args\":{{\"name\":\"{name}\"}}}}");
    }

    fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ns\"}");
        self.out
    }
}

/// Render a recorded event stream as Chrome `trace_event` JSON.
pub fn chrome_trace_json(events: &[ObsEvent]) -> String {
    let mut cores: PerCore<bool> = PerCore::new();
    // By dense resource index.
    let mut contended = [false; ResourceId::SLOTS];
    let mut horizon = Time::ZERO;
    for ev in events {
        horizon = horizon.max(ev.at());
        // A booking names a resource track; every other event names
        // the core track(s) it is drawn on.
        if let ObsEvent::Wait { resource, arrival, start, .. } = *ev {
            contended[resource.index()] |= start > arrival;
        } else {
            let (actor, other) = ev.cores();
            *cores.at(actor) = true;
            if let Some(other) = other {
                *cores.at(other) = true;
            }
        }
    }

    let mut em = Emitter::new(events.len());
    em.metadata(0, None, "process_name", format_args!("cores"));
    em.metadata(1, None, "process_name", format_args!("resources"));
    for (c, _) in cores.iter().filter(|(_, &seen)| seen) {
        em.metadata(0, Some(c.index()), "thread_name", format_args!("core {}", c.index()));
    }
    for r in ResourceId::all().filter(|r| contended[r.index()]) {
        em.metadata(1, Some(resource_tid(r)), "thread_name", format_args!("{r}"));
    }

    let mut lanes = Lanes::default();
    for ev in events {
        match *ev {
            ObsEvent::Op { core, kind, lines, start, end, .. } => {
                em.complete(0, core.index(), "op", kind.short(), start, end);
                em.arg_uint("lines", lines);
                em.close();
            }
            ObsEvent::Compute { core, start, end } => {
                em.complete(0, core.index(), "op", "compute", start, end);
                em.close();
            }
            // Park intervals and phase spans are drawn when they close.
            ObsEvent::Park { .. }
            | ObsEvent::Wake { .. }
            | ObsEvent::SpanBegin { .. }
            | ObsEvent::SpanEnd { .. } => {
                if let Some(closed) = lanes.step(ev) {
                    em.closed(closed);
                }
            }
            ObsEvent::Handoff { from, to, at } => {
                em.instant(0, to.index(), "sched", "handoff", at);
                em.arg_uint("from", from.index());
                em.close();
            }
            ObsEvent::Wait { core, resource, arrival, start, end, .. } => {
                if contended[resource.index()] {
                    em.complete(1, resource_tid(resource), "svc", resource.class(), start, end);
                    em.arg_uint("core", core.index());
                    em.arg_us("wait_us", start.saturating_sub(arrival));
                    em.close();
                }
            }
            ObsEvent::Finish { core, at } => {
                em.instant(0, core.index(), "sched", "finish", at);
                em.close();
            }
            ObsEvent::Fault { core, kind, at, lost } => {
                em.instant(0, core.index(), "fault", kind.name(), at);
                em.arg_us("lost_us", lost);
                em.close();
            }
            // Delivery windows are a journey-level concept; the Chrome
            // export keeps its committed shape and leaves them to the
            // `journey`/`skew` reports. Commit/sample events duplicate
            // the ops that caused them — the audit layer's concern.
            ObsEvent::DeliveryBegin { .. }
            | ObsEvent::DeliveryEnd { .. }
            | ObsEvent::MpbWrite { .. }
            | ObsEvent::FlagSample { .. } => {}
        }
    }

    // Close anything left open (deadlocked parks, unbalanced spans) at
    // the horizon so the trace stays well-formed.
    for closed in lanes.finish(horizon) {
        em.closed(closed);
    }

    em.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use crate::report::validate_json;
    use scc_hal::{CoreId, Phase, Span};

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    /// The float rendering the integer printer replaced — kept as the
    /// oracle: the two agree wherever `ps as f64` is exact and the
    /// `{:.6}` rounding of the quotient lands on the true digits.
    fn us_reference(t: Time) -> String {
        format!("{:.6}", t.as_us_f64())
    }

    fn us(ps: u64) -> String {
        let mut out = String::new();
        push_us(&mut out, Time::from_ps(ps));
        out
    }

    #[test]
    fn integer_us_printing_matches_the_float_reference_at_the_edges() {
        for ps in [0, 1, 999_999, 1_000_000, 1_000_000_000_000, (1 << 52) - 1] {
            assert_eq!(us(ps), us_reference(Time::from_ps(ps)), "{ps} ps");
        }
        assert_eq!(us(0), "0.000000");
        assert_eq!(us(1_000_001), "1.000001");
        // Past 2^53 the float form is the inexact one; the integer form
        // stays the true decimal.
        assert_eq!(us(u64::MAX), "18446744073709.551615");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 4096, ..Default::default() })]

        /// Every magnitude below the 2^52 ps bound, not just the huge
        /// values a uniform draw would produce.
        #[test]
        fn integer_us_printing_matches_the_float_reference(bits in 1u32..=52, raw in 0u64..u64::MAX) {
            let ps = raw & ((1u64 << bits) - 1);
            proptest::prop_assert_eq!(us(ps), us_reference(Time::from_ps(ps)), "{} ps", ps);
        }
    }

    #[test]
    fn exports_valid_json_with_tracks() {
        let events = vec![
            ObsEvent::SpanBegin {
                core: CoreId(0),
                span: Span::new(Phase::Dissemination, 0),
                at: ns(0),
            },
            ObsEvent::Op {
                core: CoreId(0),
                kind: OpKind::PutFromMem,
                lines: 4,
                start: ns(0),
                end: ns(400),
                msg: None,
            },
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Port(5),
                arrival: ns(50),
                start: ns(70),
                end: ns(80),
                link: None,
            },
            ObsEvent::SpanEnd {
                core: CoreId(0),
                span: Span::new(Phase::Dissemination, 0),
                at: ns(400),
            },
            ObsEvent::Park { core: CoreId(1), line: 0, at: ns(10) },
            ObsEvent::Wake { core: CoreId(1), line: 0, at: ns(400), writer: CoreId(0) },
            ObsEvent::Handoff { from: CoreId(0), to: CoreId(1), at: ns(400) },
            ObsEvent::Finish { core: CoreId(1), at: ns(450) },
        ];
        let json = chrome_trace_json(&events);
        validate_json(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("core 0"), "core track metadata missing");
        assert!(json.contains("port[5]"), "contended resource track missing");
        assert!(json.contains("disseminate 0"), "phase span missing");
        assert!(json.contains("\"parked\""), "park interval missing");
        assert!(json.contains("\"handoff\""));
    }

    #[test]
    fn uncontended_resources_are_omitted() {
        let events = vec![
            ObsEvent::Op {
                core: CoreId(0),
                kind: OpKind::FlagPut,
                lines: 1,
                start: ns(0),
                end: ns(30),
                msg: None,
            },
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Router(2),
                arrival: ns(5),
                start: ns(5), // no queueing
                end: ns(6),
                link: None,
            },
        ];
        let json = chrome_trace_json(&events);
        validate_json(&json).unwrap();
        assert!(!json.contains("router[2]"), "{json}");
    }

    #[test]
    fn unclosed_spans_and_parks_are_closed_at_horizon() {
        let events = vec![
            ObsEvent::SpanBegin { core: CoreId(0), span: Span::of(Phase::Drain), at: ns(10) },
            ObsEvent::Park { core: CoreId(0), line: 3, at: ns(20) },
            ObsEvent::Finish { core: CoreId(1), at: ns(100) },
        ];
        let json = chrome_trace_json(&events);
        validate_json(&json).unwrap();
        assert!(json.contains("drain 0"));
        assert!(json.contains("parked"));
    }
}
