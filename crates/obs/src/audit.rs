//! The causal trace auditor: typed protocol-conformance checking over
//! recorded event streams.
//!
//! [`audit`] builds the happens-before graph ([`crate::causal`]) for a
//! stream and runs the invariant catalogue over it:
//!
//! * **structure** — the graph is acyclic and every edge runs forward
//!   in virtual time (service edges additionally demand disjoint
//!   service intervals per resource, and every booking's service
//!   starts no earlier than its arrival);
//! * **spans** — protocol phases nest LIFO per core and every opened
//!   span closes;
//! * **park/wake** — parks and wakes alternate per core; every park
//!   follows a failed poll ([`ObsEvent::FlagSample`]) of the same
//!   line; a remote wake coincides with a covering
//!   [`ObsEvent::MpbWrite`] by its writer; a commit that covers a
//!   parked core's watched line wakes it at that very instant (no lost
//!   wakeups); after a remote wake the woken core's next operation
//!   re-polls the watched line;
//! * **commits** — every write-kind operation commits an `MpbWrite`
//!   at its completion instant, XOR (for remote flag deposits under a
//!   fault plan) records a [`FaultKind::LostNotification`] — so a
//!   deleted fault event is precisely detectable;
//! * **flag values** — a poll observes exactly the last value
//!   committed to that line (when the event model knows it);
//! * **delivery** — every op tagged with epoch *e* executes inside its
//!   issuer's open delivery window for *e*; windows open and close
//!   exactly once; the last close equals the run's makespan when the
//!   caller supplies one;
//! * **faults** — timeout self-wakes appear only under a reliability
//!   policy, never in healthy runs, and chain back to an injected
//!   fault; fault events appear only under a fault plan.
//!
//! [`AuditSpec::window`] enables truncated-prefix tolerance for
//! flight-recorder dumps: dangling edges into the pre-window past are
//! admissible (a close without its open, a wake without its park, a
//! commit whose op predates the window), internal violations are not.
//!
//! The auditor is proven non-vacuous by the seeded [`mutate`] harness:
//! each [`MutationClass`] corrupts a recorded stream in one structured
//! way, and the audit must report the matching [`ViolationClass`].

use crate::causal::{CausalGraph, EdgeKind};
use crate::event::{FaultKind, ObsEvent, OpKind};
use crate::percore::PerCore;
use scc_hal::{CoreId, Span, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What kind of run the stream under audit recorded. The checkers need
/// to know which behaviours are protocol (timeouts, faults) and which
/// are corruption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditSpec {
    /// The reliability layer was armed (timeout timers exist, recovery
    /// probes and re-notifies are legitimate traffic).
    pub reliable: bool,
    /// A fault plan was active: `Fault` events are expected and
    /// timeout self-wakes must chain back to one.
    pub faulted: bool,
    /// The stream is a flight-recorder window, not a full run: apply
    /// truncated-prefix tolerance.
    pub window: bool,
    /// The run's known makespan; when present, the last delivery-window
    /// close must equal it.
    pub makespan: Option<Time>,
}

impl AuditSpec {
    /// A plain (unreliable, fault-free) full recorded run.
    pub fn plain() -> AuditSpec {
        AuditSpec::default()
    }

    /// A reliable run without injected faults.
    pub fn reliable() -> AuditSpec {
        AuditSpec { reliable: true, ..AuditSpec::default() }
    }

    /// A reliable run under an active fault plan.
    pub fn faulted() -> AuditSpec {
        AuditSpec { reliable: true, faulted: true, ..AuditSpec::default() }
    }

    /// Builder: expect the last delivery close at `m`.
    pub fn with_makespan(mut self, m: Time) -> AuditSpec {
        self.makespan = Some(m);
        self
    }

    /// Builder: audit a flight-recorder window of this run kind.
    pub fn windowed(mut self) -> AuditSpec {
        self.window = true;
        self
    }
}

/// Typed classification of one invariant violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationClass {
    /// Span opens/closes do not nest LIFO per core.
    SpanNesting,
    /// Park/wake alternation broke (double park, wake without park,
    /// park without a failed poll, wake without a covering commit).
    ParkWake,
    /// A commit covered a parked core's watched line but no wake
    /// followed at that instant.
    LostWakeup,
    /// The per-line flag state machine broke (stale sample value, no
    /// re-poll after a wake).
    FlagProtocol,
    /// A write-kind op neither committed nor recorded a lost
    /// notification (or committed more than it executed).
    CommitFault,
    /// Resource service order broke: overlapping service intervals or
    /// service before arrival.
    Resource,
    /// A tagged op ran outside its delivery window, a window
    /// opened/closed out of protocol, or the last close missed the
    /// makespan.
    Delivery,
    /// A happens-before edge runs backwards in virtual time.
    TimeOrder,
    /// The happens-before graph has a cycle.
    Cycle,
    /// Fault/recovery mismatch: timeouts without a reliability policy,
    /// recoveries in a healthy run, faults without a fault plan, or a
    /// recovery that chains back to no injected fault.
    FaultRecovery,
}

impl ViolationClass {
    pub const ALL: [ViolationClass; 10] = [
        ViolationClass::SpanNesting,
        ViolationClass::ParkWake,
        ViolationClass::LostWakeup,
        ViolationClass::FlagProtocol,
        ViolationClass::CommitFault,
        ViolationClass::Resource,
        ViolationClass::Delivery,
        ViolationClass::TimeOrder,
        ViolationClass::Cycle,
        ViolationClass::FaultRecovery,
    ];

    pub const fn name(&self) -> &'static str {
        match self {
            ViolationClass::SpanNesting => "span-nesting",
            ViolationClass::ParkWake => "park-wake",
            ViolationClass::LostWakeup => "lost-wakeup",
            ViolationClass::FlagProtocol => "flag-protocol",
            ViolationClass::CommitFault => "commit-fault",
            ViolationClass::Resource => "resource",
            ViolationClass::Delivery => "delivery",
            ViolationClass::TimeOrder => "time-order",
            ViolationClass::Cycle => "cycle",
            ViolationClass::FaultRecovery => "fault-recovery",
        }
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant violation, anchored at a virtual instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub class: ViolationClass,
    pub at: Time,
    pub detail: String,
}

/// How much evidence one checker examined (zero-checked checkers make
/// vacuous passes visible).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckStat {
    pub name: &'static str,
    pub checked: u64,
}

/// The audit verdict for one stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    pub events: u64,
    pub edges: u64,
    pub checks: Vec<CheckStat>,
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Distinct violation classes present, sorted.
    pub fn classes(&self) -> BTreeSet<ViolationClass> {
        self.violations.iter().map(|v| v.class).collect()
    }

    /// Total invariant instances examined across all checkers.
    pub fn checked(&self) -> u64 {
        self.checks.iter().map(|c| c.checked).sum()
    }

    /// One-line digest for logs and shape-check details.
    pub fn summary(&self) -> String {
        format!(
            "{} events, {} edges, {} checks → {} violation(s)",
            self.events,
            self.edges,
            self.checked(),
            self.violations.len()
        )
    }
}

const WRITE_KINDS: [OpKind; 4] =
    [OpKind::PutFromMem, OpKind::PutFromMpb, OpKind::GetToMpb, OpKind::FlagPut];

/// Events that carry the engine's recording instant and therefore
/// delimit per-instant commit/wake groups. `Wait` (anchored at
/// arrival), `Compute` (anchored at a future end), span and delivery
/// marks (core clock), and mid-op delay faults do not participate.
fn group_instant(ev: &ObsEvent) -> Option<Time> {
    match *ev {
        ObsEvent::Op { end, .. } => Some(end),
        ObsEvent::Park { at, .. }
        | ObsEvent::Wake { at, .. }
        | ObsEvent::Handoff { at, .. }
        | ObsEvent::MpbWrite { at, .. }
        | ObsEvent::FlagSample { at, .. }
        | ObsEvent::Finish { at, .. } => Some(at),
        ObsEvent::Fault { kind: FaultKind::LostNotification, at, .. } => Some(at),
        _ => None,
    }
}

/// The state of `epoch`'s delivery window in one core's epoch-sorted
/// row: 0 when the epoch has no entry.
fn window_of(row: &[(u32, u8)], epoch: u32) -> u8 {
    row.binary_search_by_key(&epoch, |w| w.0).map_or(0, |i| row[i].1)
}

/// Set `epoch`'s window state in one core's row, keeping the row sorted
/// by epoch; returns the state it had (0 when it had none).
fn set_window(row: &mut Vec<(u32, u8)>, epoch: u32, state: u8) -> u8 {
    match row.binary_search_by_key(&epoch, |w| w.0) {
        Ok(i) => std::mem::replace(&mut row[i].1, state),
        Err(i) => {
            row.insert(i, (epoch, state));
            0
        }
    }
}

/// Audit one recorded stream against the invariant catalogue.
pub fn audit(events: &[ObsEvent], spec: &AuditSpec) -> AuditReport {
    let graph = CausalGraph::build(events);
    let edges = graph.edge_count() as u64;
    let mut report = AuditReport { events: events.len() as u64, edges, ..AuditReport::default() };
    let mut violations: Vec<Violation> = Vec::new();

    // ---- structural checks on the happens-before graph ----
    if let Err(stuck) = graph.acyclic() {
        violations.push(Violation {
            class: ViolationClass::Cycle,
            at: Time::ZERO,
            detail: format!("happens-before graph has a cycle through {} event(s)", stuck.len()),
        });
    }
    report.checks.push(CheckStat { name: "graph acyclicity", checked: 1 });

    for e in graph.time_violations() {
        let (class, what) = match e.kind {
            EdgeKind::Service => (ViolationClass::Resource, "service intervals overlap"),
            _ => (ViolationClass::TimeOrder, "edge runs backwards in time"),
        };
        violations.push(Violation {
            class,
            at: events[e.to].at(),
            detail: format!("{} edge {} → {}: {what}", e.kind.name(), e.from, e.to),
        });
    }
    report.checks.push(CheckStat { name: "edge time-consistency", checked: edges });

    // ---- single forward pass over the stream ----
    // Per-core protocol state: dense tables, so every end-of-instant
    // and end-of-stream report below comes out in core order by
    // construction. The span stack and park table are exact-match on
    // purpose, not `crate::lanes::Lanes`: this pass reports the closes
    // that tolerant rule absorbs (`SpanNesting`, `ParkWake`).
    let mut span_stack: PerCore<Vec<Span>> = PerCore::new();
    let mut parked: PerCore<Option<usize>> = PerCore::new();
    let mut seen_parkish: PerCore<bool> = PerCore::new();
    let mut last_sample: PerCore<Option<usize>> = PerCore::new();
    let mut awaiting_repoll: PerCore<Option<usize>> = PerCore::new();
    // Last committed flag value per owner, one row entry per MPB line
    // (256 of them on the SCC); `None` = never committed, or unknown
    // bytes (a payload transfer covered the line).
    let mut last_flag: PerCore<Vec<Option<u32>>> = PerCore::new();
    // Delivery windows per core, `(epoch, state)` sorted by epoch:
    // 1 open, 2 closed, absent = never opened.
    let mut window_state: PerCore<Vec<(u32, u8)>> = PerCore::new();
    let mut last_close: Option<Time> = None;
    // Per-instant group state.
    let mut group_at: Option<Time> = None;
    let mut first_group = true;
    // writer, owner, line, lines
    let mut group_commits: Vec<(CoreId, CoreId, usize, usize)> = Vec::new();
    let mut group_ops: PerCore<(u64, u64, u64)> = PerCore::new(); // write ops, commits, lost
    let mut due_wakes: Vec<(CoreId, CoreId)> = Vec::new(); // (core, writer) that must wake this instant

    // Counters.
    let (mut spans_n, mut parks_n, mut wakes_n, mut remote_wakes_n) = (0u64, 0u64, 0u64, 0u64);
    let (mut write_ops_n, mut samples_n, mut waits_n, mut tagged_n) = (0u64, 0u64, 0u64, 0u64);
    let (mut self_wakes_n, mut windows_n) = (0u64, 0u64);
    let mut faults_seen = 0u64;

    let flush_group = |at: Time,
                       first: bool,
                       group_ops: &mut PerCore<(u64, u64, u64)>,
                       group_commits: &mut Vec<(CoreId, CoreId, usize, usize)>,
                       due_wakes: &mut Vec<(CoreId, CoreId)>,
                       violations: &mut Vec<Violation>,
                       window: bool| {
        let tolerate = window && first;
        for (c, &(ops, commits, lost)) in group_ops.iter() {
            if ops != commits + lost && !tolerate {
                violations.push(Violation {
                    class: ViolationClass::CommitFault,
                    at,
                    detail: format!(
                        "core {} at {at}: {ops} write op(s) vs {commits} commit(s) + {lost} lost notification(s)",
                        c.index()
                    ),
                });
            }
        }
        for &(core, writer) in due_wakes.iter() {
            if !tolerate {
                violations.push(Violation {
                    class: ViolationClass::LostWakeup,
                    at,
                    detail: format!(
                        "core {} committed over core {}'s watched line at {at} but no wake followed",
                        writer.index(),
                        core.index()
                    ),
                });
            }
        }
        group_ops.clear();
        group_commits.clear();
        due_wakes.clear();
    };

    for ev in events {
        // Close the per-instant group when the recording clock moves.
        if let Some(at) = group_instant(ev) {
            if let Some(g) = group_at.filter(|&g| g != at) {
                flush_group(
                    g,
                    first_group,
                    &mut group_ops,
                    &mut group_commits,
                    &mut due_wakes,
                    &mut violations,
                    spec.window,
                );
                first_group = false;
            }
            group_at = Some(at);
        }

        // A park's "failed poll" marker survives only until the core's
        // next attributed event (the park itself consumes it).
        let a = crate::causal::actor(ev);
        let prev_sample = *last_sample.at(a);
        let was_sample = matches!(ev, ObsEvent::FlagSample { .. });
        let keep_sample = matches!(ev, ObsEvent::Wait { .. }); // waits precede their op
        if !was_sample && !keep_sample {
            *last_sample.at(a) = None;
        }

        match *ev {
            ObsEvent::SpanBegin { core, span, .. } => {
                span_stack.at(core).push(span);
            }
            ObsEvent::SpanEnd { core, span, at } => {
                spans_n += 1;
                match span_stack.at(core).pop() {
                    Some(open) if open == span => {}
                    Some(open) => violations.push(Violation {
                        class: ViolationClass::SpanNesting,
                        at,
                        detail: format!(
                            "core {} closed span {}:{} but {}:{} was open",
                            core.index(),
                            span.phase.name(),
                            span.arg,
                            open.phase.name(),
                            open.arg
                        ),
                    }),
                    None if spec.window => {} // open predates the window
                    None => violations.push(Violation {
                        class: ViolationClass::SpanNesting,
                        at,
                        detail: format!(
                            "core {} closed span {}:{} with no span open",
                            core.index(),
                            span.phase.name(),
                            span.arg
                        ),
                    }),
                }
            }
            ObsEvent::Op { core, kind, start, end, msg, .. } => {
                if WRITE_KINDS.contains(&kind) {
                    write_ops_n += 1;
                    group_ops.at(core).0 += 1;
                }
                if let Some(line) = *awaiting_repoll.at(core) {
                    if kind != OpKind::FlagRead {
                        *awaiting_repoll.at(core) = None;
                        violations.push(Violation {
                            class: ViolationClass::FlagProtocol,
                            at: end,
                            detail: format!(
                                "core {} was woken on line {line} but its next op is {kind}, not a re-poll",
                                core.index()
                            ),
                        });
                    }
                }
                if let Some(m) = msg {
                    tagged_n += 1;
                    match window_of(window_state.at(core), m.epoch) {
                        1 => {}
                        0 if spec.window => {} // window opened before the dump
                        state => violations.push(Violation {
                            class: ViolationClass::Delivery,
                            at: end,
                            detail: format!(
                                "core {} ran an op tagged epoch {} ({}..{}) with its window {}",
                                core.index(),
                                m.epoch,
                                start,
                                end,
                                if state == 2 { "already closed" } else { "never opened" }
                            ),
                        }),
                    }
                }
            }
            ObsEvent::MpbWrite { owner, line, lines, writer, value, .. } => {
                group_ops.at(writer).1 += 1;
                group_commits.push((writer, owner, line, lines));
                let flags = last_flag.at(owner);
                if flags.len() < line + lines {
                    flags.resize(line + lines, None);
                }
                flags[line..line + lines].fill(value.filter(|_| lines == 1));
                if let Some(watched) = *parked.at(owner) {
                    if (line..line + lines).contains(&watched) {
                        due_wakes.push((owner, writer));
                    }
                }
            }
            ObsEvent::FlagSample { core, line, value, at } => {
                samples_n += 1;
                *last_sample.at(core) = Some(line);
                if let Some(&Some(committed)) = last_flag.at(core).get(line) {
                    if committed != value {
                        violations.push(Violation {
                            class: ViolationClass::FlagProtocol,
                            at,
                            detail: format!(
                                "core {} sampled line {line} = {value} but the last commit wrote {committed}",
                                core.index()
                            ),
                        });
                    }
                }
                if *awaiting_repoll.at(core) == Some(line) {
                    *awaiting_repoll.at(core) = None;
                }
            }
            ObsEvent::Park { core, line, at } => {
                parks_n += 1;
                let first_for_core = !std::mem::replace(seen_parkish.at(core), true);
                if parked.at(core).replace(line).is_some() {
                    violations.push(Violation {
                        class: ViolationClass::ParkWake,
                        at,
                        detail: format!("core {} parked twice with no wake between", core.index()),
                    });
                }
                if prev_sample != Some(line) && !(spec.window && first_for_core) {
                    violations.push(Violation {
                        class: ViolationClass::ParkWake,
                        at,
                        detail: format!(
                            "core {} parked on line {line} without a failed poll of that line",
                            core.index()
                        ),
                    });
                }
            }
            ObsEvent::Wake { core, line, at, writer } => {
                wakes_n += 1;
                let first_for_core = !std::mem::replace(seen_parkish.at(core), true);
                let was_parked = parked.take(core);
                if was_parked.is_none() && !(spec.window && first_for_core) {
                    violations.push(Violation {
                        class: ViolationClass::ParkWake,
                        at,
                        detail: format!("core {} woke without being parked", core.index()),
                    });
                }
                if writer == core {
                    // Timeout self-wake: reliability-layer behaviour.
                    self_wakes_n += 1;
                    if !spec.reliable {
                        violations.push(Violation {
                            class: ViolationClass::FaultRecovery,
                            at,
                            detail: format!(
                                "core {} timed out waiting on line {line} but no reliability policy was armed",
                                core.index()
                            ),
                        });
                    } else if !spec.faulted {
                        violations.push(Violation {
                            class: ViolationClass::FaultRecovery,
                            at,
                            detail: format!(
                                "core {} timed out on line {line} in a healthy run (policy guarantees timeout-free)",
                                core.index()
                            ),
                        });
                    } else if faults_seen == 0 && !spec.window {
                        violations.push(Violation {
                            class: ViolationClass::FaultRecovery,
                            at,
                            detail: format!(
                                "core {} recovery timeout on line {line} chains back to no injected fault",
                                core.index()
                            ),
                        });
                    }
                } else {
                    remote_wakes_n += 1;
                    due_wakes.retain(|&(c, w)| !(c == core && w == writer));
                    let covered = group_commits.iter().any(|&(w, owner, l, n)| {
                        w == writer && owner == core && (l..l + n).contains(&line)
                    });
                    if !(covered || spec.window && first_group) {
                        violations.push(Violation {
                            class: ViolationClass::ParkWake,
                            at,
                            detail: format!(
                                "core {} woken on line {line} by core {} without a covering commit at {at}",
                                core.index(),
                                writer.index()
                            ),
                        });
                    }
                    if was_parked.is_some() {
                        *awaiting_repoll.at(core) = Some(line);
                    }
                }
            }
            ObsEvent::Wait { arrival, start, .. } => {
                waits_n += 1;
                if start < arrival {
                    violations.push(Violation {
                        class: ViolationClass::Resource,
                        at: arrival,
                        detail: format!("booking served at {start} before its arrival {arrival}"),
                    });
                }
            }
            ObsEvent::DeliveryBegin { core, epoch, at } => {
                match set_window(window_state.at(core), epoch, 1) {
                    0 => {}
                    _ => violations.push(Violation {
                        class: ViolationClass::Delivery,
                        at,
                        detail: format!(
                            "core {} reopened delivery window for epoch {epoch}",
                            core.index()
                        ),
                    }),
                }
            }
            ObsEvent::DeliveryEnd { core, epoch, at } => {
                windows_n += 1;
                match set_window(window_state.at(core), epoch, 2) {
                    1 => {}
                    0 if spec.window => {} // opened before the dump
                    state => violations.push(Violation {
                        class: ViolationClass::Delivery,
                        at,
                        detail: format!(
                            "core {} closed delivery window for epoch {epoch} that was {}",
                            core.index(),
                            if state == 2 { "already closed" } else { "never open" }
                        ),
                    }),
                }
                last_close = Some(last_close.map_or(at, |c| c.max(at)));
            }
            ObsEvent::Fault { kind, at, .. } => {
                if kind == FaultKind::LostNotification {
                    faults_seen += 1;
                    group_ops.at(a).2 += 1;
                }
                if !spec.faulted {
                    violations.push(Violation {
                        class: ViolationClass::FaultRecovery,
                        at,
                        detail: format!("{kind} fault recorded but no fault plan was declared"),
                    });
                }
            }
            ObsEvent::Compute { .. } | ObsEvent::Handoff { .. } | ObsEvent::Finish { .. } => {}
        }
    }
    if let Some(at) = group_at {
        flush_group(
            at,
            first_group,
            &mut group_ops,
            &mut group_commits,
            &mut due_wakes,
            &mut violations,
            spec.window,
        );
    }

    // ---- end-of-stream obligations ----
    if !spec.window {
        for (core, open) in span_stack.iter().filter(|(_, open)| !open.is_empty()) {
            violations.push(Violation {
                class: ViolationClass::SpanNesting,
                at: Time::ZERO,
                detail: format!(
                    "core {} finished with {} span(s) still open",
                    core.index(),
                    open.len()
                ),
            });
        }
        for (core, _) in parked.iter().filter(|(_, watched)| watched.is_some()) {
            violations.push(Violation {
                class: ViolationClass::ParkWake,
                at: Time::ZERO,
                detail: format!("core {} is still parked at end of run", core.index()),
            });
        }
        for (core, windows) in window_state.iter() {
            for &(epoch, _) in windows.iter().filter(|w| w.1 == 1) {
                violations.push(Violation {
                    class: ViolationClass::Delivery,
                    at: Time::ZERO,
                    detail: format!(
                        "core {} never closed its delivery window for epoch {epoch}",
                        core.index()
                    ),
                });
            }
        }
    }
    if let Some(m) = spec.makespan {
        match last_close {
            Some(c) if c == m => {}
            Some(c) => violations.push(Violation {
                class: ViolationClass::Delivery,
                at: c,
                detail: format!("last delivery close at {c} != makespan {m}"),
            }),
            None => violations.push(Violation {
                class: ViolationClass::Delivery,
                at: Time::ZERO,
                detail: "makespan given but the stream closes no delivery window".into(),
            }),
        }
    }

    report.checks.push(CheckStat { name: "span nesting", checked: spans_n });
    report.checks.push(CheckStat { name: "park/wake pairing", checked: parks_n + wakes_n });
    report.checks.push(CheckStat { name: "wake provenance", checked: remote_wakes_n });
    report.checks.push(CheckStat { name: "commit/fault pairing", checked: write_ops_n });
    report.checks.push(CheckStat { name: "flag samples", checked: samples_n });
    report.checks.push(CheckStat { name: "resource bookings", checked: waits_n });
    report.checks.push(CheckStat { name: "delivery containment", checked: tagged_n });
    report.checks.push(CheckStat { name: "delivery windows", checked: windows_n });
    report.checks.push(CheckStat { name: "recovery chain", checked: self_wakes_n });
    report.violations = violations;
    report
}

// ---------------------------------------------------------------------
// Seeded mutation harness
// ---------------------------------------------------------------------

/// One structured way to corrupt a recorded stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationClass {
    /// Delete a remote wake (its covering commit stays).
    DropWake,
    /// Swap the service intervals of two bookings on one resource.
    SwapService,
    /// Cross two span closes (swap their span identities).
    CrossSpanClose,
    /// Retag an op's message with a foreign epoch.
    RetagEpoch,
    /// Delete an injected lost-notification fault event.
    DeleteFault,
}

impl MutationClass {
    pub const ALL: [MutationClass; 5] = [
        MutationClass::DropWake,
        MutationClass::SwapService,
        MutationClass::CrossSpanClose,
        MutationClass::RetagEpoch,
        MutationClass::DeleteFault,
    ];

    pub const fn name(&self) -> &'static str {
        match self {
            MutationClass::DropWake => "drop-wake",
            MutationClass::SwapService => "swap-service",
            MutationClass::CrossSpanClose => "cross-span-close",
            MutationClass::RetagEpoch => "retag-epoch",
            MutationClass::DeleteFault => "delete-fault",
        }
    }

    /// The violation class a correct auditor must report for this
    /// corruption.
    pub const fn expected(&self) -> ViolationClass {
        match self {
            MutationClass::DropWake => ViolationClass::LostWakeup,
            MutationClass::SwapService => ViolationClass::Resource,
            MutationClass::CrossSpanClose => ViolationClass::SpanNesting,
            MutationClass::RetagEpoch => ViolationClass::Delivery,
            MutationClass::DeleteFault => ViolationClass::CommitFault,
        }
    }
}

impl fmt::Display for MutationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic splitmix64 step (the harness needs reproducible site
/// selection, never entropy).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One seeded item of `candidates()`: counted, then walked to, so no
/// candidate list is built.
fn pick<T, I: Iterator<Item = T>>(rng: &mut u64, candidates: impl Fn() -> I) -> Option<T> {
    let count = candidates().count();
    if count == 0 {
        return None;
    }
    candidates().nth((splitmix64(rng) % count as u64) as usize)
}

/// Indices of the events `keep` holds for.
fn sites<'a>(
    events: &'a [ObsEvent],
    keep: impl Fn(&ObsEvent) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    events.iter().enumerate().filter(move |(_, e)| keep(e)).map(|(i, _)| i)
}

/// One seeded pair of sites `(i, j)` and their keys — the events `key`
/// maps to a group and a key, `j` among the 64 sites after `i` and in its
/// group, `eligible` on the keys — ordered by `i`, then `j`. One pass
/// counts each site's partners among its group's recent sites only.
fn pick_pair<K: Copy>(
    rng: &mut u64,
    events: &[ObsEvent],
    key: impl Fn(&ObsEvent) -> Option<(usize, K)>,
    eligible: impl Fn(K, K) -> bool,
) -> Option<((usize, K), (usize, K))> {
    let sites = || events.iter().enumerate().filter_map(|(i, e)| Some((i, key(e)?)));
    let (mut recent, mut counts) = (BTreeMap::<_, Vec<(usize, K)>>::new(), Vec::new());
    for (b, (_, (group, kb))) in sites().enumerate() {
        let window = recent.entry(group).or_default();
        window.retain(|&(a, _)| a + 64 >= b);
        for &(a, ka) in window.iter() {
            counts[a] += u8::from(eligible(ka, kb));
        }
        window.push((b, kb));
        counts.push(0u8);
    }
    let mut nth = splitmix64(rng).checked_rem(counts.iter().map(|&c| u64::from(c)).sum())?;
    let mut a = 0;
    while nth >= u64::from(counts[a]) {
        nth -= u64::from(counts[a]);
        a += 1;
    }
    let mut window = sites().skip(a);
    let (i, (group, ka)) = window.next()?;
    let mut partners = window.take(64).filter(|&(_, (g, kb))| g == group && eligible(ka, kb));
    partners.nth(nth as usize).map(|(j, (_, kb))| ((i, ka), (j, kb)))
}

/// Apply one seeded mutation of `class` to the stream. Returns a
/// description of what was corrupted, or `None` when the stream has no
/// eligible site (e.g. [`MutationClass::DeleteFault`] on a healthy
/// run).
pub fn mutate(events: &mut Vec<ObsEvent>, class: MutationClass, seed: u64) -> Option<String> {
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    match class {
        MutationClass::DropWake => {
            let remote_wake =
                |e: &ObsEvent| matches!(e, ObsEvent::Wake { core, writer, .. } if core != writer);
            let i = pick(&mut rng, || sites(events, remote_wake))?;
            let desc = format!("dropped {:?} at index {i}", events[i]);
            events.remove(i);
            Some(desc)
        }
        MutationClass::SwapService => {
            // Eligible pair: same resource, i served first, j arrived
            // after i's service started — swapping their intervals
            // forces j to be served before it arrived.
            let wait = |e: &ObsEvent| match *e {
                ObsEvent::Wait { resource, arrival, start, end, .. } => {
                    Some((resource.index(), (arrival, start, end)))
                }
                _ => None,
            };
            let eligible = |(_, si, _), (aj, sj, _)| si < sj && aj > si;
            let ((i, (_, si, ei)), (j, (_, sj, ej))) = pick_pair(&mut rng, events, wait, eligible)?;
            let set = |ev: &mut ObsEvent, s: Time, e: Time| {
                if let ObsEvent::Wait { start, end, .. } = ev {
                    *start = s;
                    *end = e;
                }
            };
            set(&mut events[i], sj, ej);
            set(&mut events[j], si, ei);
            Some(format!("swapped service intervals of bookings {i} and {j}"))
        }
        MutationClass::CrossSpanClose => {
            let span = |e: ObsEvent| match e {
                ObsEvent::SpanEnd { span, .. } => Some(span),
                _ => None,
            };
            let close = |e: &ObsEvent| Some((0, span(*e)?));
            let ((i, si), (j, sj)) = pick_pair(&mut rng, events, close, |a, b| a != b)?;
            let set = |ev: &mut ObsEvent, s: Span| {
                if let ObsEvent::SpanEnd { span, .. } = ev {
                    *span = s;
                }
            };
            set(&mut events[i], sj);
            set(&mut events[j], si);
            Some(format!("crossed span closes {i} and {j}"))
        }
        MutationClass::RetagEpoch => {
            let i = pick(&mut rng, || {
                sites(events, |e| matches!(e, ObsEvent::Op { msg: Some(_), .. }))
            })?;
            if let ObsEvent::Op { msg: Some(m), .. } = &mut events[i] {
                m.epoch = m.epoch.wrapping_add(1000);
                Some(format!("retagged op {i} to epoch {}", m.epoch))
            } else {
                None
            }
        }
        MutationClass::DeleteFault => {
            let lost = |e: &ObsEvent| {
                matches!(e, ObsEvent::Fault { kind: FaultKind::LostNotification, .. })
            };
            let i = pick(&mut rng, || sites(events, lost))?;
            let desc = format!("deleted {:?} at index {i}", events[i]);
            events.remove(i);
            Some(desc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::{CoreId, MsgId, Phase};

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    /// A tiny hand-built conformant stream: core 0 notifies core 1,
    /// which was parked after a failed poll; both run inside spans and
    /// delivery windows.
    fn conformant() -> Vec<ObsEvent> {
        let span = Span::new(Phase::NotifyWait, 0);
        vec![
            ObsEvent::DeliveryBegin { core: CoreId(0), epoch: 0, at: ns(0) },
            ObsEvent::DeliveryBegin { core: CoreId(1), epoch: 0, at: ns(0) },
            ObsEvent::SpanBegin { core: CoreId(1), span, at: ns(0) },
            // Core 1 polls its flag line 2, sees the old value, parks.
            ObsEvent::Op {
                core: CoreId(1),
                kind: OpKind::FlagRead,
                lines: 1,
                start: ns(0),
                end: ns(1),
                msg: None,
            },
            ObsEvent::FlagSample { core: CoreId(1), line: 2, value: 0, at: ns(1) },
            ObsEvent::Park { core: CoreId(1), line: 2, at: ns(1) },
            // Core 0 deposits the notification flag.
            ObsEvent::Op {
                core: CoreId(0),
                kind: OpKind::FlagPut,
                lines: 1,
                start: ns(1),
                end: ns(5),
                msg: Some(MsgId::new(0, CoreId(0), CoreId(1), 0)),
            },
            ObsEvent::MpbWrite {
                owner: CoreId(1),
                line: 2,
                lines: 1,
                writer: CoreId(0),
                value: Some(7),
                at: ns(5),
            },
            ObsEvent::Wake { core: CoreId(1), line: 2, at: ns(5), writer: CoreId(0) },
            // The woken core re-polls and sees the committed value.
            ObsEvent::Op {
                core: CoreId(1),
                kind: OpKind::FlagRead,
                lines: 1,
                start: ns(5),
                end: ns(6),
                msg: None,
            },
            ObsEvent::FlagSample { core: CoreId(1), line: 2, value: 7, at: ns(6) },
            ObsEvent::SpanEnd { core: CoreId(1), span, at: ns(6) },
            ObsEvent::DeliveryEnd { core: CoreId(0), epoch: 0, at: ns(5) },
            ObsEvent::DeliveryEnd { core: CoreId(1), epoch: 0, at: ns(7) },
            ObsEvent::Finish { core: CoreId(0), at: ns(5) },
            ObsEvent::Finish { core: CoreId(1), at: ns(7) },
        ]
    }

    #[test]
    fn conformant_stream_audits_clean() {
        let events = conformant();
        let rep = audit(&events, &AuditSpec::plain().with_makespan(ns(7)));
        assert!(rep.ok(), "{:?}", rep.violations);
        assert!(rep.checked() > 0);
        assert_eq!(rep.events, events.len() as u64);
    }

    #[test]
    fn dropped_wake_is_a_lost_wakeup() {
        let mut events = conformant();
        events.retain(|e| !matches!(e, ObsEvent::Wake { .. }));
        let rep = audit(&events, &AuditSpec::plain().with_makespan(ns(7)));
        assert!(rep.classes().contains(&ViolationClass::LostWakeup), "{:?}", rep.violations);
    }

    #[test]
    fn stale_sample_value_is_flag_protocol() {
        let mut events = conformant();
        for e in &mut events {
            if let ObsEvent::FlagSample { value: v @ 7, .. } = e {
                *v = 3;
            }
        }
        let rep = audit(&events, &AuditSpec::plain().with_makespan(ns(7)));
        assert!(rep.classes().contains(&ViolationClass::FlagProtocol), "{:?}", rep.violations);
    }

    #[test]
    fn park_without_poll_is_park_wake() {
        let mut events = conformant();
        events.retain(|e| !matches!(e, ObsEvent::FlagSample { value: 0, .. }));
        let rep = audit(&events, &AuditSpec::plain().with_makespan(ns(7)));
        assert!(rep.classes().contains(&ViolationClass::ParkWake), "{:?}", rep.violations);
    }

    #[test]
    fn unclosed_window_is_a_delivery_violation_in_full_mode_only() {
        let mut events = conformant();
        events.retain(|e| !matches!(e, ObsEvent::DeliveryEnd { core: CoreId(1), .. }));
        let rep = audit(&events, &AuditSpec::plain());
        assert!(rep.classes().contains(&ViolationClass::Delivery));
        let rep = audit(&events, &AuditSpec::plain().windowed());
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn window_mode_tolerates_truncated_prefix() {
        let events = conformant();
        // Cut the first 6 events: the window starts mid-protocol, right
        // at the notifier's op (its park/poll past is gone).
        let cut = &events[6..];
        let rep = audit(cut, &AuditSpec::plain().windowed());
        assert!(rep.ok(), "{:?}", rep.violations);
        // The same truncation is NOT clean as a full run.
        let rep = audit(cut, &AuditSpec::plain());
        assert!(!rep.ok());
    }

    #[test]
    fn timeout_self_wake_needs_reliability_and_faults() {
        let mut events = conformant();
        events.insert(6, ObsEvent::Wake { core: CoreId(1), line: 2, at: ns(3), writer: CoreId(1) });
        // Re-park so downstream pairing stays consistent: replace the
        // original wake sequence — simplest is to audit as-is and only
        // assert on the class.
        let rep = audit(&events, &AuditSpec::plain());
        assert!(rep.classes().contains(&ViolationClass::FaultRecovery), "{:?}", rep.violations);
        let rep = audit(&events, &AuditSpec::reliable());
        assert!(rep.classes().contains(&ViolationClass::FaultRecovery));
    }

    #[test]
    fn fault_without_plan_is_flagged() {
        let mut events = conformant();
        events.push(ObsEvent::Fault {
            core: CoreId(0),
            kind: FaultKind::LostNotification,
            at: ns(7),
            lost: Time::ZERO,
        });
        let rep = audit(&events, &AuditSpec::plain());
        assert!(rep.classes().contains(&ViolationClass::FaultRecovery), "{:?}", rep.violations);
    }

    #[test]
    fn makespan_mismatch_is_a_delivery_violation() {
        let events = conformant();
        let rep = audit(&events, &AuditSpec::plain().with_makespan(ns(9)));
        assert!(rep.classes().contains(&ViolationClass::Delivery));
    }

    #[test]
    fn mutation_classes_map_to_expected_violations() {
        // The hand-built stream is too small for some classes; those
        // are exercised end-to-end by the bench experiment and the
        // proptests. Here: the classes with eligible sites.
        for (class, seed) in [(MutationClass::DropWake, 1), (MutationClass::CrossSpanClose, 2)] {
            let mut events = conformant();
            // CrossSpanClose needs two different spans; add one.
            let extra = Span::new(Phase::Dissemination, 1);
            events.insert(1, ObsEvent::SpanBegin { core: CoreId(0), span: extra, at: ns(0) });
            events.insert(12, ObsEvent::SpanEnd { core: CoreId(0), span: extra, at: ns(5) });
            if mutate(&mut events, class, seed).is_some() {
                let rep = audit(&events, &AuditSpec::plain());
                assert!(
                    rep.classes().contains(&class.expected()),
                    "{class}: expected {:?}, got {:?}",
                    class.expected(),
                    rep.violations
                );
            }
        }
    }

    /// Cores 47, 3 and 0 each break the same invariants in the same
    /// instant, recorded in that (descending) order. Reports come out in
    /// ascending core order — per instant for commit/fault pairing, per
    /// checker at end of stream, windows by (core, epoch) — with these
    /// exact texts: the order is the per-core tables' own.
    #[test]
    fn same_instant_violations_report_in_core_order() {
        let span = Span::new(Phase::NotifyWait, 0);
        let mut events = Vec::new();
        for c in [47, 3, 0].map(CoreId) {
            events.push(ObsEvent::DeliveryBegin { core: c, epoch: 5, at: ns(0) });
            if c == CoreId(47) {
                events.push(ObsEvent::DeliveryBegin { core: c, epoch: 2, at: ns(0) });
            }
            events.push(ObsEvent::SpanBegin { core: c, span, at: ns(0) });
            // A flag write that never commits.
            events.push(ObsEvent::Op {
                core: c,
                kind: OpKind::FlagPut,
                lines: 1,
                start: ns(0),
                end: ns(10),
                msg: None,
            });
        }
        for c in [47, 3, 0].map(CoreId) {
            events.push(ObsEvent::FlagSample { core: c, line: 1, value: 0, at: ns(10) });
            events.push(ObsEvent::Park { core: c, line: 1, at: ns(10) });
        }
        let rep = audit(&events, &AuditSpec::plain());
        let got: Vec<(ViolationClass, &str)> =
            rep.violations.iter().map(|v| (v.class, v.detail.as_str())).collect();
        let commit = |c| {
            format!("core {c} at 0.010us: 1 write op(s) vs 0 commit(s) + 0 lost notification(s)")
        };
        let want: Vec<(ViolationClass, String)> = vec![
            (ViolationClass::CommitFault, commit(0)),
            (ViolationClass::CommitFault, commit(3)),
            (ViolationClass::CommitFault, commit(47)),
            (ViolationClass::SpanNesting, "core 0 finished with 1 span(s) still open".into()),
            (ViolationClass::SpanNesting, "core 3 finished with 1 span(s) still open".into()),
            (ViolationClass::SpanNesting, "core 47 finished with 1 span(s) still open".into()),
            (ViolationClass::ParkWake, "core 0 is still parked at end of run".into()),
            (ViolationClass::ParkWake, "core 3 is still parked at end of run".into()),
            (ViolationClass::ParkWake, "core 47 is still parked at end of run".into()),
            (
                ViolationClass::Delivery,
                "core 0 never closed its delivery window for epoch 5".into(),
            ),
            (
                ViolationClass::Delivery,
                "core 3 never closed its delivery window for epoch 5".into(),
            ),
            (
                ViolationClass::Delivery,
                "core 47 never closed its delivery window for epoch 2".into(),
            ),
            (
                ViolationClass::Delivery,
                "core 47 never closed its delivery window for epoch 5".into(),
            ),
        ];
        let want: Vec<(ViolationClass, &str)> =
            want.iter().map(|(c, d)| (*c, d.as_str())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn mutate_returns_none_without_eligible_sites() {
        let mut events = vec![ObsEvent::Finish { core: CoreId(0), at: ns(1) }];
        for class in MutationClass::ALL {
            assert!(mutate(&mut events, class, 7).is_none(), "{class}");
        }
    }

    #[test]
    fn class_names_round_trip() {
        // Each name identifies exactly one class.
        for c in ViolationClass::ALL {
            assert_eq!(ViolationClass::ALL.iter().filter(|o| o.name() == c.name()).count(), 1);
        }
    }
}
