//! A warm chip leaves no trace. `run_spmd` resets the last finished
//! run's chip on its host thread instead of building a new one, so
//! every run here — interleaved on one thread across core counts,
//! memory sizes, timing parameters (of cached line paths too),
//! recording modes, a fault plan, a panicked, a deadlocked and a nested
//! run — must report exactly what the same configuration reports as the
//! first run of a fresh thread.

use oc_bcast::{Algorithm, Broadcaster, Reliability};
use scc_hal::{CoreId, FlagValue, MemRange, MpbAddr, Rma, RmaExt, RmaResult, Time};
use scc_hal::{MPB_BYTES_PER_CORE, MPB_LINES_PER_CORE};
use scc_obs::{CostClass, ObsEvent};
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, FaultPlan, SimConfig, SimCore, SimParams, SimStats, SlowWindow};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What every core's closure does.
#[derive(Clone, Copy, Debug)]
enum Body {
    /// One broadcast of `lines` from `root`; every core returns its copy
    /// and whether a get past its private memory was refused.
    Bcast { alg: Algorithm, reliable: bool, lines: usize, root: u8 },
    /// Core 5 dirties MPB lines, then panics while the others wait.
    Panic,
    /// Everyone writes a flag, then core 0 waits for one nobody writes.
    Deadlock,
    /// Core 3 of the outer run runs [`Case::bcast48`] from its stack.
    Nested,
    /// Every core's MPB gets non-zero bytes up to its last line through
    /// one of the chip's three MPB writers.
    Write(Writer),
    /// Every core reads all of its MPB lines and its private memory.
    ReadAll,
}

/// Which op — hence which chip writer — dirties the MPB last line.
#[derive(Clone, Copy, Debug)]
enum Writer {
    /// Flag puts into every line: `Chip::mpb_slice_mut`.
    Flags,
    /// An 8 KB put from private memory, which it dirties too:
    /// `Chip::copy_private_to_mpb`.
    FromMem,
    /// One flag put, copied MPB to MPB: `Chip::copy_mpb_to_mpb`.
    FromMpb,
}

#[derive(Clone, Debug)]
struct Case {
    cfg: SimConfig,
    body: Body,
}

/// Everything a run reports, comparably.
#[derive(Debug, PartialEq)]
struct Report {
    results: Vec<RmaResult<Vec<u8>>>,
    end_times: Vec<Time>,
    stats: SimStats,
    events: Option<Vec<ObsEvent>>,
}

/// A run's report, or how it failed: its `SimError` or its panic.
type Outcome = Result<Report, String>;

impl Case {
    fn new(num_cores: usize, mem_bytes: usize, body: Body) -> Case {
        Case { cfg: SimConfig { num_cores, mem_bytes, ..SimConfig::default() }, body }
    }

    fn bcast48() -> Case {
        let body =
            Body::Bcast { alg: Algorithm::oc_with_k(7), reliable: false, lines: 200, root: 5 };
        Case::new(48, 1 << 16, body)
    }

    fn run(&self) -> Outcome {
        let run = catch_unwind(AssertUnwindSafe(|| run_spmd(&self.cfg, |c| self.core(c))));
        match run {
            Ok(Ok(rep)) => Ok(Report {
                results: rep.results,
                end_times: rep.end_times,
                stats: rep.stats,
                events: rep.events,
            }),
            Ok(Err(e)) => Err(format!("failed: {e:?}")),
            Err(payload) => Err(format!("panicked: {:?}", payload.downcast_ref::<&str>())),
        }
    }

    /// The same case as the first run of a brand-new host thread: its
    /// chip is built by `Chip::new`.
    fn run_fresh(&self) -> Outcome {
        let case = self.clone();
        std::thread::spawn(move || case.run()).join().expect("the fresh thread returns")
    }

    fn core(&self, c: &mut SimCore) -> RmaResult<Vec<u8>> {
        let me = c.core().index();
        let right = CoreId(((me + 1) % c.num_cores()) as u8);
        match self.body {
            Body::Bcast { alg, reliable, lines, root } => {
                let mut alloc = MpbAllocator::new();
                let mut b = if reliable {
                    Broadcaster::new_reliable(
                        &mut alloc,
                        alg,
                        c.num_cores(),
                        Reliability::standard(),
                    )
                    .expect("fits")
                } else {
                    Broadcaster::new(&mut alloc, alg, c.num_cores()).expect("fits")
                };
                let msg = MemRange::new(0, lines * 32);
                if me == root as usize {
                    let payload: Vec<u8> = (0..msg.len).map(|i| (i % 251) as u8 + 1).collect();
                    c.mem_write(0, &payload)?;
                }
                b.bcast(c, CoreId(root), msg)?;
                // Private memory ends at this run's `mem_bytes`, however
                // much the chip's previous run had.
                let beyond = MemRange::new(self.cfg.mem_bytes, 32);
                let refused = c.get_to_mem(MpbAddr::new(c.core(), 0), beyond).is_err();
                Ok([c.mem_to_vec(msg)?, vec![refused as u8]].concat())
            }
            Body::Panic => {
                if me == 5 {
                    c.flag_put(MpbAddr::new(right, 9), FlagValue(99))?;
                    c.compute(Time::US);
                    panic!("core 5 exploded");
                }
                c.flag_put(MpbAddr::new(right, 1), FlagValue(1))?;
                c.flag_wait_eq(200, FlagValue(1))?;
                Ok(Vec::new())
            }
            Body::Deadlock => {
                c.flag_put(MpbAddr::new(right, 3), FlagValue(7))?;
                if me == 0 {
                    c.flag_wait_eq(200, FlagValue(1))?;
                }
                Ok(Vec::new())
            }
            Body::Nested => {
                let nested = (me == 3).then(|| Case::bcast48().run());
                c.flag_put(MpbAddr::new(right, 2), FlagValue(4))?;
                c.flag_wait_eq(2, FlagValue(4))?;
                Ok(format!("{nested:?}").into_bytes())
            }
            Body::Write(Writer::Flags) => {
                for line in 0..MPB_LINES_PER_CORE {
                    c.flag_put(MpbAddr::new(c.core(), line), FlagValue(line as u32 + 1))?;
                }
                Ok(Vec::new())
            }
            Body::Write(Writer::FromMem) => {
                c.mem_write(0, &[0xAB; MPB_BYTES_PER_CORE])?;
                c.put_from_mem(MemRange::new(0, MPB_BYTES_PER_CORE), MpbAddr::new(right, 0))?;
                Ok(Vec::new())
            }
            Body::Write(Writer::FromMpb) => {
                let last = MPB_LINES_PER_CORE - 1;
                c.flag_put(MpbAddr::new(c.core(), 0), FlagValue(me as u32 + 1))?;
                c.compute(Time::US);
                c.put_from_mpb(0, MpbAddr::new(right, last), 1)?;
                c.get_to_mpb(MpbAddr::new(right, 0), last - 1, 1)?;
                Ok(Vec::new())
            }
            Body::ReadAll => {
                let mut seen = c.mem_to_vec(MemRange::new(0, MPB_BYTES_PER_CORE))?;
                for line in 0..MPB_LINES_PER_CORE {
                    seen.extend(c.flag_read_local(line)?.0.to_le_bytes());
                }
                let mpb = MemRange::new(MPB_BYTES_PER_CORE, MPB_BYTES_PER_CORE);
                c.get_to_mem(MpbAddr::new(c.core(), 0), mpb)?;
                seen.extend(c.mem_to_vec(mpb)?);
                Ok(seen)
            }
        }
    }
}

#[test]
fn a_warm_chip_leaves_no_trace() {
    let oc = |k| Algorithm::oc_with_k(k);
    let faults = FaultPlan {
        seed: 7,
        drop_notification_ppm: 40_000,
        delay_ppm: 20_000,
        delay: Time::from_us_f64(3.0),
        slow: vec![SlowWindow {
            core: CoreId(2),
            from: Time::ZERO,
            until: Time::from_us_f64(20.0),
            extra: Time::from_us_f64(1.0),
        }],
    };
    let recorded = Case {
        cfg: SimConfig { record: true, mem_bytes: 1 << 13, ..Case::bcast48().cfg },
        body: Body::Bcast { alg: Algorithm::Binomial, reliable: false, lines: 16, root: 0 },
    };
    let flight = Case {
        cfg: SimConfig { flight: 300, ..Case::bcast48().cfg },
        body: Body::Bcast { alg: oc(47), reliable: false, lines: 96, root: 47 },
    };
    let faulted = Case {
        cfg: SimConfig { faults, record: true, ..Case::bcast48().cfg },
        body: Body::Bcast { alg: oc(7), reliable: true, lines: 64, root: 1 },
    };
    let scaled = Case {
        cfg: SimConfig {
            params: SimParams::default().scaled(CostClass::PortService, 1.5),
            ..Case::bcast48().cfg
        },
        ..Case::bcast48()
    };
    let write_via = |w| Case::new(48, 1 << 14, Body::Write(w));
    // Every core's flag puts take one cached path: the same path key as
    // the run before it, under other timings.
    let slow_hops = Case {
        cfg: SimConfig {
            params: SimParams::default().scaled(CostClass::RouterHop, 3.0),
            ..write_via(Writer::Flags).cfg
        },
        body: Body::Write(Writer::Flags),
    };
    let read = Case::new(48, 1 << 14, Body::ReadAll);
    let one_line = |mem_bytes| {
        let body = Body::Bcast { alg: oc(7), reliable: false, lines: 1, root: 0 };
        Case::new(48, mem_bytes, body)
    };
    // Interleaved so that most runs inherit a chip another
    // configuration left dirty; each read inherits a write's.
    let cases = [
        Case::bcast48(),
        write_via(Writer::Flags),
        recorded,
        Case::new(12, 1 << 15, Body::Bcast { alg: oc(2), reliable: false, lines: 97, root: 11 }),
        Case::new(48, 4096, Body::Panic),
        flight,
        faulted,
        Case::new(48, 4096, Body::Deadlock),
        scaled,
        Case::new(6, 4096, Body::Bcast { alg: oc(2), reliable: false, lines: 3, root: 0 }),
        Case::new(6, 4096, Body::Nested),
        Case::bcast48(),
        write_via(Writer::Flags),
        slow_hops,
        read.clone(),
        write_via(Writer::FromMem),
        read.clone(),
        write_via(Writer::FromMpb),
        read.clone(),
        // A sub-page private write keeps its page: the read must find it
        // re-zeroed, the 64-byte run must find it cut to its memory.
        one_line(1 << 14),
        read,
        one_line(1 << 14),
        one_line(64),
    ];
    for (i, case) in cases.iter().enumerate() {
        let warm = case.run();
        assert_eq!(warm, case.run_fresh(), "case {i}: {:?}", case.body);
        match (&case.body, &warm) {
            (Body::Panic, Err(e)) => assert!(e.starts_with("panicked") && e.contains("exploded")),
            (Body::Deadlock, Err(e)) => assert!(e.starts_with("failed: Deadlock"), "{e}"),
            (Body::Panic | Body::Deadlock, _) => panic!("case {i} ended in {warm:?}"),
            (_, Ok(Report { results, stats, .. })) => {
                assert_eq!(stats.faults > 0, !case.cfg.faults.is_empty(), "case {i}");
                let results: Vec<Vec<u8>> =
                    results.iter().map(|r| r.clone().expect("every core succeeds")).collect();
                if let Body::ReadAll = case.body {
                    assert!(results.iter().flatten().all(|&b| b == 0), "a stale byte survived");
                }
                if let Body::Bcast { .. } = case.body {
                    assert!(results.windows(2).all(|w| w[0] == w[1]), "case {i}: not delivered");
                    assert_eq!(results[0].last(), Some(&1), "case {i}: a get past memory ran");
                }
            }
            _ => panic!("case {i} ended in {warm:?}"),
        }
    }
}
