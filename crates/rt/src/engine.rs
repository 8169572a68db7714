//! Thread-per-core SPMD runner and the [`RtCore`] RMA endpoint.

use crate::chip::RtMpb;
use scc_hal::{
    CoreId, FlagValue, MemRange, MpbAddr, Rma, RmaError, RmaResult, Time, MPB_LINES_PER_CORE,
    NUM_CORES,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Configuration of a thread-backend run.
#[derive(Clone, Debug)]
pub struct RtConfig {
    /// Number of cores (threads). Values above the host's parallelism
    /// work — waits always yield — but measure poorly.
    pub num_cores: usize,
    /// Private memory per core, in bytes.
    pub mem_bytes: usize,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig { num_cores: 8, mem_bytes: 1 << 20 }
    }
}

/// Whole-run failure.
#[derive(Debug)]
pub enum RtError {
    Engine(String),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::Engine(m) => write!(f, "thread backend failure: {m}"),
        }
    }
}

impl std::error::Error for RtError {}

/// Result of a successful run.
#[derive(Debug)]
pub struct RtReport<R> {
    pub results: Vec<R>,
    /// Wall-clock end time of each core, relative to the common start.
    pub end_times: Vec<Time>,
    pub makespan: Time,
}

/// The per-thread RMA endpoint.
pub struct RtCore {
    id: CoreId,
    num_cores: usize,
    mpb: Arc<RtMpb>,
    mem: Vec<u8>,
    epoch: Instant,
    /// Set when any core's closure panicked: spinning waiters bail out
    /// with an error instead of waiting forever on a dead peer.
    poisoned: Arc<AtomicBool>,
}

impl RtCore {
    /// The one flag-wait loop: poll, bail out if a peer died, give up
    /// at the deadline if there is one, else yield and poll again.
    fn wait(
        &self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Option<Time>,
    ) -> RmaResult<FlagValue> {
        MpbAddr::new(self.id, line.min(MPB_LINES_PER_CORE - 1)).check(1, self.num_cores)?;
        let addr = MpbAddr::new(self.id, line);
        loop {
            let v = self.mpb.flag_load(addr);
            if pred(v) {
                return Ok(v);
            }
            if self.poisoned.load(Ordering::Relaxed) {
                return Err(RmaError::Engine(
                    "a peer core panicked while this core was waiting".into(),
                ));
            }
            if let Some(deadline) = deadline.filter(|&d| self.now() >= d) {
                return Err(RmaError::Timeout { core: self.id, line, deadline });
            }
            // Always yield: cores may outnumber hardware threads.
            std::thread::yield_now();
        }
    }
}

impl Rma for RtCore {
    fn core(&self) -> CoreId {
        self.id
    }

    fn num_cores(&self) -> usize {
        self.num_cores
    }

    fn now(&self) -> Time {
        Time::from_ps(self.epoch.elapsed().as_nanos() as u64 * 1000)
    }

    fn put_from_mem(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        src.check(self.mem.len())?;
        dst.check(src.lines(), self.num_cores)?;
        self.mpb.write_bytes(dst, &self.mem[src.offset..src.end()]);
        Ok(())
    }

    fn put_from_mpb(&mut self, src_line: usize, dst: MpbAddr, lines: usize) -> RmaResult<()> {
        MpbAddr::new(self.id, src_line.min(MPB_LINES_PER_CORE - 1)).check(lines, self.num_cores)?;
        dst.check(lines, self.num_cores)?;
        self.mpb.copy(MpbAddr::new(self.id, src_line), dst, lines);
        Ok(())
    }

    fn get_to_mem(&mut self, src: MpbAddr, dst: MemRange) -> RmaResult<()> {
        dst.check(self.mem.len())?;
        src.check(dst.lines(), self.num_cores)?;
        let (offset, end) = (dst.offset, dst.end());
        self.mpb.read_bytes(src, &mut self.mem[offset..end]);
        Ok(())
    }

    fn get_to_mpb(&mut self, src: MpbAddr, dst_line: usize, lines: usize) -> RmaResult<()> {
        src.check(lines, self.num_cores)?;
        MpbAddr::new(self.id, dst_line.min(MPB_LINES_PER_CORE - 1)).check(lines, self.num_cores)?;
        self.mpb.copy(src, MpbAddr::new(self.id, dst_line), lines);
        Ok(())
    }

    fn flag_put(&mut self, dst: MpbAddr, value: FlagValue) -> RmaResult<()> {
        dst.check(1, self.num_cores)?;
        self.mpb.flag_store(dst, value);
        Ok(())
    }

    fn flag_read_local(&mut self, line: usize) -> RmaResult<FlagValue> {
        MpbAddr::new(self.id, line.min(MPB_LINES_PER_CORE - 1)).check(1, self.num_cores)?;
        Ok(self.mpb.flag_load(MpbAddr::new(self.id, line)))
    }

    fn flag_wait_local(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
    ) -> RmaResult<FlagValue> {
        self.wait(line, pred, None)
    }

    fn flag_wait_local_until(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Time,
    ) -> RmaResult<FlagValue> {
        self.wait(line, pred, Some(deadline))
    }

    fn mem_write(&mut self, offset: usize, data: &[u8]) -> RmaResult<()> {
        MemRange::check_bytes(offset, data.len(), self.mem.len())?;
        self.mem[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn mem_read(&self, offset: usize, buf: &mut [u8]) -> RmaResult<()> {
        MemRange::check_bytes(offset, buf.len(), self.mem.len())?;
        buf.copy_from_slice(&self.mem[offset..offset + buf.len()]);
        Ok(())
    }

    fn compute(&mut self, t: Time) {
        let deadline = self.epoch.elapsed() + std::time::Duration::from_nanos(t.as_ps() / 1000);
        while self.epoch.elapsed() < deadline {
            if self.poisoned.load(Ordering::Relaxed) {
                return; // a peer died; surface on the next fallible call
            }
            std::thread::yield_now();
        }
    }
}

/// Run `f` as an SPMD program on real threads: one invocation per core,
/// started together behind a barrier. Panics in a core propagate after
/// all threads are joined.
pub fn run_spmd<R, F>(cfg: &RtConfig, f: F) -> Result<RtReport<R>, RtError>
where
    R: Send,
    F: Fn(&mut RtCore) -> R + Send + Sync,
{
    let n = cfg.num_cores;
    assert!((1..=NUM_CORES).contains(&n), "num_cores must be in 1..=48");
    let mpb = Arc::new(RtMpb::new(n));
    let start = Arc::new(Barrier::new(n));
    let poisoned = Arc::new(AtomicBool::new(false));
    let epoch = Instant::now();
    let f = &f;

    let joined: Vec<Result<(R, Time), Box<dyn std::any::Any + Send>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let mpb = Arc::clone(&mpb);
                let start = Arc::clone(&start);
                let poisoned = Arc::clone(&poisoned);
                s.spawn(move || -> Result<(R, Time), Box<dyn std::any::Any + Send>> {
                    let mut core = RtCore {
                        id: CoreId(i as u8),
                        num_cores: n,
                        mpb,
                        mem: vec![0u8; cfg.mem_bytes],
                        epoch,
                        poisoned: Arc::clone(&poisoned),
                    };
                    start.wait();
                    // Catch panics so the poison flag releases any
                    // peer spinning on a flag this core will never
                    // write; re-thrown after all threads unwind.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut core)));
                    match r {
                        Ok(v) => Ok((v, core.now())),
                        Err(p) => {
                            poisoned.store(true, Ordering::Relaxed);
                            Err(p)
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(Err)).collect()
    });

    let mut results = Vec::with_capacity(n);
    let mut end_times = Vec::with_capacity(n);
    for j in joined {
        match j {
            Ok((r, t)) => {
                results.push(r);
                end_times.push(t);
            }
            Err(p) => std::panic::resume_unwind(p),
        }
    }
    let makespan = end_times.iter().copied().fold(Time::ZERO, Time::max);
    Ok(RtReport { results, end_times, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;

    #[test]
    fn spmd_runs_all_cores() {
        let rep =
            run_spmd(&RtConfig { num_cores: 4, mem_bytes: 4096 }, |c| c.core().index()).unwrap();
        assert_eq!(rep.results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn flag_handoff_with_real_threads() {
        let msg = b"cross-thread payload".to_vec();
        let expect = msg.clone();
        let rep =
            run_spmd(&RtConfig { num_cores: 2, mem_bytes: 4096 }, move |c| -> RmaResult<Vec<u8>> {
                if c.core().index() == 0 {
                    c.mem_write(0, &msg)?;
                    c.put_from_mem(MemRange::new(0, msg.len()), MpbAddr::new(CoreId(0), 1))?;
                    c.flag_put(MpbAddr::new(CoreId(1), 0), FlagValue(1))?;
                    Ok(Vec::new())
                } else {
                    c.flag_wait_eq(0, FlagValue(1))?;
                    c.get_to_mem(MpbAddr::new(CoreId(0), 1), MemRange::new(0, 20))?;
                    c.mem_to_vec(MemRange::new(0, 20))
                }
            })
            .unwrap();
        assert_eq!(rep.results[1].as_ref().unwrap(), &expect);
    }

    #[test]
    fn many_rounds_of_ping_pong_stress() {
        // Exercises the acquire/release pairing under real reordering.
        let rounds = 500u32;
        let rep =
            run_spmd(&RtConfig { num_cores: 2, mem_bytes: 4096 }, move |c| -> RmaResult<u32> {
                let me = c.core().index();
                let peer = CoreId(1 - me as u8);
                let mut seen = 0;
                for r in 1..=rounds {
                    if me == 0 {
                        // Write payload derived from r, then signal.
                        c.mem_write(0, &r.to_le_bytes())?;
                        c.put_from_mem(MemRange::new(0, 4), MpbAddr::new(CoreId(0), 2))?;
                        c.flag_put(MpbAddr::new(peer, 0), FlagValue(r))?;
                        c.flag_wait_local(1, &mut |v| v.0 >= r)?;
                    } else {
                        c.flag_wait_local(0, &mut |v| v.0 >= r)?;
                        c.get_to_mem(MpbAddr::new(CoreId(0), 2), MemRange::new(32, 4))?;
                        let mut b = [0u8; 4];
                        c.mem_read(32, &mut b)?;
                        // The payload must be exactly the round the flag
                        // announced (release/acquire ordering).
                        if u32::from_le_bytes(b) == r {
                            seen += 1;
                        }
                        c.flag_put(MpbAddr::new(peer, 1), FlagValue(r))?;
                    }
                }
                Ok(seen)
            })
            .unwrap();
        assert_eq!(rep.results[1].as_ref().unwrap(), &rounds);
    }

    #[test]
    fn bounds_errors_surface() {
        let rep = run_spmd(&RtConfig { num_cores: 1, mem_bytes: 64 }, |c| {
            let a = c.mem_write(60, &[0; 8]).unwrap_err();
            let b = c.get_to_mpb(MpbAddr::new(CoreId(0), 255), 0, 2).unwrap_err();
            // `offset + len` overflows: still the typed error, no wrap.
            let far = usize::MAX - 31;
            let wrapped = [
                c.mem_read(far, &mut [0; 64]).unwrap_err(),
                c.mem_write(far, &[0; 64]).unwrap_err(),
                c.get_to_mem(MpbAddr::new(CoreId(0), 0), MemRange::new(far, 64)).unwrap_err(),
            ];
            (
                matches!(a, RmaError::MemOutOfRange { .. }),
                matches!(b, RmaError::MpbOutOfRange { .. }),
                wrapped.iter().all(|e| matches!(e, RmaError::MemOutOfRange { .. })),
            )
        })
        .unwrap();
        assert_eq!(rep.results[0], (true, true, true));
    }

    #[test]
    fn compute_spins_measurably() {
        let rep = run_spmd(&RtConfig { num_cores: 1, mem_bytes: 64 }, |c| {
            let t0 = c.now();
            c.compute(Time::from_us_f64(200.0));
            c.now() - t0
        })
        .unwrap();
        assert!(rep.results[0] >= Time::from_us_f64(190.0));
    }
}
