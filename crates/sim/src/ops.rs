//! Timed RMA operations: validation, timing simulation against the
//! chip's resources, and (at completion time) application of their
//! memory effects.
//!
//! Timing decomposition per cache line follows Section 3.1 of the
//! paper: the issuing core pays its per-line overhead, the request
//! packet traverses `d` routers, the target resource (MPB port or
//! memory controller) services the line, and the response/acknowledge
//! packet traverses the `d` routers back. Since a P54C core executes a
//! single memory transaction at a time, the `m` lines of an operation
//! are strictly sequential.

use crate::chip::{Chip, Path, Stage};
use crate::params::SimParams;
use scc_hal::{
    CoreId, FlagValue, MemRange, MpbAddr, RmaError, RmaResult, Time, CACHE_LINE_BYTES,
    MPB_LINES_PER_CORE,
};
use scc_obs::OpKind;

/// A timed operation issued by a core.
#[derive(Clone, Debug)]
pub enum Op {
    /// put: private memory → some MPB. With `cached`, the source read
    /// is free (data hot in L1, Section 5.2.2 of the paper).
    PutFromMem { src: MemRange, dst: MpbAddr, cached: bool },
    /// put: own MPB → some MPB.
    PutFromMpb { src_line: usize, dst: MpbAddr, lines: usize },
    /// get: some MPB → private memory.
    GetToMem { src: MpbAddr, dst: MemRange },
    /// get: some MPB → own MPB.
    GetToMpb { src: MpbAddr, dst_line: usize, lines: usize },
    /// 1-line put of a flag value.
    FlagPut { dst: MpbAddr, value: FlagValue },
    /// 1-line local read of a flag in the issuer's own MPB.
    ReadLine { line: usize },
}

/// Region of an MPB written by an op (used to wake parked waiters).
#[derive(Clone, Copy, Debug)]
pub struct WrittenRegion {
    pub core: CoreId,
    pub first_line: usize,
    pub lines: usize,
}

impl WrittenRegion {
    pub fn covers(&self, core: CoreId, line: usize) -> bool {
        self.core == core && line >= self.first_line && line < self.first_line + self.lines
    }
}

/// Outcome of applying an op's effects at completion time.
pub enum Effect {
    None,
    Wrote(WrittenRegion),
    Flag(FlagValue),
}

fn check_own_lines(owner: CoreId, first: usize, lines: usize) -> RmaResult<()> {
    if lines == 0 {
        return Err(RmaError::EmptyTransfer);
    }
    if first + lines > MPB_LINES_PER_CORE {
        return Err(RmaError::MpbOutOfRange {
            addr: MpbAddr::new(owner, first.min(MPB_LINES_PER_CORE - 1)),
            lines,
        });
    }
    Ok(())
}

/// Validate an op before simulating it. `issuer` is the calling core.
pub fn validate(chip: &Chip, issuer: CoreId, op: &Op) -> RmaResult<()> {
    let n = chip.num_cores;
    match op {
        Op::PutFromMem { src, dst, .. } => {
            src.check(chip.mem_bytes())?;
            dst.check(src.lines(), n)
        }
        Op::PutFromMpb { src_line, dst, lines } => {
            check_own_lines(issuer, *src_line, *lines)?;
            dst.check(*lines, n)
        }
        Op::GetToMem { src, dst } => {
            dst.check(chip.mem_bytes())?;
            src.check(dst.lines(), n)
        }
        Op::GetToMpb { src, dst_line, lines } => {
            src.check(*lines, n)?;
            check_own_lines(issuer, *dst_line, *lines)
        }
        Op::FlagPut { dst, .. } => dst.check(1, n),
        Op::ReadLine { line } => check_own_lines(issuer, *line, 1),
    }
}

// ---- per-line path builders -----------------------------------------

/// One cache-line read of `owner`'s MPB by `issuer`.
fn mpb_read_line(path: &mut Path, p: &SimParams, issuer: CoreId, owner: CoreId) {
    let port = Stage::port(owner.tile(), p.mpb_port_read);
    path.leg(p, p.o_core_mpb_read, issuer.tile(), owner.tile(), port);
}

/// One cache-line write into `owner`'s MPB by `issuer` (completion
/// includes the acknowledgment's way back).
fn mpb_write_line(path: &mut Path, p: &SimParams, issuer: CoreId, owner: CoreId) {
    let port = Stage::port(owner.tile(), p.mpb_port_write);
    path.leg(p, p.o_core_mpb_write, issuer.tile(), owner.tile(), port);
}

/// One cache-line read from the issuer's private off-chip memory.
fn mem_read_line(path: &mut Path, p: &SimParams, issuer: CoreId) {
    let mc = issuer.memory_controller();
    path.leg(p, p.o_core_mem_read, issuer.tile(), mc.attach_tile(), Stage::mc(mc, p.mc_read));
}

/// One cache-line write into the issuer's private off-chip memory.
fn mem_write_line(path: &mut Path, p: &SimParams, issuer: CoreId) {
    let mc = issuer.memory_controller();
    path.leg(p, p.o_core_mem_write, issuer.tile(), mc.attach_tile(), Stage::mc(mc, p.mc_write));
}

/// Append the stages of one line of `op` to `path`.
fn line_path(path: &mut Path, p: &SimParams, issuer: CoreId, op: &Op) {
    match op {
        Op::PutFromMem { dst, cached, .. } => {
            // With the source hot in L1 the read is free (Section 5.2.2).
            if !cached {
                mem_read_line(path, p, issuer);
            }
            mpb_write_line(path, p, issuer, dst.core);
        }
        // A flag put is modelled like a 1-line put from the issuer's
        // MPB: value marshalling costs one local line read, the deposit
        // one remote line write (matches C^mpb_put(1, d)).
        Op::PutFromMpb { dst, .. } | Op::FlagPut { dst, .. } => {
            mpb_read_line(path, p, issuer, issuer);
            mpb_write_line(path, p, issuer, dst.core);
        }
        Op::GetToMem { src, .. } => {
            mpb_read_line(path, p, issuer, src.core);
            mem_write_line(path, p, issuer);
        }
        Op::GetToMpb { src, .. } => {
            mpb_read_line(path, p, issuer, src.core);
            mpb_write_line(path, p, issuer, issuer);
        }
        Op::ReadLine { .. } => mpb_read_line(path, p, issuer, issuer),
    }
}

/// Coarse classification of an op for traces and event streams.
pub fn op_kind(op: &Op) -> OpKind {
    match op {
        Op::PutFromMem { .. } => OpKind::PutFromMem,
        Op::PutFromMpb { .. } => OpKind::PutFromMpb,
        Op::GetToMem { .. } => OpKind::GetToMem,
        Op::GetToMpb { .. } => OpKind::GetToMpb,
        Op::FlagPut { .. } => OpKind::FlagPut,
        Op::ReadLine { .. } => OpKind::FlagRead,
    }
}

/// Number of cache lines the op transfers.
pub fn total_lines(op: &Op) -> usize {
    match op {
        Op::PutFromMem { src, .. } => src.lines(),
        Op::PutFromMpb { lines, .. } => *lines,
        Op::GetToMem { dst, .. } => dst.lines(),
        Op::GetToMpb { lines, .. } => *lines,
        Op::FlagPut { .. } | Op::ReadLine { .. } => 1,
    }
}

/// Fixed software overhead charged once, before the first line.
pub fn op_overhead(chip: &Chip, op: &Op) -> Time {
    match op {
        Op::PutFromMem { .. } => chip.params.o_put_mem,
        Op::PutFromMpb { .. } | Op::FlagPut { .. } => chip.params.o_put_mpb,
        Op::GetToMem { .. } => chip.params.o_get_mem,
        Op::GetToMpb { .. } => chip.params.o_get_mpb,
        Op::ReadLine { .. } => Time::ZERO,
    }
}

/// Simulate the transfer of **one** cache line of the op, starting at
/// `t`; reserves resource capacity and returns the line's completion
/// time.
///
/// Ops are stepped line by line from the event loop (a P54C has a
/// single outstanding transaction, so line `i+1` starts when line `i`
/// completes). Stepping — rather than reserving all `m` lines at issue
/// time — is what lets concurrent operations interleave at a contended
/// MPB port instead of serializing wholesale.
///
/// Consecutive lines of one issuer mostly take one path — the lines of
/// one op always do — so the issuer's path is built once per op kind,
/// cached flag and peer core, and every line just books it.
pub fn simulate_line(chip: &mut Chip, issuer: CoreId, op: &Op, t: Time) -> Time {
    chip.stats.lines_moved += 1;
    // All a line's stages depend on besides the run's parameters.
    let (cached, peer) = match op {
        Op::PutFromMem { dst, cached, .. } => (*cached, dst.core),
        Op::PutFromMpb { dst, .. } | Op::FlagPut { dst, .. } => (false, dst.core),
        Op::GetToMem { src, .. } | Op::GetToMpb { src, .. } => (false, src.core),
        Op::ReadLine { .. } => (false, issuer),
    };
    let key = (op_kind(op) as u16) << 9 | (cached as u16) << 8 | peer.0 as u16;
    chip.book_line(issuer, key, t, |path, p| line_path(path, p, issuer, op))
}

/// Apply the memory effects of a completed op and say what they were.
/// Linearization point of every op is its completion time;
/// the scheduler calls this exactly then.
pub fn apply(chip: &mut Chip, issuer: CoreId, op: &Op) -> Effect {
    match op {
        Op::PutFromMem { src, dst, .. } => {
            chip.copy_private_to_mpb(issuer, src.offset, dst.core, dst.byte_offset(), src.len);
            Effect::Wrote(WrittenRegion {
                core: dst.core,
                first_line: dst.line(),
                lines: src.lines(),
            })
        }
        Op::PutFromMpb { src_line, dst, lines } => {
            chip.copy_mpb_to_mpb(
                issuer,
                src_line * CACHE_LINE_BYTES,
                dst.core,
                dst.byte_offset(),
                lines * CACHE_LINE_BYTES,
            );
            Effect::Wrote(WrittenRegion { core: dst.core, first_line: dst.line(), lines: *lines })
        }
        Op::GetToMem { src, dst } => {
            chip.copy_mpb_to_private(src.core, src.byte_offset(), issuer, dst.offset, dst.len);
            Effect::None
        }
        Op::GetToMpb { src, dst_line, lines } => {
            chip.copy_mpb_to_mpb(
                src.core,
                src.byte_offset(),
                issuer,
                dst_line * CACHE_LINE_BYTES,
                lines * CACHE_LINE_BYTES,
            );
            Effect::Wrote(WrittenRegion { core: issuer, first_line: *dst_line, lines: *lines })
        }
        Op::FlagPut { dst, value } => {
            let line = value.encode();
            chip.mpb_slice_mut(dst.core, dst.byte_offset(), CACHE_LINE_BYTES)
                .copy_from_slice(&line);
            Effect::Wrote(WrittenRegion { core: dst.core, first_line: dst.line(), lines: 1 })
        }
        Op::ReadLine { line } => {
            let bytes = chip.mpb_slice(issuer, line * CACHE_LINE_BYTES, CACHE_LINE_BYTES);
            Effect::Flag(FlagValue::decode(bytes))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Chip {
        Chip::new(SimParams::default(), 48, 64 * 1024)
    }

    /// Full op completion time in a contention-free chip (overhead
    /// plus all lines back to back).
    fn simulate_whole(chip: &mut Chip, issuer: CoreId, op: &Op, t: Time) -> Time {
        chip.stats.ops += 1;
        let mut t = t + op_overhead(chip, op);
        for _ in 0..total_lines(op) {
            t = simulate_line(chip, issuer, op, t);
        }
        t
    }

    /// Contention-free op timings must reproduce the closed-form model
    /// (Formulas 7–12 with Table-1 parameters) exactly.
    #[test]
    fn timings_match_model_formulas() {
        let p = scc_model_params();
        let model = ModelLike::new(p);
        for (m, dst) in [(1usize, CoreId(1)), (4, CoreId(2)), (16, CoreId(47))] {
            let d = CoreId(0).mpb_distance(dst);

            let mut chip = fixture();
            let done = simulate_whole(
                &mut chip,
                CoreId(0),
                &Op::PutFromMpb { src_line: 0, dst: MpbAddr::new(dst, 0), lines: m },
                Time::ZERO,
            );
            assert_close(done, model.c_put_mpb(m, d), "put_mpb");

            let mut chip = fixture();
            let done = simulate_whole(
                &mut chip,
                CoreId(0),
                &Op::GetToMpb { src: MpbAddr::new(dst, 0), dst_line: 0, lines: m },
                Time::ZERO,
            );
            assert_close(done, model.c_get_mpb(m, d), "get_mpb");

            let dmem = CoreId(0).mem_distance();
            let mut chip = fixture();
            let done = simulate_whole(
                &mut chip,
                CoreId(0),
                &Op::PutFromMem {
                    src: MemRange::new(0, m * CACHE_LINE_BYTES),
                    dst: MpbAddr::new(dst, 0),
                    cached: false,
                },
                Time::ZERO,
            );
            assert_close(done, model.c_put_mem(m, dmem, d), "put_mem");

            let mut chip = fixture();
            let done = simulate_whole(
                &mut chip,
                CoreId(0),
                &Op::GetToMem {
                    src: MpbAddr::new(dst, 0),
                    dst: MemRange::new(0, m * CACHE_LINE_BYTES),
                },
                Time::ZERO,
            );
            assert_close(done, model.c_get_mem(m, d, dmem), "get_mem");
        }
    }

    /// Minimal re-statement of the model formulas in picoseconds so the
    /// sim crate does not depend on scc-model (which depends on nothing
    /// here; the cross-check with the real crate lives in integration
    /// tests).
    struct ModelLike {
        p: SimParams,
    }
    impl ModelLike {
        fn new(p: SimParams) -> Self {
            ModelLike { p }
        }
        fn c_mpb_r(&self, d: u32) -> u64 {
            (self.p.o_core_mpb_read + self.p.mpb_port_read).as_ps()
                + 2 * d as u64 * self.p.l_hop.as_ps()
        }
        fn c_mpb_w(&self, d: u32) -> u64 {
            (self.p.o_core_mpb_write + self.p.mpb_port_write).as_ps()
                + 2 * d as u64 * self.p.l_hop.as_ps()
        }
        fn c_mem_r(&self, d: u32) -> u64 {
            (self.p.o_core_mem_read + self.p.mc_read).as_ps() + 2 * d as u64 * self.p.l_hop.as_ps()
        }
        fn c_mem_w(&self, d: u32) -> u64 {
            (self.p.o_core_mem_write + self.p.mc_write).as_ps()
                + 2 * d as u64 * self.p.l_hop.as_ps()
        }
        fn c_put_mpb(&self, m: usize, d: u32) -> u64 {
            self.p.o_put_mpb.as_ps() + m as u64 * (self.c_mpb_r(1) + self.c_mpb_w(d))
        }
        fn c_get_mpb(&self, m: usize, d: u32) -> u64 {
            self.p.o_get_mpb.as_ps() + m as u64 * (self.c_mpb_r(d) + self.c_mpb_w(1))
        }
        fn c_put_mem(&self, m: usize, ds: u32, dd: u32) -> u64 {
            self.p.o_put_mem.as_ps() + m as u64 * (self.c_mem_r(ds) + self.c_mpb_w(dd))
        }
        fn c_get_mem(&self, m: usize, ds: u32, dd: u32) -> u64 {
            self.p.o_get_mem.as_ps() + m as u64 * (self.c_mpb_r(ds) + self.c_mem_w(dd))
        }
    }

    fn scc_model_params() -> SimParams {
        SimParams::default()
    }

    fn assert_close(actual: Time, expect_ps: u64, what: &str) {
        assert_eq!(actual.as_ps(), expect_ps, "{what}: sim {actual:?} vs model {expect_ps} ps");
    }

    #[test]
    fn flag_put_costs_one_line_put() {
        let mut chip = fixture();
        let done = simulate_whole(
            &mut chip,
            CoreId(0),
            &Op::FlagPut { dst: MpbAddr::new(CoreId(3), 7), value: FlagValue(1) },
            Time::ZERO,
        );
        let model = ModelLike::new(SimParams::default());
        let d = CoreId(0).mpb_distance(CoreId(3));
        assert_eq!(done.as_ps(), model.c_put_mpb(1, d));
    }

    #[test]
    fn validation_catches_bad_addresses() {
        let chip = fixture();
        let e = validate(
            &chip,
            CoreId(0),
            &Op::GetToMpb { src: MpbAddr::new(CoreId(1), 250), dst_line: 0, lines: 10 },
        );
        assert!(matches!(e, Err(RmaError::MpbOutOfRange { .. })));

        let e = validate(
            &chip,
            CoreId(0),
            &Op::PutFromMem {
                src: MemRange::new(0, 1 << 20),
                dst: MpbAddr::new(CoreId(1), 0),
                cached: false,
            },
        );
        assert!(matches!(e, Err(RmaError::MemOutOfRange { .. })));

        let e = validate(
            &chip,
            CoreId(0),
            &Op::PutFromMpb { src_line: 0, dst: MpbAddr::new(CoreId(1), 0), lines: 0 },
        );
        assert!(matches!(e, Err(RmaError::EmptyTransfer)));

        // Partial final line is fine.
        assert!(validate(
            &chip,
            CoreId(0),
            &Op::PutFromMem {
                src: MemRange::new(0, 33),
                dst: MpbAddr::new(CoreId(1), 0),
                cached: false
            },
        )
        .is_ok());
    }

    #[test]
    fn validation_rejects_cores_outside_run() {
        let chip = Chip::new(SimParams::default(), 4, 4096);
        let e = validate(
            &chip,
            CoreId(0),
            &Op::FlagPut { dst: MpbAddr::new(CoreId(7), 0), value: FlagValue(1) },
        );
        assert!(matches!(e, Err(RmaError::Engine(_))));
    }

    #[test]
    fn apply_moves_the_payload() {
        let mut chip = fixture();
        chip.private_slice_mut(CoreId(0), 0, 5).copy_from_slice(b"hello");
        let op = Op::PutFromMem {
            src: MemRange::new(0, 5),
            dst: MpbAddr::new(CoreId(2), 4),
            cached: false,
        };
        match apply(&mut chip, CoreId(0), &op) {
            Effect::Wrote(w) => {
                assert!(w.covers(CoreId(2), 4));
                assert!(!w.covers(CoreId(2), 5));
                assert!(!w.covers(CoreId(1), 4));
            }
            _ => panic!("expected write effect"),
        }
        assert_eq!(chip.mpb_slice(CoreId(2), 4 * 32, 5), b"hello");

        // Round-trip back into another core's private memory.
        let op = Op::GetToMem { src: MpbAddr::new(CoreId(2), 4), dst: MemRange::new(64, 5) };
        apply(&mut chip, CoreId(9), &op);
        assert_eq!(chip.private_slice(CoreId(9), 64, 5), b"hello");
    }

    #[test]
    fn read_line_decodes_flag() {
        let mut chip = fixture();
        let val = FlagValue(0xABCD);
        chip.mpb_slice_mut(CoreId(4), 6 * 32, 32).copy_from_slice(&val.encode());
        match apply(&mut chip, CoreId(4), &Op::ReadLine { line: 6 }) {
            Effect::Flag(v) => assert_eq!(v, val),
            _ => panic!("expected flag effect"),
        }
    }
}
