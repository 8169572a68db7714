//! Stackful coroutines for the engine: a stack allocator and a context
//! switch, and the only `unsafe` the engine needs.
//!
//! Every simulated core runs its closure on a stack of its own, and the
//! engine moves the host thread between those stacks with [`switch`]:
//! callee-saved registers and the stack pointer, a few nanoseconds,
//! where the OS-thread engine paid a futex wake and a park. The surface
//! is four functions — [`checkout`] and [`checkin`] lease stacks from a
//! per-host-thread free list, [`prepare`] lays out a fresh stack so the
//! first switch to it calls an entry function, and [`switch`] suspends
//! the running context and resumes another.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "scc-sim switches coroutine stacks with x86_64 System V assembly and maps them with Linux \
     mmap; on other targets run the protocols on the portable thread backend, scc-rt"
);

use std::cell::{Cell, RefCell};
use std::ffi::c_void;

/// Usable bytes of one coroutine stack — the stack a simulated core's
/// closure runs on. One constant, not a setting: pages are committed
/// only when touched, so the size costs address space, not memory, and
/// 1 MiB leaves protocol code (whose deepest frames hold a few KiB) the
/// headroom it has on a default 2 MiB OS thread stack minus what the
/// runtime itself uses.
pub const STACK_BYTES: usize = 1 << 20;

/// One inaccessible page below the stack, so an overflow faults instead
/// of running into whatever is mapped next.
const GUARD_BYTES: usize = 4096;

/// Stacks one host thread keeps warm between runs: one full-chip run.
const MAX_WARM: usize = scc_hal::NUM_CORES;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`.
const MAP_FLAGS: i32 = 0x2 | 0x20 | 0x4000 | 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// An owned stack mapping: a guard page, then [`STACK_BYTES`] bytes.
pub(crate) struct Stack {
    base: *mut u8,
}

impl Stack {
    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks aliases nothing; the result is checked before use.
        let base = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_FLAGS, -1, 0) };
        assert!(base as isize != -1, "mmap of a {len}-byte coroutine stack failed");
        // SAFETY: the first page of the mapping just created; nothing
        // has been stored there.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(rc == 0, "mprotect of a coroutine stack's guard page failed");
        MAPPED.with(|m| m.set(m.get() + 1));
        Stack { base: base.cast() }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the mapping `map` created with this length,
        // unmapped once. Stacks return to `checkin` (or drop) only when
        // no context on them will be resumed — `switch`'s contract.
        unsafe { munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

thread_local! {
    static WARM: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    static MAPPED: Cell<u64> = const { Cell::new(0) };
    static REUSED: Cell<u64> = const { Cell::new(0) };
}

/// Stacks the calling host thread has ever mapped. Back-to-back runs on
/// one thread reuse warm stacks, so this stops growing after the first.
pub fn stacks_mapped() -> u64 {
    MAPPED.with(Cell::get)
}

/// Stack leases the calling host thread has served from its warm list.
pub fn stacks_reused() -> u64 {
    REUSED.with(Cell::get)
}

/// Lease `n` stacks, warm ones first, mapping only the shortfall.
pub(crate) fn checkout(n: usize) -> Vec<Stack> {
    let mut stacks = WARM.with_borrow_mut(|warm| {
        let keep = warm.len().saturating_sub(n);
        warm.split_off(keep)
    });
    REUSED.with(|r| r.set(r.get() + stacks.len() as u64));
    stacks.resize_with(n, Stack::map);
    stacks
}

/// Return leased stacks; at most [`MAX_WARM`] stay mapped per host
/// thread (nested runs can lease more than that at once), the rest are
/// unmapped. No context on a returned stack may be resumed again.
pub(crate) fn checkin(mut stacks: Vec<Stack>) {
    WARM.with_borrow_mut(|warm| {
        stacks.truncate(MAX_WARM.saturating_sub(warm.len()));
        warm.append(&mut stacks);
    });
}

/// A suspended context: its stack pointer, below which [`switch`] left
/// the callee-saved registers and the address to resume at.
#[derive(Clone, Copy)]
#[repr(transparent)]
pub(crate) struct Context(*mut u8);

impl Context {
    /// A context that cannot be resumed: a place for [`switch`] to save
    /// into before the first save happens.
    pub(crate) const fn null() -> Context {
        Context(std::ptr::null_mut())
    }
}

/// Lay out `stack` so that the first [`switch`] to the returned context
/// calls `entry(arg)` on it. Whatever ran on the stack before is
/// overwritten: contexts saved on it earlier become invalid.
pub(crate) fn prepare(
    stack: &mut Stack,
    entry: extern "C" fn(*mut ()) -> !,
    arg: *mut (),
) -> Context {
    // What `switch` pops, lowest address first: r15 r14 r13 r12 rbx rbp,
    // then the address it returns to. Above that a zero return address
    // and a zero pad end any frame walk at the trampoline, and put rsp
    // on a 16-byte boundary at the trampoline's `call`.
    let frame: [u64; 9] =
        [0, 0, entry as *const () as u64, arg as u64, 0, 0, trampoline as *const () as u64, 0, 0];
    // SAFETY: the top `size_of(frame)` bytes of the mapping, which is
    // page-aligned and `STACK_BYTES` long above the guard page; `&mut`
    // says no live reference points into it.
    unsafe {
        let sp = stack.base.add(GUARD_BYTES + STACK_BYTES - size_of_val(&frame));
        sp.cast::<[u64; 9]>().write(frame);
        Context(sp)
    }
}

/// First code on a fresh stack: [`prepare`] put the argument in r12 and
/// the entry function in r13, and `entry` never returns.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!("mov rdi, r12", "call r13")
}

/// Suspend the running context into `*save` and resume `to`; returns
/// when another `switch` resumes the context saved here.
///
/// # Safety
///
/// `save` is valid for a write. `to` came from [`prepare`] or from a
/// `switch` save, has not been resumed since, its stack is still leased
/// and has not been prepared again, and it is resumed on the host thread
/// that suspended it (stacks never leave their thread's free list).
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut Context, to: Context) {
    // rbp, rbx and r12-r15 are all the System V ABI lets a callee
    // assume preserved; everything else the compiler already treats as
    // clobbered by the call. Contexts share one host thread, hence one
    // MXCSR/x87 control word, which Rust code never changes.
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PingPong {
        main: Cell<Context>,
        coro: Cell<Context>,
        log: RefCell<Vec<u32>>,
    }

    extern "C" fn body(arg: *mut ()) -> ! {
        // SAFETY: the test passes a `PingPong` that outlives the coroutine.
        let pp = unsafe { &*(arg as *const PingPong) };
        for i in 0..3 {
            pp.log.borrow_mut().push(i);
            // SAFETY: `main` was saved by the switch that resumed us.
            unsafe { switch(pp.coro.as_ptr(), pp.main.get()) };
        }
        unreachable!("resumed more often than the test switches");
    }

    #[test]
    fn switch_alternates_between_two_stacks() {
        let pp = PingPong {
            main: Cell::new(Context::null()),
            coro: Cell::new(Context::null()),
            log: RefCell::new(Vec::new()),
        };
        let mut stacks = checkout(1);
        pp.coro.set(prepare(&mut stacks[0], body, &pp as *const PingPong as *mut ()));
        for round in 0..3 {
            // SAFETY: `coro` is the prepared context, then the one the
            // body saved at its last suspension.
            unsafe { switch(pp.main.as_ptr(), pp.coro.get()) };
            assert_eq!(pp.log.borrow().len(), round + 1);
        }
        assert_eq!(*pp.log.borrow(), vec![0, 1, 2]);
        // The body is suspended for good; its stack may be reused.
        checkin(stacks);
    }

    #[test]
    fn warm_stacks_are_reused_and_capped() {
        checkin(checkout(3));
        let (mapped, reused) = (stacks_mapped(), stacks_reused());
        checkin(checkout(3));
        assert_eq!(stacks_mapped(), mapped, "a warm stack was mapped again");
        assert_eq!(stacks_reused(), reused + 3);
        // Wider than the cap: the surplus is unmapped at checkin.
        checkin(checkout(MAX_WARM + 2));
        assert_eq!(WARM.with_borrow(Vec::len), MAX_WARM);
    }
}
