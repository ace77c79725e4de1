//! CPU placement. Left to the scheduler, a closed-loop client and the
//! process it talks to land on one core in some runs and on two in others,
//! and which it is decides the result more than the program does. So the
//! harness always pins itself to the last CPU it may run on, and puts the
//! program in one of two places:
//!
//! * [`Placement::Apart`] — on the other CPUs. The harness observes from
//!   outside: it is woken the moment a first byte arrives instead of when
//!   the program's time slice ends, so time-to-first-byte is the program's
//!   and not the scheduler's, and the harness's own work (fingerprinting
//!   megabytes of output) takes no cycles from the program.
//! * [`Placement::Together`] — on the same CPU as the harness. For a
//!   ping-pong of sub-millisecond requests: apart, every request pays two
//!   cross-CPU wake-ups, whose cost on a virtual machine drifts by tens of
//!   percent from minute to minute (26% between runs of one binary, against
//!   5% together). Nothing is lost: client and server never run at once.
//!
//! With a single CPU, or if the kernel refuses, nothing is pinned.

use std::process::{Child, Command};
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    Apart,
    Together,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

struct Pinned {
    harness: CpuSet,
    /// Where children go; equal to `harness` for [`Placement::Together`].
    program: CpuSet,
}

static PINNED: OnceLock<Option<Pinned>> = OnceLock::new();

fn allowed() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is valid for writes of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn apply(set: &CpuSet) -> bool {
    // SAFETY: `set` is valid for reads of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Split an allowed set into (its highest CPU, all the others); `None`
/// when it has fewer than two CPUs.
fn split(allowed: &CpuSet) -> Option<(CpuSet, CpuSet)> {
    let mut cpus = (0..1024).filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1);
    let first = cpus.next()?;
    let last = cpus.next_back()?;
    debug_assert!(first < last);
    let mut highest: CpuSet = [0; 16];
    highest[last / 64] = 1 << (last % 64);
    let mut others = *allowed;
    others[last / 64] &= !(1 << (last % 64));
    Some((highest, others))
}

/// Pin the harness and decide where its children go. Call once, before
/// the first child is spawned.
pub fn place(placement: Placement) {
    PINNED.get_or_init(|| {
        let (harness, others) = split(&allowed()?)?;
        let program = match placement {
            Placement::Apart => others,
            Placement::Together => harness,
        };
        apply(&harness).then_some(Pinned { harness, program })
    });
}

/// Spawn `command` where the placement puts the program (affinity is
/// inherited at fork), then return the harness to its own CPU.
pub fn spawn(command: &mut Command) -> std::io::Result<Child> {
    match PINNED.get().and_then(Option::as_ref) {
        Some(pinned) if pinned.program != pinned.harness => {
            apply(&pinned.program);
            let child = command.spawn();
            apply(&pinned.harness);
            child
        }
        _ => command.spawn(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_takes_the_highest_cpu() {
        let mut allowed: CpuSet = [0; 16];
        allowed[0] = 0b1011; // CPUs 0, 1, 3
        let (highest, others) = split(&allowed).unwrap();
        assert_eq!(highest[0], 0b1000);
        assert_eq!(others[0], 0b0011);
        allowed[0] = 0b0100;
        assert!(split(&allowed).is_none());
        assert!(split(&[0; 16]).is_none());
        // Works across words.
        let mut wide: CpuSet = [0; 16];
        wide[0] = 1;
        wide[1] = 1; // CPUs 0 and 64
        let (highest, others) = split(&wide).unwrap();
        assert_eq!((highest[0], highest[1]), (0, 1));
        assert_eq!((others[0], others[1]), (1, 0));
    }
}
