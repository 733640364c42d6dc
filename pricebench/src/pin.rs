//! CPU placement of the shard worker and the generator.
//!
//! The pool's worker sleeps whenever its queue runs dry, and the
//! generator wakes it on the next send. On a 2-CPU host the scheduler
//! then often places the worker on the generator's CPU, where the two
//! time-share one CPU while the other idles: closed-loop passes of one
//! run measured from 42k to 122k req/s unpinned. Pinning the worker and
//! the generator to different CPUs removes that bimodality.
//!
//! Between the open loop's slot bursts the worker's CPU would go idle,
//! and on a virtual machine an idle CPU is handed back to the host,
//! which takes as long to give it back as its other tenants let it.
//! [`Warmer`] keeps that CPU busy during open-loop passes with a
//! lowest-priority (`SCHED_IDLE`) spinner, which the kernel preempts the
//! moment the worker wakes: over four `large_subst` runs the open loop's
//! p50 spread fell from about 30% to 5% of its median.
//!
//! std has no affinity or scheduling-policy API and the workspace
//! vendors no libc binding, so this issues the Linux system calls
//! directly.
//! On other targets both are reported as unavailable and the run goes
//! on without them.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Bytes of the CPU mask passed to the kernel (1024 CPUs; on x86-64
/// bit `c % 8` of byte `c / 8` stands for CPU `c`).
const MASK_BYTES: usize = 128;

const SCHED_SETSCHEDULER: usize = 144;
const SCHED_SETAFFINITY: usize = 203;
const SCHED_GETAFFINITY: usize = 204;
const SCHED_IDLE: usize = 5;

/// Issues system call `number` for the calling thread (pid 0) with
/// `arg` and the buffer `buf` as its other two arguments.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn thread_call(number: usize, arg: usize, buf: &mut [u8]) -> isize {
    let ret: isize;
    // SAFETY: the calls made here — sched_getaffinity and
    // sched_setaffinity with `arg` = `buf.len()`, sched_setscheduler
    // with `arg` = a policy and `buf` = a 4-byte sched_param — read or
    // write at most `buf.len()` bytes at `buf`, a live, exclusively
    // borrowed buffer, and touch no other memory of this process. They
    // act on the calling thread only. `syscall` clobbers rcx and r11,
    // declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") 0usize,
            in("rsi") arg,
            in("rdx") buf.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn thread_call(_number: usize, _arg: usize, _buf: &mut [u8]) -> isize {
    -1
}

/// The CPUs this thread may run on, ascending; empty if unknown.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    if thread_call(SCHED_GETAFFINITY, MASK_BYTES, &mut mask) < 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpu`. Returns `false` if the kernel refused.
pub fn pin_current(cpu: usize) -> bool {
    if cpu >= MASK_BYTES * 8 {
        return false;
    }
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    thread_call(SCHED_SETAFFINITY, MASK_BYTES, &mut mask) == 0
}

/// A `SCHED_IDLE` spinner pinned to one CPU. It starts paused; it
/// spins between [`Warmer::spin`]`(true)` and `spin(false)` and parks
/// otherwise. One thread serves the whole run, so passes see the same
/// threads (and allocator arenas) whether it spins or not.
pub struct Warmer {
    state: Arc<AtomicU8>,
    handle: Option<JoinHandle<()>>,
}

const PAUSED: u8 = 0;
const SPINNING: u8 = 1;
const STOPPED: u8 = 2;

impl Warmer {
    /// Starts the (paused) spinner on `cpu`; `None` if the kernel
    /// refuses the placement or the policy.
    #[must_use]
    pub fn start(cpu: usize) -> Option<Warmer> {
        let state = Arc::new(AtomicU8::new(PAUSED));
        let shared = Arc::clone(&state);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("pricebench-warm".into())
            .spawn(move || {
                // struct sched_param { int sched_priority; } = { 0 }
                let mut param = [0u8; 4];
                let ok = pin_current(cpu)
                    && thread_call(SCHED_SETSCHEDULER, SCHED_IDLE, &mut param) == 0;
                let _ = ready_tx.send(ok);
                if !ok {
                    return;
                }
                loop {
                    match shared.load(Ordering::SeqCst) {
                        SPINNING => std::hint::spin_loop(),
                        PAUSED => std::thread::park(),
                        _ => break,
                    }
                }
            })
            .ok()?;
        let warmer = Warmer {
            state,
            handle: Some(handle),
        };
        // A refused placement ends the thread; dropping joins it.
        ready_rx.recv().unwrap_or(false).then_some(warmer)
    }

    /// Starts or pauses the spinning.
    pub fn spin(&self, on: bool) {
        self.state
            .store(if on { SPINNING } else { PAUSED }, Ordering::SeqCst);
        if let Some(handle) = &self.handle {
            handle.thread().unpark();
        }
    }
}

impl Drop for Warmer {
    fn drop(&mut self) {
        self.state.store(STOPPED, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_moves_the_thread() {
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return; // no affinity support on this target
        }
        let last = cpus[cpus.len() - 1];
        std::thread::spawn(move || {
            assert!(pin_current(last));
            assert_eq!(allowed_cpus(), vec![last]);
        })
        .join()
        .unwrap();
        assert!(!pin_current(MASK_BYTES * 8));
    }

    #[test]
    fn a_warmer_starts_and_stops() {
        if let Some(&cpu) = allowed_cpus().first() {
            let warmer = Warmer::start(cpu).expect("SCHED_IDLE needs no privilege");
            warmer.spin(true);
            warmer.spin(false);
            drop(warmer);
        }
    }
}
