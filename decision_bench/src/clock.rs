//! The process's CPU-time clock, which times the benchmark's steps.
//!
//! On a shared virtual machine the hypervisor takes the vCPUs away for
//! stretches of milliseconds (steal time; up to half the wall time in
//! loaded periods on the 2-core box the README describes). A wall-clock
//! timer counts those stretches as the program's time, so the same code
//! measured minutes apart differs by 1.5–4×. A guest kernel with
//! paravirtual steal accounting leaves steal out of its CPU-time clocks,
//! so `CLOCK_PROCESS_CPUTIME_ID` reads the time the process's own
//! threads, workers included, spent computing.

use std::time::Duration;

/// `clockid_t` of the process CPU-time clock on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the process has used so far, summed over all its threads.
fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A point on the process CPU-time clock, used like `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    pub fn now() -> Self {
        CpuInstant(process_cpu())
    }

    /// CPU time the process used since `self`.
    pub fn elapsed(&self) -> Duration {
        process_cpu().saturating_sub(self.0)
    }
}
