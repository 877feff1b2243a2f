//! Process resource usage: CPU time of every thread of this process and its
//! peak resident set, read with `getrusage(RUSAGE_SELF)`.
//!
//! The standard library exposes neither, and the benchmark may not depend
//! on crates the repository does not vendor, so the one libc call is
//! declared here. The layout is the Linux `struct rusage` of every 64-bit
//! target: two `timeval`s followed by fourteen `long` counters.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// Peak resident set in KiB; the other thirteen counters are unused.
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the kernel's
    // 64-bit layout, and RUSAGE_SELF is a valid `who`; the call writes
    // only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

fn micros(t: &Timeval) -> u64 {
    (t.tv_sec as u64) * 1_000_000 + t.tv_usec as u64
}

/// User plus system CPU time consumed so far by all threads of this process.
pub fn process_cpu() -> Duration {
    let u = rusage();
    Duration::from_micros(micros(&u.ru_utime) + micros(&u.ru_stime))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}
