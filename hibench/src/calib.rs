//! Calibrated host time: the clock every end-to-end time metric reads.
//!
//! The build host is a share of a machine that others use too. Its speed
//! drifts by tens of percent over minutes, and other tenants take CPU
//! time away from it in bursts. Wall time of the same code then differs
//! from run to run by more than any change worth measuring. Two steps
//! take that out:
//!
//! * Work is timed in **process CPU time**, which stops while the
//!   process waits for a CPU (another thread or tenant holds it, or the
//!   hypervisor took it away).
//! * Beside every timed piece of work the benchmark times a fixed
//!   **reference computation** of its own, also in CPU time, and scales
//!   the work to the host speed at which the reference takes `REF_NS`:
//!
//! ```text
//! calibrated = CPU time of the work × REF_NS / CPU time of the reference now
//! ```
//!
//! The reference shares no code with the program. A change to the
//! program moves the work and leaves the reference alone, so it shows in
//! full; a host that runs faster or slower moves both and cancels. On a
//! quiet host at the nominal speed a single-threaded piece of work reads
//! its wall time.

use std::hint::black_box;
use std::sync::OnceLock;

/// CPU nanoseconds of one reference pass at the nominal host speed: what
/// it takes on the 2-vCPU share of an Intel Xeon host the benchmark was
/// tuned on when that host is quiet.
pub const REF_NS: f64 = 1.7e6;

/// Entries in the reference's pointer-chasing table (32 KiB of `u32`).
/// A table this small stays in the first-level caches, so how the
/// operating system places its pages does not change the reference's
/// speed from one process to the next.
const TABLE: usize = 1 << 13;
/// Dependent steps of one reference pass.
const STEPS: usize = 300_000;

/// CPU nanoseconds this process has received so far, on all its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`).
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call, and
    // the clock id is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere, wall time since the first call stands in for CPU time.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

fn table() -> &'static [u32] {
    static T: OnceLock<Vec<u32>> = OnceLock::new();
    T.get_or_init(|| {
        // One random cycle through every entry (Sattolo's algorithm), so
        // the chase visits the whole table in an order the prefetcher
        // cannot guess.
        let mut t: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.swap(i, (x % i as u64) as usize);
        }
        t
    })
}

/// One reference pass: dependent loads, data-dependent branches, integer
/// multiply chains and short-lived heap allocations, the kinds of work a
/// simulator step is made of. Returns its CPU nanoseconds.
fn reference_once(t: &[u32]) -> u64 {
    let start = process_cpu_ns();
    let mut at = black_box(0usize);
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    let mut scratch: Vec<Vec<u64>> = Vec::new();
    for step in 0..STEPS {
        at = t[at] as usize;
        h = (h ^ at as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
        if h >> 61 == 3 {
            h = h.rotate_left(17);
        } else if h & 0x30 == 0 {
            h ^= h >> 29;
        }
        if step % 64 == 0 {
            scratch.push(vec![h; 8 + (h & 31) as usize]);
            if scratch.len() > 16 {
                scratch.swap_remove((h % 16) as usize);
            }
        }
    }
    black_box((at, h, scratch.len()));
    process_cpu_ns() - start
}

/// CPU nanoseconds of the reference now: the fastest of three
/// back-to-back passes.
pub fn reference_ns() -> f64 {
    let t = table();
    (0..3).map(|_| reference_once(t)).min().unwrap_or(1) as f64
}

/// Times pieces of work in calibrated nanoseconds. The reference runs
/// after every piece; each piece is scaled by the mean of the reference
/// times just before and just after it.
pub struct Meter {
    last: f64,
    /// Every reference time taken, for the host-speed note.
    refs: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        let last = reference_ns();
        Meter {
            last,
            refs: vec![last],
        }
    }

    /// Runs `f`; returns its result and its calibrated nanoseconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = process_cpu_ns();
        let out = f();
        let cpu = (process_cpu_ns() - start) as f64;
        let now = reference_ns();
        let scale = REF_NS * 2.0 / (self.last + now);
        self.last = now;
        self.refs.push(now);
        (out, cpu * scale)
    }

    /// Host speed relative to nominal, from the median reference time:
    /// 1.0 at nominal speed, 0.5 on a host half as fast.
    pub fn host_speed(&self) -> f64 {
        REF_NS / crate::layers::median(&self.refs)
    }
}
