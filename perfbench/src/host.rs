//! Host-side measurements: wall time of a call, process CPU time over
//! all threads, and peak resident memory.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process has used so far, in seconds, summed over
/// every thread it ever ran: grid workers, CMP phase-A workers and
/// frontend producers included, also after they have exited.
///
/// # Panics
///
/// Panics if the clock cannot be read (not a Linux host).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Run `f`, returning its value and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
