//! What the host charges a run: CPU time, peak resident memory and heap
//! allocations, read from `/proc` and from a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `utime + stime` in clock ticks from a `stat` file. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in kB from `/proc/self/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Linux reports `stat` times in ticks of 1/100 s on every
/// architecture (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds the calling thread — the run's one busy thread — has used
/// so far: the thread's CPU clock, which has nanosecond resolution. (The
/// `/proc` accounts advance only at scheduler ticks, 4–10 ms apart: too
/// coarse for timed regions of tens of milliseconds.) `stat` is the
/// fallback where the clock cannot be read.
pub fn cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `clock_gettime` is the C library's, which `std` links;
        // `ts` is a live, writable `timespec` of the layout this target's
        // C library uses, and the call writes nothing else.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 / 1e9;
        }
    }
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat_ticks(&t))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// Peak resident set of this process so far, in MB (0 where `/proc` has no
/// `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_kb(&t))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The system allocator with two relaxed counters in front. Installed for
/// every run, traced or not, so both sides of an A/B pay the same.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canned_proc_text() {
        let stat = "8050 (a (b) c) R 8045 8050 8045 0 -1 4194304 107 0 0 0 \
                    37 5 0 0 20 0 1 0 292054 2703360 312 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(42));
        assert_eq!(parse_stat_ticks("1 (x) R 2 3"), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1592 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1592));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = alloc_counts();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = alloc_counts();
        drop(v);
        assert!(after.0 > before.0 && after.1 >= before.1 + 4096);
        let cpu = cpu_seconds();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x).wrapping_mul(i | 1);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > cpu, "the CPU clock advances under work");
    }
}
