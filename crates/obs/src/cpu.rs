//! On-CPU time: what a thread or the whole process has spent running,
//! as opposed to the wall time [`crate::MonotonicClock`] measures. A
//! claim such as "a cached answer costs a tenth of a computed one" holds
//! in CPU time whether or not the host is busy; in wall time it also
//! measures every wait for a core.
//!
//! Both clocks read `getrusage` (user + system time, 1 µs resolution),
//! declared `extern "C"` so the crate stays dependency-free. Where that
//! call is not wired up they return `None`. Neither is on the disabled
//! fast path of the instrumentation calls.

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> Option<u64> {
    sys::rusage_ns(sys::RUSAGE_THREAD)
}

/// CPU time every thread of this process has used, dead ones included,
/// in nanoseconds.
pub fn process_cpu_ns() -> Option<u64> {
    sys::rusage_ns(sys::RUSAGE_SELF)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    pub(super) const RUSAGE_SELF: i32 = 0;
    pub(super) const RUSAGE_THREAD: i32 = 1;

    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` of 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        counts: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    pub(super) fn rusage_ns(who: i32) -> Option<u64> {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a writable `struct rusage` of this target's
        // layout, and `getrusage` writes nothing else.
        if unsafe { getrusage(who, &mut usage) } != 0 {
            return None;
        }
        let ns = |t: &Timeval| {
            let sec = u64::try_from(t.sec).ok()?;
            let usec = u64::try_from(t.usec).ok()?;
            sec.checked_mul(1_000_000_000)?.checked_add(usec * 1_000)
        };
        ns(&usage.utime)?.checked_add(ns(&usage.stime)?)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub(super) const RUSAGE_SELF: i32 = 0;
    pub(super) const RUSAGE_THREAD: i32 = 1;

    pub(super) fn rusage_ns(_who: i32) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burn CPU on this thread until its clock has advanced `ns`, or
    /// give up after a bounded number of rounds.
    fn spin_for(ns: u64) -> u64 {
        let start = thread_cpu_ns().unwrap();
        let mut acc = 0u64;
        for round in 0..100_000u64 {
            for i in 0..10_000u64 {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(std::hint::black_box(i ^ round));
            }
            if thread_cpu_ns().unwrap() - start >= ns {
                break;
            }
        }
        acc
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn work_advances_both_clocks_and_sleep_advances_neither_much() {
        let (t0, p0) = (thread_cpu_ns().unwrap(), process_cpu_ns().unwrap());
        std::hint::black_box(spin_for(5_000_000));
        let (t1, p1) = (thread_cpu_ns().unwrap(), process_cpu_ns().unwrap());
        assert!(t1 - t0 >= 5_000_000, "thread clock moved {} ns", t1 - t0);
        assert!(
            p1 - p0 >= t1 - t0,
            "process {} < thread {}",
            p1 - p0,
            t1 - t0
        );
        assert!(p1 >= t1);

        std::thread::sleep(std::time::Duration::from_millis(50));
        let t2 = thread_cpu_ns().unwrap();
        assert!(
            t2 - t1 < 10_000_000,
            "a 50 ms sleep cost {} ns of CPU",
            t2 - t1
        );
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn another_threads_work_shows_in_the_process_clock_only() {
        let (t0, p0) = (thread_cpu_ns().unwrap(), process_cpu_ns().unwrap());
        let worker = std::thread::spawn(|| {
            let start = thread_cpu_ns().unwrap();
            std::hint::black_box(spin_for(5_000_000));
            thread_cpu_ns().unwrap() - start
        });
        let used = worker.join().unwrap();
        let (t1, p1) = (thread_cpu_ns().unwrap(), process_cpu_ns().unwrap());
        assert!(used >= 5_000_000);
        assert!(p1 - p0 >= used, "process {} < worker {used}", p1 - p0);
        assert!(t1 - t0 < used, "this thread {} >= worker {used}", t1 - t0);
    }
}
