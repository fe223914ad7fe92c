//! Host-side measurements: process CPU time and peak resident memory,
//! read from `/proc`, and the host's current speed, read by timing a
//! fixed probe. Linux only; a missing or unreadable file is an error,
//! never a silent zero, so a reading the benchmark cannot take fails the
//! run instead of reporting a bogus metric.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported `USER_HZ = 100` to user space on every architecture since 2.6.
const USER_HZ: u64 = 100;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// User + system CPU time of the whole process (every thread, including
/// threads that have already exited), in nanoseconds.
///
/// # Errors
///
/// Fails if `/proc/self/stat` cannot be read or parsed.
pub fn process_cpu_ns() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from the last ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| invalid("malformed /proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| invalid("missing cpu field in /proc/self/stat"))
    };
    Ok((tick(14)? + tick(15)?) * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size of the process (`VmHWM`), in bytes.
///
/// # Errors
///
/// Fails if `/proc/self/status` cannot be read or lacks `VmHWM`.
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| invalid("no VmHWM in /proc/self/status"))
}

/// Steps of one probe: 15 to 45 ms on a 2-vCPU Xeon VM, with the host
/// fast or slow.
pub const PROBE_STEPS: u64 = 400_000;

/// Table the probe reads and writes at random: 2 MB. The size sets how
/// much the probe feels the neighbours' use of the shared caches; at
/// 2 MB its time moves with the host's speed as the simulator's does.
/// Over 48 ten-second `paper-figures` runs on a 2-vCPU Xeon VM, pass time
/// went as probe time to the power 0.83 with a 4 MB table and 1.12 with
/// a 1 MB one.
pub const PROBE_TABLE: usize = 1 << 18;

/// One reading of the probe: the mean over its threads of each thread's
/// wall ns and of its CPU ns. CPU time leaves out the time the hypervisor
/// gave the core to another guest, as the process's CPU time does, so
/// wall timings are scaled by the one and CPU timings by the other.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTime {
    /// Mean wall ns of the probe's threads.
    pub wall_ns: f64,
    /// Mean CPU ns of the probe's threads.
    pub cpu_ns: f64,
}

/// Times the probe's fixed work run on `threads` threads at once (the
/// sweep's worker count, so both see the same sharing of cores and
/// caches). The mean over threads is the host's average speed over its
/// cores, as a sweep sees it; the slowest thread alone would read every
/// hiccup of either core. Each thread's table is written before the
/// threads start together, so page faults stay out of the reading, and
/// is freed before this returns.
///
/// The host this benchmark runs on is a share of a machine whose speed
/// moves with its neighbours' load, by up to 1.7× over minutes. The
/// probe is the benchmark's own code, so a change to the simulator
/// cannot move it; dividing a timing by the probe's time taken next to
/// it removes the host's speed from the timing and leaves the
/// simulator's.
///
/// # Errors
///
/// Fails if a thread's CPU time cannot be read.
pub fn probe(threads: usize) -> io::Result<ProbeTime> {
    let threads = threads.max(1);
    let barrier = std::sync::Barrier::new(threads);
    let readings = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut table = vec![1u64; PROBE_TABLE];
                    barrier.wait();
                    let cpu0 = thread_cpu_ns()?;
                    let wall = probe_here_ns(k as u64, PROBE_STEPS, &mut table);
                    Ok((wall, thread_cpu_ns()? - cpu0))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(invalid("probe thread panicked")))
            })
            .collect::<io::Result<Vec<(u64, u64)>>>()
    })?;
    let mean = |f: fn(&(u64, u64)) -> u64| {
        readings.iter().map(f).sum::<u64>() as f64 / readings.len() as f64
    };
    Ok(ProbeTime {
        wall_ns: mean(|r| r.0),
        cpu_ns: mean(|r| r.1),
    })
}

/// CPU ns the calling thread has run, from `/proc/thread-self/schedstat`.
fn thread_cpu_ns() -> io::Result<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")?
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| invalid("malformed /proc/thread-self/schedstat"))
}

/// Times `steps` of the probe's work from `seed` on the calling thread,
/// with a table of [`PROBE_TABLE`] entries the caller allocated, and
/// returns the wall ns it took.
#[must_use]
pub fn probe_here_ns(seed: u64, steps: u64, table: &mut [u64]) -> u64 {
    let t = Instant::now();
    std::hint::black_box(probe_work(seed, steps, table));
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the simulator's hot loops do, in miniature: random reads and
/// writes over a table (the heap model), and pushes and pops on a binary
/// heap (the event queue).
fn probe_work(seed: u64, steps: u64, table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut queue = BinaryHeap::with_capacity(4096);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & mask;
        table[slot] = table[slot].wrapping_add(x);
        acc ^= table[(acc as usize ^ slot) & mask];
        queue.push(Reverse(x >> 40));
        if queue.len() > 2048 {
            acc = acc.wrapping_add(queue.pop().map_or(0, |r| r.0));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_move() {
        let before = process_cpu_ns().unwrap();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ns().unwrap() > before);
        assert!(peak_rss_bytes().unwrap() > 0);
        let p = probe(2).unwrap();
        assert!(p.wall_ns > 0.0 && p.cpu_ns > 0.0);
    }
}
