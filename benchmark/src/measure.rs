//! Clocks, `/proc` readers and order statistics. Linux only: the
//! benchmark's CPU, memory and I/O figures all come from `/proc/self`.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ). It is
/// 100 on every Linux ABI this benchmark runs on; `sysconf` would need
/// libc, which the package does not link.
const CLK_TCK: f64 = 100.0;

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// User + system CPU seconds of this process (all threads, including
/// those already joined).
pub fn cpu_seconds() -> f64 {
    let stat = read_proc("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

fn status_kib(key: &str) -> f64 {
    read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size in MiB since the last successful
/// [`reset_peak_rss`] (or process start).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Resets the kernel's RSS high-water mark to the current RSS. Returns
/// whether the kernel accepted the write; when it did not, peak RSS
/// covers the whole process and the report says so.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes this process passed to `write`-family syscalls so far.
pub fn written_bytes() -> u64 {
    read_proc("/proc/self/io")
        .lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size in bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.metadata() {
            Ok(m) if m.is_dir() => total += dir_bytes(&path),
            Ok(m) => total += m.len(),
            Err(_) => {}
        }
    }
    total
}

/// CPU and wall clock over one measured interval.
pub struct Interval {
    wall: Instant,
    cpu: f64,
}

impl Interval {
    pub fn start() -> Interval {
        Interval {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, cpu seconds)` since `start`.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Inter-quartile range as a share of the median, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` gives (exclusive
/// method) — the spread the driver computes. 0 for fewer than two
/// values or a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    let med = median(&v);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((iqr_share(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_work() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        let _ = written_bytes();
    }
}
