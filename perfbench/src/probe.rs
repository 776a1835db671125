//! Measurement helpers: wall-clock spans, order statistics, seed
//! derivation, and the `/proc` readers behind `peak_rss_mb` and the CPU
//! accounting.

use std::time::Instant;

/// Run `f` and return its value with the wall time it took, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Run a set-up `times` times (at least once) and return the last result
/// with the median wall time of all of them, in seconds.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut walls = Vec::new();
    loop {
        let (value, wall) = timed(&mut setup);
        walls.push(wall);
        let value = value?;
        if walls.len() >= times {
            return Ok((value, median(&walls)));
        }
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// SplitMix64 finaliser: derives independent sub-seeds from the workload
/// seed, so every input of a run is a pure function of `--seed`.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set size (`VmHWM`) of `pid` (this process for `None`), in
/// MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line '{line}'"))?;
    Ok(kib / 1024.0)
}

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time consumed so far by every thread of `pid`
/// (this process for `None`), in seconds.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14 and stime field 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("unreadable {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |index: usize| -> Result<f64, String> {
        fields
            .get(index - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path} lacks field {index}"))
    };
    Ok((field(14)? + field(15)?) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), 990.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(cpu_seconds(None).unwrap() >= 0.0);
    }
}
