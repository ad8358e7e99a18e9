//! Percentiles, process counters read from `/proc`, and a tiny JSON
//! writer (the benchmark has no serialization dependency).

use std::fmt::Write as _;

/// A percentile summary that carries its sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pct {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

/// Below this many samples a p99 has fewer than ten samples beyond it
/// and is flagged in the run record.
pub const MIN_P99_SAMPLES: usize = 1000;

impl Pct {
    /// Summarizes `samples` (any order; sorted in place).
    pub fn of(samples: &mut [f64]) -> Pct {
        samples.sort_unstable_by(f64::total_cmp);
        Pct {
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
            n: samples.len(),
        }
    }

    pub fn p99_flagged(&self) -> bool {
        self.n < MIN_P99_SAMPLES
    }
}

/// Linear interpolation between the closest ranks of a sorted slice;
/// 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Process user + system CPU seconds so far, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hands the allocator's free memory back to the kernel and restarts
/// `VmHWM` from the resident set that is left (`5` to
/// `/proc/self/clear_refs`), so that [`peak_rss_mib`] less [`rss_mib`]
/// is what runs afterwards added. Where the kernel refuses the reset,
/// the peak stays the process's.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// SplitMix64: the benchmark's seeded, stateless input generator.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        let p = Pct::of(&mut v);
        assert_eq!(p.p50, 3.0);
        assert!((p.p99 - 4.96).abs() < 1e-9);
        assert_eq!(p.n, 5);
        assert!(p.p99_flagged());
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mib() >= rss_mib() && rss_mib() > 0.0);
        let t0 = cpu_seconds();
        let mut acc = 0u64;
        for i in 0..50_000_000u64 {
            acc = acc.wrapping_add(mix(i));
        }
        std::hint::black_box(acc);
        assert!(cpu_seconds() > t0);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
