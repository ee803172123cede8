//! Measurement helpers: order statistics, per-phase peak memory, process
//! CPU time, and the reference kernel.

use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Fastest of repeated runs of one deterministic operation; 0 when empty.
/// Interference from other tenants of a shared host only ever adds time,
/// and it comes in bursts of a few seconds, so the fastest pass tracks
/// the code's own cost far more steadily than the median does.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` (0–1) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// the next [`peak_rss_mib`] reading covers only what ran in between.
/// Returns false where the kernel does not offer the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    gfd_core::peak_rss_bytes() as f64 / MIB
}

/// User plus system CPU seconds of the whole process, all threads
/// included (`/proc/self/stat`, in 1/100 s ticks).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Times a fixed CPU and memory kernel that lives here, not in the
/// program: a pseudo-random walk over an 8 MiB table. Its duration tells a
/// slow machine apart from slow code; it never scales a metric. Runs take
/// it at intervals through their timed window.
pub fn reference_kernel_ms() -> f64 {
    let mut table: Vec<u64> = (0..1u64 << 20).collect();
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..8_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}
