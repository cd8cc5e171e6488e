//! Sample statistics, the seeded generator and the process memory probe.

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0fbe_4c00_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of already sorted samples, nearest rank.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
/// above it, as `(label, value)`; `None` with fewer than 20 samples.
pub fn tail_sorted(sorted: &[u32]) -> Option<(&'static str, u32)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)]
        .into_iter()
        .find(|&(_, q)| (sorted.len() as f64 * (1.0 - q)).floor() >= 10.0)
        .map(|(label, q)| (label, quantile_sorted(sorted, q)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 500);
        assert_eq!(quantile_sorted(&s, 0.99), 990);
        assert_eq!(tail_sorted(&s), Some(("p99", 990)));
        assert_eq!(tail_sorted(&s[..15]), None);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u32> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.below(100)))
            .collect();
        let b: Vec<u32> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.below(100)))
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 100));
    }
}
