//! Seeded randomness, nearest-rank percentiles, and the result line.

/// splitmix64: a small generator whose whole stream is a pure function of
/// the seed, so a workload's request stream can be replayed from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; the modulo bias is negligible for the small `n`
    /// used here. `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of all samples at or below it. Integer arithmetic keeps the
/// rank exact (`0.95 * 20` is not 19 in floating point).
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of 1..=100");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// How many samples lie strictly above the nearest-rank percentile — the
/// tail the percentile rests on.
pub fn beyond(samples: &[f64], pct: usize) -> usize {
    let p = percentile(samples, pct);
    samples.iter().filter(|&&s| s > p).count()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
/// A metric name the result format accepts: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The final stdout line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values keep every digit
/// Rust's shortest round-trip formatting gives them.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 10.0);
        assert_eq!(percentile(&s, 95), 19.0);
        assert_eq!(percentile(&s, 100), 20.0);
        assert_eq!(percentile(&s, 1), 1.0);
        assert_eq!(beyond(&s, 95), 1);
        // Order of the input does not matter; ties count toward the rank.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[5.0, 5.0, 5.0, 9.0], 50), 5.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
        assert_eq!(beyond(&[7.0], 95), 0);
        // 10 samples: p50 is the 5th, p95 the 10th.
        let t: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&t, 50), 5.0);
        assert_eq!(percentile(&t, 95), 10.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut v: Vec<usize> = (0..32).collect();
            rng.shuffle(&mut v);
            (v, rng.below(8), rng.next_u64())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let (perm, _, _) = draw(7);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn metric_names() {
        assert!(valid_metric_name("latency_ms_p50"));
        assert!(valid_metric_name("qcache.frontend.misses"));
        assert!(valid_metric_name("9-lives"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("µs"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "latency_ms_p50",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
