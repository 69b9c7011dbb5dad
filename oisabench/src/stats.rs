//! Pure helpers: percentiles, interval unions, `/proc` parsing and
//! seeded input generation. Everything here is unit-tested.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `q` is a
/// fraction in `(0, 1]`. Infinite entries (failed requests) sort last,
/// so a failure counts as beyond every percentile.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps 0.9 · 100 at rank 90 despite binary rounding.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder 0.5, 0.9, 0.99, 0.999, 0.9999
/// that still has at least ten of `samples` beyond its nearest rank, or
/// `None` when even the median has fewer than ten beyond it.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // Beyond the median lie floor(n / 2) samples; beyond 1 - 10^-k lie
    // floor(n / 10^k). Integer arithmetic keeps the boundaries exact.
    let ladder = [
        (0.5, 2usize),
        (0.9, 10),
        (0.99, 100),
        (0.999, 1000),
        (0.9999, 10_000),
    ];
    ladder
        .iter()
        .take_while(|&&(_, divisor)| samples / divisor >= 10)
        .last()
        .map(|&(q, _)| q)
}

/// Total length covered by a set of possibly overlapping `[start, end)`
/// intervals, each counted once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time of a span: its duration minus the part of it that its
/// children cover, overlapping children counted once and each child
/// clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .collect();
    (pe - ps) - union_len(&clipped)
}

/// Peak resident set (`VmHWM`) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Median of a sample (sorts a copy); NaN for an empty one, which the
/// result line prints as `null`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// SplitMix64: the benchmark's only source of input randomness, so
/// one `--seed` fixes every frame, kernel and program weight.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_the_share() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 5.0);
        assert_eq!(nearest_rank(&sorted, 0.9), 9.0);
        assert_eq!(nearest_rank(&sorted, 0.91), 10.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        // A failed request sorts beyond every finite latency.
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(nearest_rank(&with_failure, 0.9), f64::INFINITY);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // 90..120 sticks out past the parent's end.
        let children = [(10, 40), (30, 60), (90, 120)];
        assert_eq!(self_time((0, 100), &children), 100 - 50 - 10);
        // Identical children are one interval.
        assert_eq!(self_time((0, 10), &[(2, 4), (2, 4)]), 8);
        // A child covering everything leaves no self time.
        assert_eq!(self_time((5, 9), &[(0, 20)]), 0);
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn vmhwm_is_read_in_kilobytes() {
        let status = "Name:\toisabench\nVmPeak:\t  900 kB\nVmHWM:\t   74312 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(74_312));
        assert_eq!(parse_vmhwm_kb("VmRSS: 5 kB\n"), None);
    }

    #[test]
    fn steal_comes_from_the_aggregate_cpu_line() {
        let stat = "cpu  100 0 50 800 5 0 3 42 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(
            parse_cpu_steal(stat),
            Some((42, 100 + 50 + 800 + 5 + 3 + 42))
        );
        assert_eq!(parse_cpu_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
