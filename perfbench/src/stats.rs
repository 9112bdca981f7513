//! Order statistics over measured samples.

/// Percentile ladder the tail is chosen from.
const LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0–100) among `n > 0`
/// samples. The small slack keeps `p × n` that is whole in decimal (99.9 %
/// of 10,000) from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of `n`
/// samples beyond it (the median when `n` is too small for any).
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_BEYOND)
        .unwrap_or(50.0)
}

/// Buckets per doubling of a [`LogHist`]: neighbouring buckets differ by
/// 0.27 %.
const SUB: f64 = 256.0;
/// Doublings a [`LogHist`] spans above its floor.
const OCTAVES: usize = 40;

/// A histogram over logarithmic buckets: fixed memory however many
/// samples it takes, so a faster program does not grow the benchmark's
/// own resident memory, which `peak_rss_mb` measures.
#[derive(Debug, Clone)]
pub struct LogHist {
    /// Smallest value told apart from zero.
    floor: f64,
    counts: Vec<u64>,
    n: usize,
}

impl LogHist {
    pub fn new(floor: f64) -> Self {
        LogHist {
            floor,
            counts: vec![0; OCTAVES * SUB as usize],
            n: 0,
        }
    }

    pub fn add(&mut self, v: f64) {
        let i = ((v / self.floor).log2() * SUB).max(0.0) as usize;
        let last = self.counts.len() - 1;
        self.counts[i.min(last)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank percentile `p`, as the geometric middle of its
    /// bucket; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = rank(self.n, p);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += *c as usize;
            if seen >= rank {
                return self.floor * ((i as f64 + 0.5) / SUB).exp2();
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn log_hist_percentiles_are_within_a_bucket() {
        let mut h = LogHist::new(1.0);
        let mut other = LogHist::new(1.0);
        for v in 1..=1000 {
            if v % 2 == 0 {
                h.add(f64::from(v))
            } else {
                other.add(f64::from(v))
            }
        }
        h.merge(&other);
        assert_eq!(h.len(), 1000);
        for (p, want) in [(50.0, 500.0), (99.0, 990.0), (100.0, 1000.0)] {
            let got = h.percentile(p);
            assert!((got / want - 1.0).abs() < 0.003, "p{p}: {got} vs {want}");
        }
        assert_eq!(LogHist::new(1.0).percentile(50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(15), 50.0);
        for n in [20, 200, 2_000, 20_000, 200_000] {
            assert!(beyond(n, tail_percentile(n)) >= TAIL_BEYOND);
        }
    }
}
