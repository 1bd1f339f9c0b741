//! Seeded input generation: every generated input of a run comes from
//! the `--seed` argument through these functions, so the same seed
//! replays the same request stream and arrival schedule.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other uses of the same
    /// seed by `stream` (one constant per input kind).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// An exponential inter-arrival gap in seconds at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`: rank `k` has
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Cumulative probability of ranks `0..=k`.
    pub fn cdf(&self, k: usize) -> f64 {
        self.cdf[k]
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The request key stream of a serving workload: Zipf ranks mapped to
/// keys through a seeded permutation, so the seed decides both the order
/// of requests and which keys are hot.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: Rng,
    zipf: Zipf,
    key_of_rank: Vec<usize>,
}

impl KeyStream {
    pub fn new(seed: u64, keys: usize, s: f64) -> Self {
        let mut key_of_rank: Vec<usize> = (0..keys).collect();
        Rng::new(seed, 1).shuffle(&mut key_of_rank);
        KeyStream {
            rng: Rng::new(seed, 2),
            zipf: Zipf::new(keys, s),
            key_of_rank,
        }
    }

    pub fn next_key(&mut self) -> usize {
        self.key_of_rank[self.zipf.sample(&mut self.rng)]
    }
}

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate` per second over `[0, duration)`, for round `round` of a run.
pub fn poisson_schedule(seed: u64, round: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 100 + round);
    let mut due = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = rng.exp_gap(rate);
    while t < duration {
        due.push(t);
        t += rng.exp_gap(rate);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64, n: usize) -> Vec<usize> {
        let mut s = KeyStream::new(seed, 1938, 1.0);
        (0..n).map(|_| s.next_key()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(keys(7, 5000), keys(7, 5000));
        let (a, b) = (keys(7, 5000), keys(8, 5000));
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 500, "{same} of 5000 keys coincide");
        assert_eq!(
            poisson_schedule(3, 0, 1e3, 1.0),
            poisson_schedule(3, 0, 1e3, 1.0)
        );
        assert_ne!(
            poisson_schedule(3, 0, 1e3, 1.0),
            poisson_schedule(4, 0, 1e3, 1.0)
        );
        assert_ne!(
            poisson_schedule(3, 0, 1e3, 1.0),
            poisson_schedule(3, 1, 1e3, 1.0)
        );
    }

    #[test]
    fn zipf_cdf_is_a_distribution_with_harmonic_head() {
        let n = 1938;
        let z = Zipf::new(n, 1.0);
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        assert!((z.cdf(0) - 1.0 / harmonic).abs() < 1e-12);
        assert!((z.cdf(n - 1) - 1.0).abs() < 1e-12);
        assert!((1..n).all(|k| z.cdf(k) > z.cdf(k - 1)));
        // A flatter exponent puts less mass on the head.
        assert!(Zipf::new(n, 0.9).cdf(0) < z.cdf(0));
    }

    #[test]
    fn zipf_samples_follow_the_cdf() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(11, 0);
        let draws = 200_000;
        let mut head = 0usize;
        let mut top10 = 0usize;
        for _ in 0..draws {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            head += usize::from(r == 0);
            top10 += usize::from(r < 10);
        }
        let p_head = head as f64 / draws as f64;
        let p_top10 = top10 as f64 / draws as f64;
        assert!((p_head - z.cdf(0)).abs() < 0.005, "{p_head}");
        assert!((p_top10 - z.cdf(9)).abs() < 0.005, "{p_top10}");
    }

    #[test]
    fn poisson_gaps_have_the_right_mean_and_shape() {
        let due = poisson_schedule(5, 0, 10_000.0, 2.0);
        // 20,000 expected arrivals; sd ~141.
        assert!((due.len() as f64 - 20_000.0).abs() < 700.0, "{}", due.len());
        assert!(due.windows(2).all(|w| w[1] > w[0]));
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1e-4).abs() < 3e-6, "{mean}");
        // Exponential: P(gap > mean) = 1/e.
        let above = gaps.iter().filter(|&&g| g > 1e-4).count() as f64 / gaps.len() as f64;
        assert!((above - (-1.0f64).exp()).abs() < 0.02, "{above}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<usize> = (0..500).collect();
        Rng::new(9, 0).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
