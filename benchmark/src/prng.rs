//! The benchmark's own PRNG, so an op schedule depends on `--seed` and
//! on nothing the repository can change (not `vendor/rand`).

/// splitmix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same
    /// seed by `stream` (so "corpus", "patterns" and "schedule" draws
    /// never alias).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) over ranks `0..n`, sampled by inverse CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// `n` ranks, one drawn from each `n`-th of the unit interval, in
    /// shuffled order. Every rank's marginal probability is Zipf's, yet
    /// rank `r` comes up `floor` or `ceil` of `n × p(r)` times (give or
    /// take one at a stratum's edge): the seed decides which tail ranks
    /// appear and in what order, not how heavy the head is.
    pub fn stratified(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let mut ranks: Vec<usize> = (0..n)
            .map(|i| self.rank_at((i as f64 + rng.unit()) / n as f64))
            .collect();
        rng.shuffle(&mut ranks);
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs of splitmix64 seeded with 1234567, from the
        // reference implementation.
        let mut r = Rng(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn streams_differ_and_repeat() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_head_is_heavy() {
        let z = Zipf::new(4096);
        let ranks = z.stratified(10_000, &mut Rng::new(1, 1));
        let head = ranks.iter().filter(|&&r| r < 64).count();
        // H(64)/H(4096) = 4.74/8.90 = 53.3 %, to within a stratum.
        assert!((5_320..5_340).contains(&head), "{head}");
    }

    #[test]
    fn stratified_zipf_pins_the_head_and_keeps_the_tail() {
        let z = Zipf::new(4096);
        for seed in 1..4 {
            let ranks = z.stratified(40, &mut Rng::new(seed, 1));
            assert_eq!(ranks.len(), 40);
            // p(0) = 1/H(4096) = 11.2 %: four or five of forty.
            let top = ranks.iter().filter(|&&r| r == 0).count();
            assert!((4..=5).contains(&top), "{top}");
            // The last stratum lies wholly beyond rank 3000.
            assert!(ranks.iter().any(|&r| r > 3000));
        }
    }
}
