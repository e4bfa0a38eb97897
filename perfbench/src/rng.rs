//! The benchmark's own seeded generator (splitmix64). Inputs depend on `--seed` and
//! on nothing in the engine, so a change to the engine's generators cannot move them.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one part of a workload (one client, one table).
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng(self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Skewed draw in `[0, n)`: log-uniform, so `P(k)` falls off like `1 / (k + 1)`
    /// and a few keys are hot while the tail still reaches the whole domain.
    pub fn skewed(&mut self, n: u64) -> u64 {
        let k = ((n as f64 + 1.0).powf(self.unit()) - 1.0) as u64;
        k.min(n.saturating_sub(1))
    }

    /// Puts `items` in a uniformly random order (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A price in whole cents, as the `f64` the engine stores. Cents keep the SQL
    /// literal and the stored value identical (`{}` prints the shortest round-trip
    /// form).
    pub fn cents(&mut self, low: u64, high: u64) -> f64 {
        (low * 100 + self.below((high - low) * 100)) as f64 / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn skewed_stays_in_range_and_favours_low_keys() {
        let mut r = Rng::new(1);
        let draws: Vec<u64> = (0..10_000).map(|_| r.skewed(1000)).collect();
        assert!(draws.iter().all(|&k| k < 1000));
        let low = draws.iter().filter(|&&k| k < 10).count();
        let high = draws.iter().filter(|&&k| k >= 990).count();
        assert!(low > 10 * high.max(1));
    }
}
