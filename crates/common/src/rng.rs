//! A tiny deterministic RNG for substrate-internal randomness.
//!
//! The network simulator needs reproducible "randomness" for message-loss
//! injection without dragging a full RNG crate into the low-level substrates;
//! `SplitMix64` is the standard 64-bit mixer and is more than adequate.
//! Workload generation (which benefits from distributions) uses the `rand`
//! crate instead, at the `bmx-workloads` layer.

/// SplitMix64's state increment: 2^64 / φ, rounded to odd.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One xorshift-multiply round, the step SplitMix64's output mixer is built
/// from (and, with a short shift, the whole of [`crate::hash::IdHasher`]).
#[inline]
pub(crate) const fn xorshift_mul(z: u64, shift: u32, k: u64) -> u64 {
    (z ^ (z >> shift)).wrapping_mul(k)
}

/// SplitMix64 pseudo-random generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let z = xorshift_mul(self.state, 30, 0xBF58_476D_1CE4_E5B9);
        let z = xorshift_mul(z, 27, 0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Debiased multiply-shift; the tiny modulo bias of the naive approach
        // would be invisible here, but doing it right costs one line.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SplitMix64::new(1234);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }
}
