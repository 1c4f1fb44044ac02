//! The workspace's one random number generator.
//!
//! Every stochastic component (weight init, dataset synthesis,
//! Monte-Carlo variation sampling, RL exploration, the simulated LLM's
//! tie-breaking) draws from an [`Rng`], so every
//! experiment is exactly reproducible from a single `u64` seed.
//!
//! The generator is xoshiro256** seeded through SplitMix64. Integers are
//! drawn with Lemire's widening-multiply rejection, `f32` from 24 random
//! bits, `f64` from 53, and float ranges by rejection, so a range never
//! returns its excluded upper bound.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A seedable xoshiro256** generator with the distributions the
/// workspace needs.
///
/// # Example
///
/// ```
/// use lcda_base::rng::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        Rng { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Derives an independent child generator, e.g. one per Monte-Carlo
    /// trial or worker.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Unbiased integer in `[0, n)`; `n == 0` means the full `u64` range.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return self.next_u64();
        }
        let zone = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index bound must be positive");
        self.below(n as u64) as usize
    }

    fn unit_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as u32) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`; `lo` when `lo == hi`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or the range is not finite.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            return lo;
        }
        assert!(lo < hi && (hi - lo).is_finite(), "bad range [{lo}, {hi})");
        loop {
            let x = lo + (hi - lo) * self.unit_f32();
            if x < hi {
                return x;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`; `lo` when `lo == hi`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or the range is not finite.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if lo == hi {
            return lo;
        }
        assert!(lo < hi && (hi - lo).is_finite(), "bad range [{lo}, {hi})");
        loop {
            let x = lo + (hi - lo) * self.unit_f64();
            if x < hi {
                return x;
            }
        }
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform(f32::EPSILON, 1.0);
        let u2 = self.uniform(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Bernoulli trial: `true` with probability `p`, clamped to `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples an index from an (unnormalized, non-negative) weight
    /// vector; uniform when all weights are zero.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut target = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// Runs a property on `cases` generators seeded `0..cases`.
///
/// The property asserts with the ordinary `assert!` macros. On the first
/// failing case the seed is printed to stderr before the panic resumes,
/// so the case replays as `property(&mut Rng::new(seed))`.
pub fn check(cases: u64, mut property: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let mut rng = Rng::new(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("property failed for seed {seed} (of {cases} cases)");
            resume_unwind(panic);
        }
    }
}
