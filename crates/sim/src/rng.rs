//! Deterministic randomness.
//!
//! Every stochastic decision in a wavesim experiment (traffic arrivals,
//! destination draws, arbitration tie-breaks when configured random, fault
//! placement) flows from a single [`SimRng`] seeded by the experiment
//! configuration. Identical seed → identical simulation, bit for bit, which
//! is what lets EXPERIMENTS.md publish reproducible series.
//!
//! `SimRng` is a self-contained ChaCha12 generator (the build environment
//! is offline, so no external RNG crates): fast, high quality, and — being
//! implemented here — guaranteed stable across toolchain upgrades.
//! Sub-streams for independent components (one per traffic source, one per
//! router) are derived with [`SimRng::split`] via ChaCha's 64-bit stream
//! id, so adding a consumer never perturbs the draws seen by existing
//! consumers and sub-streams never overlap regardless of how many values
//! each consumes.

/// Number of ChaCha double-rounds (12 rounds total, as in ChaCha12).
const CHACHA_ROUNDS: usize = 12;

/// A deterministic, splittable random source.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// 256-bit key derived from the seed (shared by all sub-streams).
    key: [u32; 8],
    /// 64-bit stream id (the ChaCha nonce words): selects the sub-stream.
    stream: u64,
    /// 64-bit block counter within the stream.
    counter: u64,
    /// Current output block (16 words) and read cursor.
    block: [u32; 16],
    cursor: usize,
}

/// SplitMix64 step — used only to expand the 64-bit seed into a key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The ChaCha block function: key + counter + stream id → 16 output words.
fn chacha_block(key: &[u32; 8], counter: u64, stream: u64) -> [u32; 16] {
    let mut s: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        stream as u32,
        (stream >> 32) as u32,
    ];
    let initial = s;
    for _ in 0..CHACHA_ROUNDS / 2 {
        // Column round.
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (word, init) in s.iter_mut().zip(initial) {
        *word = word.wrapping_add(init);
    }
    s
}

impl SimRng {
    /// Creates a generator from a 64-bit experiment seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let x = splitmix64(&mut sm);
            pair[0] = x as u32;
            pair[1] = (x >> 32) as u32;
        }
        Self {
            key,
            stream: 0,
            counter: 0,
            block: [0; 16],
            cursor: 16, // force a refill on first draw
        }
    }

    /// Derives an independent sub-stream for component `index`.
    ///
    /// Uses ChaCha's stream mechanism: each split shares the key but uses a
    /// distinct stream id, so sub-streams never overlap regardless of how
    /// many values each consumes. Splitting depends only on the seed, not
    /// on how far the parent has advanced.
    #[must_use]
    pub fn split(&self, index: u64) -> Self {
        Self {
            key: self.key,
            stream: index.wrapping_add(1), // stream 0 is the parent
            counter: 0,
            block: [0; 16],
            cursor: 16,
        }
    }

    /// Next raw 32-bit draw.
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.block = chacha_block(&self.key, self.counter, self.stream);
            self.counter = self.counter.wrapping_add(1);
            self.cursor = 0;
        }
        let word = self.block[self.cursor];
        self.cursor += 1;
        word
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Unbiased rejection sampling: reject draws from the short final
        // partial range of the u64 space.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Uniform `usize` draw in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index(0) is meaningless");
        self.below(bound as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit() < p
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard u64 → f64 construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric inter-arrival sample for a Bernoulli-per-cycle process with
    /// per-cycle probability `p`: number of cycles until (and including) the
    /// next success. Returns `u64::MAX` when `p` is ~0.
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 1;
        }
        if p <= f64::MIN_POSITIVE {
            return u64::MAX;
        }
        // Inverse-CDF sampling: ceil(ln(1-u)/ln(1-p)).
        let u = self.unit();
        let val = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
        if val < 1.0 {
            1
        } else if val >= u64::MAX as f64 {
            u64::MAX
        } else {
            val as u64
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3, "streams from different seeds should diverge");
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::new(99);
        let mut c0 = root.split(0);
        let mut c1 = root.split(1);
        let v0: Vec<u64> = (0..16).map(|_| c0.next_u64()).collect();
        let v1: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        assert_ne!(v0, v1);
        // Splitting is insensitive to parent stream position.
        let mut root2 = SimRng::new(99);
        let _ = root2.next_u64();
        let mut c0_again = root2.split(0);
        let v0_again: Vec<u64> = (0..16).map(|_| c0_again.next_u64()).collect();
        assert_eq!(v0, v0_again);
    }

    #[test]
    fn split_differs_from_parent() {
        let root = SimRng::new(123);
        let mut parent = root.clone();
        let mut child = root.split(0);
        let vp: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(vp, vc);
    }

    #[test]
    fn below_and_index_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(12);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn geometric_edge_cases() {
        let mut r = SimRng::new(5);
        assert_eq!(r.geometric(1.0), 1);
        assert_eq!(r.geometric(0.0), u64::MAX);
        for _ in 0..100 {
            assert!(r.geometric(0.5) >= 1);
        }
    }

    #[test]
    fn geometric_mean_close_to_inverse_p() {
        let mut r = SimRng::new(6);
        let p = 0.1;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 1.0 / p).abs() < 0.5,
            "mean {mean} should approximate {}",
            1.0 / p
        );
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SimRng::new(9);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn chacha_reference_vector() {
        // ChaCha block function structural check: the all-zero key/counter
        // block must differ from counter 1 and from stream 1, and repeated
        // evaluation is stable.
        let key = [0u32; 8];
        let b0 = chacha_block(&key, 0, 0);
        let b1 = chacha_block(&key, 1, 0);
        let s1 = chacha_block(&key, 0, 1);
        assert_ne!(b0, b1);
        assert_ne!(b0, s1);
        assert_eq!(b0, chacha_block(&key, 0, 0));
    }
}
