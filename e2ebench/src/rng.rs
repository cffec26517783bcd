//! The harness's own seeded generator: SplitMix64, so every input and
//! schedule is a pure function of `--seed` and this file, independent of
//! any crate version the program under test pulls in.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` tag so that two
    /// consumers of one seed never share draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut rng = Rng { state: seed };
        for byte in stream.bytes() {
            rng.state ^= u64::from(byte);
            rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no valid draw");
        (self.next_u64() % n as u64) as usize
    }

    /// Exponentially distributed with the given mean: the gap between
    /// two arrivals of a Poisson process.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless sequence drawn from a fixed composition: each block holds
/// exactly `counts[k]` copies of `kinds[k]`, shuffled. Compared with
/// independent draws, every prefix of whole blocks has the exact mix, so
/// a percentile never wanders across the boundary between a cheap and an
/// expensive kind from one seed to the next.
#[derive(Debug, Clone)]
pub struct BlockMix<K: Copy> {
    block: Vec<K>,
    pending: Vec<K>,
    rng: Rng,
}

impl<K: Copy> BlockMix<K> {
    /// A mix of `kinds` with per-block `counts`.
    pub fn new(rng: Rng, composition: &[(K, usize)]) -> BlockMix<K> {
        let block: Vec<K> =
            composition.iter().flat_map(|&(kind, n)| std::iter::repeat_n(kind, n)).collect();
        assert!(!block.is_empty(), "a mix needs at least one kind");
        BlockMix { block, pending: Vec::new(), rng }
    }

    /// The number of draws in one block.
    pub fn block_len(&self) -> usize {
        self.block.len()
    }

    /// The next kind.
    pub fn next_kind(&mut self) -> K {
        if self.pending.is_empty() {
            self.pending = self.block.clone();
            self.rng.shuffle(&mut self.pending);
        }
        self.pending.pop().expect("refilled above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_decorrelated() {
        let draw = |stream: &str| {
            let mut rng = Rng::new(1, stream);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw("x"), draw("x"));
        assert_ne!(draw("x"), draw("y"));
    }

    #[test]
    fn block_mix_keeps_the_exact_composition() {
        let mut mix = BlockMix::new(Rng::new(3, "mix"), &[('a', 3), ('b', 1)]);
        for _ in 0..5 {
            let block: String = (0..4).map(|_| mix.next_kind()).collect();
            assert_eq!(block.matches('a').count(), 3);
            assert_eq!(block.matches('b').count(), 1);
        }
    }
}
