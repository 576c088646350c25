//! Seeded input generation: splitmix64, so the same `--seed` always
//! draws the same cells, orders and request scripts.

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_c047_0b7e)
    }

    /// An independent stream for a sub-task (a client thread, a sweep).
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng(self.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct elements of `xs`, in draw order.
    pub fn sample<T: Clone>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        self.shuffle(&mut idx);
        idx.into_iter().take(k).map(|i| xs[i].clone()).collect()
    }
}
