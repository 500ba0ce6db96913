//! The benchmark's seeded generator (SplitMix64): every input a workload
//! sends is drawn from it, so one seed gives one byte-identical stream.

use std::collections::HashSet;

/// Jitter amplitudes (cycles) are drawn around the paper study's 2000.
const JITTER_MIN: u64 = 500;
const JITTER_SPAN: u64 = 4000;

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_ba5e_0fc0_ffee)
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

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A jitter amplitude not in `used` (and now added to it): a spec carrying
/// it, with a jittered trial, is new engine work for the server.
pub fn fresh_jitter(rng: &mut Rng, used: &mut HashSet<u64>) -> u64 {
    loop {
        let j = JITTER_MIN + rng.next_u64() % JITTER_SPAN;
        if used.insert(j) {
            return j;
        }
    }
}
