//! Deterministic, labelled random-number streams.
//!
//! The paper fixes "the seeds of all the random objects used within the
//! code" (§5.2): the Population Manager uses a single seed, and "a unique
//! seed was provided to every node" for the RgManager model objects, while
//! the PLB's simulated-annealing seed intentionally varies between repeat
//! runs. To reproduce that discipline without fragile seed bookkeeping we
//! derive every stream from a root seed and a *label* using SplitMix64, so:
//!
//! * the same `(root, label)` pair always yields the same stream, and
//! * adding a new consumer (a new label) never perturbs existing streams.
//!
//! The generator itself is xoshiro256++, implemented locally so that stream
//! values are stable across `rand` crate upgrades; it implements
//! [`rand::RngCore`] so the whole `rand` adaptor ecosystem works on top.

use rand::RngCore;

/// One step of the SplitMix64 sequence; used both for seed derivation and
/// for expanding a 64-bit seed into xoshiro's 256-bit state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label string, used to mix labels into derived seeds
/// and to derive stable identities from names (see [`stable_id`]).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable 64-bit identity for a name: the same string always maps to the
/// same id, across processes and runs. Used to give simulated databases
/// an identity that survives infrastructure-side id reassignment (the
/// benchmark population is defined by the Population Manager's stream,
/// not by which cluster ids it happens to receive).
pub fn stable_id(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

/// A tree of deterministic seeds.
///
/// Children are addressed by string label and an integer index, e.g.
/// `tree.child("rgmanager", node_id)`. Derivation is order-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedTree {
    seed: u64,
}

impl SeedTree {
    /// Create a seed tree rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedTree { seed }
    }

    /// The raw seed at this point in the tree.
    pub fn seed(self) -> u64 {
        self.seed
    }

    /// Derive a child subtree for `(label, index)`.
    #[inline]
    pub fn child(self, label: &str, index: u64) -> SeedTree {
        let mut s = self
            .seed
            .wrapping_add(fnv1a(label.as_bytes()))
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // A couple of SplitMix64 rounds to decorrelate neighbouring indices.
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        SeedTree {
            seed: a ^ b.rotate_left(17),
        }
    }

    /// Materialise the RNG for this point in the tree.
    #[inline]
    pub fn rng(self) -> DetRng {
        DetRng::seed_from_u64(self.seed)
    }

    /// Convenience: derive a child and materialise its RNG in one call.
    #[inline]
    pub fn child_rng(self, label: &str, index: u64) -> DetRng {
        self.child(label, index).rng()
    }
}

/// xoshiro256++ deterministic generator.
///
/// Small, fast and statistically solid; the state is four 64-bit words
/// expanded from a 64-bit seed via SplitMix64 (the construction recommended
/// by the xoshiro authors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed the generator from a single 64-bit value.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // The all-zero state is invalid for xoshiro; seed 0 cannot produce
        // it through SplitMix64, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1234_5678_9ABC_DEF0;
        }
        DetRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Widening-multiply rejection sampling: unbiased and branch-light.
        let mut x = self.next_raw();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_raw();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

impl RngCore for DetRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collections::det_hash_set;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 2);
    }

    #[test]
    fn seed_tree_is_label_and_index_sensitive() {
        let root = SeedTree::new(7);
        let a = root.child("plb", 0).seed();
        let b = root.child("plb", 1).seed();
        let c = root.child("popmgr", 0).seed();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Derivation is pure.
        assert_eq!(a, root.child("plb", 0).seed());
    }

    #[test]
    fn seed_tree_node_streams_are_distinct() {
        let root = SeedTree::new(99);
        let mut seen = det_hash_set();
        for node in 0..200 {
            assert!(seen.insert(root.child("rgmanager", node).seed()));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = DetRng::seed_from_u64(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow generous 10% tolerance.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from_u64(11);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = DetRng::seed_from_u64(13);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(r.bernoulli(2.0));
        assert!(!r.bernoulli(-1.0));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = DetRng::seed_from_u64(17);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn bernoulli_probability_is_respected() {
        let mut r = DetRng::seed_from_u64(23);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits {hits}");
    }
}
