//! A fixed, seedless hasher for maps keyed by the workspace's integer
//! identifiers ([`crate::Oid`], [`crate::Addr`], ...).
//!
//! std's default `RandomState` seeds SipHash per map: a defence against
//! chosen keys, at tens of nanoseconds a lookup. The keys here are minted
//! by the system itself — per-node sequential OIDs, word-aligned addresses —
//! so neither the defence nor its cost is wanted. Nothing may rely on a
//! hashed map's iteration order all the same: a caller that needs an order
//! sorts.
//!
//! The hash of a word is one round of SplitMix64's mixer: `x ^ (x >> 3)`,
//! times the golden gamma. One round rather than the whole finalizer,
//! because a table picks a bucket by the hash's low bits and a full
//! avalanche makes those random: 4 096 sequential keys would land in only
//! about 1 − 1/e ≈ 63 % of 4 096 buckets. One round keeps a run of keys a
//! bijection on the low bits — sequential OIDs as they are, 8-byte-aligned
//! addresses thanks to the `>> 3` — while the multiply carries every input
//! bit into the high bits the table cuts its per-slot tags from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::{xorshift_mul, GOLDEN_GAMMA};

/// The hasher; see the module documentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = xorshift_mul(self.0 ^ n, 3, GOLDEN_GAMMA);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A `HashMap` on [`IdHasher`]: `IdHashMap::default()` builds one.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;
    use crate::{Addr, Oid};

    /// Buckets of a 4 096-bucket table (the hash's low 12 bits) that `keys`
    /// occupy.
    fn buckets_filled<K: std::hash::Hash>(keys: impl Iterator<Item = K>) -> usize {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut filled = vec![false; 4096];
        for k in keys {
            filled[(build.hash_one(k) & 4095) as usize] = true;
        }
        filled.into_iter().filter(|&f| f).count()
    }

    #[test]
    fn runs_of_oids_and_aligned_addresses_spread_over_the_low_bits() {
        // Node 0's first OIDs, as `Cluster::mint_oid` numbers them.
        let oids = buckets_filled((0..4096u64).map(|c| Oid((1 << 40) | c)));
        let addrs = buckets_filled((0..4096u64).map(|i| Addr(0x1_0000 + 8 * i)));
        assert!(oids >= 3 * 4096 / 4, "sequential oids fill {oids} of 4096");
        assert!(addrs >= 3 * 4096 / 4, "aligned addrs fill {addrs} of 4096");
    }

    #[test]
    fn byte_keys_hash_eight_bytes_at_a_time() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let (a, b) = (
            "a key longer than eight bytes",
            "a key longer than eight bytez",
        );
        assert_eq!(build.hash_one(a), build.hash_one(a));
        assert_ne!(
            build.hash_one(a),
            build.hash_one(b),
            "the tail chunk counts"
        );
    }
}
