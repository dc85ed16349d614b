//! A cheap hasher for the engine's integer-keyed maps.
//!
//! The remaining hash maps on the engine's paths — PS membership, lock
//! hold-start times, the deadlock search's visited set — are keyed by
//! [`JobId`](crate::engine::JobId)s the engine issues itself, so the
//! collision resistance SipHash buys against crafted keys is never needed.
//! One multiply per key (the Fibonacci constant, as in FxHash) spreads
//! consecutive ids over both the bucket bits and the tag bits `HashMap`
//! reads. None of these maps is iterated in an order-sensitive way.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, odd, so multiplying by it permutes the low bits.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }
}

/// A `HashMap` keyed by engine-issued integer ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of engine-issued integer ids.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JobId;

    #[test]
    fn consecutive_ids_spread_over_low_and_high_bits() {
        let hash = |id: u64| {
            let mut h = IdHasher::default();
            std::hash::Hash::hash(&JobId(id), &mut h);
            h.finish()
        };
        let low: IdSet<u64> = (0..64).map(|i| hash(i) & 63).collect();
        let high: IdSet<u64> = (0..64).map(|i| hash(i) >> 57).collect();
        assert_eq!(low.len(), 64, "the bucket bits of consecutive ids must not collide");
        assert!(high.len() > 32, "tag bits barely vary: {}", high.len());
    }
}
