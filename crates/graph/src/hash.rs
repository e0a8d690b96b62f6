//! The workspace's two non-cryptographic hash primitives, in one
//! place: FNV-1a (fingerprints — the service's database and result
//! keys, the fault-probe name hash) and the SplitMix64 finalizer
//! (cache shard picks, fault-schedule draws, the load harness's
//! request mix).
//!
//! Other code depends on the exact values — the service's cache
//! keys, `ANDI_FAULTS` firing decisions, the benchmark's replay of
//! the server's fingerprints — so they are pinned by the tests below
//! and must never change.

/// The FNV-1a 64-bit offset basis, for chained fingerprints.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over arbitrary bytes.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Extends an FNV-1a hash with one 64-bit word (little-endian).
#[inline]
pub fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        // Word chaining is byte-wise FNV-1a over the little-endian
        // bytes.
        assert_eq!(fnv1a_u64(FNV_OFFSET, 0x61), fnv1a(&0x61u64.to_le_bytes()));
    }

    #[test]
    fn summary_fingerprint_chain_is_pinned() {
        // `andi_core::incremental::summary_fingerprint(&[5,4,5,5,3,5], 10)`
        // (BigMart): the database key the service caches under.
        let supports = [5u64, 4, 5, 5, 3, 5];
        let mut h = fnv1a_u64(FNV_OFFSET, 10);
        h = fnv1a_u64(h, supports.len() as u64);
        for &s in &supports {
            h = fnv1a_u64(h, s);
        }
        assert_eq!(h, 0xb074_1790_16a3_466e);
    }
}
