//! Sets: the iteration domains of unstructured-mesh computation
//! (paper §II-A: "Sets can be nodes, edges or faces").

use std::sync::Arc;

use crate::types::next_entity_id;

#[derive(Debug)]
pub(crate) struct SetInner {
    pub id: u64,
    pub size: usize,
    pub name: String,
    /// Content signature — see [`Set::signature`].
    pub signature: u64,
}

/// FNV-1a over a byte stream — the stable, dependency-free hash of the
/// short parts of a signature: set names and sizes, and a map's name and
/// header (arity, endpoint signatures, halo extent). A map's index table
/// is hashed word-wide by [`hash_u32s`], seeded with the header's hash.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

// xxHash64's primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// One xxHash64 round: mixes word `w` into lane `acc`.
fn round(acc: u64, w: u64) -> u64 {
    let x = acc.wrapping_add(w.wrapping_mul(P2));
    x.rotate_left(31).wrapping_mul(P1)
}

/// Content hash of a `u32` table, seeded with `seed`. Word `k` — entries
/// `2k` and `2k + 1`, little-endian — goes to lane `k % 4`; the last
/// `len % 8` entries (the odd tail and a partial lane group) are hashed as
/// one more group, zero-padded (all zeros when there are none), which the
/// length folded in below tells apart from real zeros. The lanes are
/// merged in order with the
/// length, then avalanched. Four independent lanes over 64-bit words keep
/// the multipliers busy, so a table is hashed at about the speed it is
/// read, where FNV pays one serial multiply per byte.
pub(crate) fn hash_u32s(seed: u64, table: &[u32]) -> u64 {
    let mut acc = [P1, P2, 0, P1.wrapping_neg()].map(|p| seed.wrapping_add(p));
    let groups = table.chunks_exact(8);
    let mut tail = [0; 8];
    tail[..groups.remainder().len()].copy_from_slice(groups.remainder());
    groups.chain([&tail[..]]).for_each(|g| {
        for (k, lane) in acc.iter_mut().enumerate() {
            *lane = round(*lane, g[2 * k] as u64 | ((g[2 * k + 1] as u64) << 32));
        }
    });
    let mut h = (table.len() as u64).wrapping_mul(P3);
    for lane in acc {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P3);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A declared set (`op_decl_set`). Cheap to clone (an `Arc` handle).
#[derive(Debug, Clone)]
pub struct Set {
    inner: Arc<SetInner>,
}

impl Set {
    pub(crate) fn new(size: usize, name: &str) -> Self {
        let signature = Fnv::new().bytes(name.as_bytes()).u64(size as u64).finish();
        Set {
            inner: Arc::new(SetInner {
                id: next_entity_id(),
                size,
                name: name.to_owned(),
                signature,
            }),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Declared name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Content signature of the set's **shape**: a stable hash of
    /// `(name, size)`. Unlike [`Set::same`] — which distinguishes every
    /// declaration — two sets declared with the same name and size in
    /// *different* [`Op2`](crate::Op2) worlds share a signature. The
    /// warm-state caches ([`SpecCache`](crate::SpecShare) schedules, the
    /// [`hpx_rt::GranularityFeedback`] cost table) key on it, so tenants of
    /// a [`farm::SolverFarm`](crate::farm::SolverFarm) running the same
    /// solver shape hit each other's warm entries.
    pub fn signature(&self) -> u64 {
        self.inner.signature
    }

    /// True when both handles denote the same declared set.
    pub fn same(&self, other: &Set) -> bool {
        self.inner.id == other.inner.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_identity() {
        let a = Set::new(10, "nodes");
        let b = a.clone();
        let c = Set::new(10, "nodes");
        assert!(a.same(&b));
        assert!(!a.same(&c), "distinct declarations are distinct sets");
        assert_eq!(a.size(), 10);
        assert_eq!(a.name(), "nodes");
    }

    #[test]
    fn signature_is_shape_not_identity() {
        let a = Set::new(10, "nodes");
        let b = Set::new(10, "nodes");
        let c = Set::new(11, "nodes");
        let d = Set::new(10, "cells");
        assert_eq!(a.signature(), b.signature(), "same shape, same signature");
        assert_ne!(a.signature(), c.signature(), "size is part of the shape");
        assert_ne!(a.signature(), d.signature(), "name is part of the shape");
    }

    /// `hash_u32s` written as its plain definition: the table zero-padded
    /// by one to eight entries to a whole number of groups, then one word
    /// at a time, word `k` into lane `k % 4`.
    fn scalar_reference(seed: u64, table: &[u32]) -> u64 {
        let mut padded = table.to_vec();
        padded.resize(table.len() / 8 * 8 + 8, 0);
        let mut acc = [P1, P2, 0, P1.wrapping_neg()].map(|p| seed.wrapping_add(p));
        for (k, pair) in padded.chunks_exact(2).enumerate() {
            let word = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
            acc[k % 4] = round(acc[k % 4], word);
        }
        let mut h = (table.len() as u64).wrapping_mul(P3);
        for lane in acc {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P3);
        }
        h = (h ^ (h >> 33)).wrapping_mul(P2);
        h = (h ^ (h >> 29)).wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// SplitMix64, for random tables.
    fn random_table(seed: u64, len: usize) -> Vec<u32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                ((z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) >> 32) as u32
            })
            .collect()
    }

    #[test]
    fn lanes_equal_the_scalar_reference() {
        for len in (0..=40).chain([255, 256, 257, 1000, 4097]) {
            let table = random_table(len as u64, len);
            for seed in [0, 1, 0xdead_beef] {
                assert_eq!(
                    hash_u32s(seed, &table),
                    scalar_reference(seed, &table),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn short_tables_and_their_extensions_all_differ() {
        let full = random_table(7, 18);
        let mut seen = std::collections::HashSet::new();
        for len in 0..=17 {
            let table = &full[..len];
            assert!(seen.insert(hash_u32s(1, table)), "length {len} collides");
            for extra in [0, 1, full[len]] {
                let mut longer = table.to_vec();
                longer.push(extra);
                assert_ne!(
                    hash_u32s(1, table),
                    hash_u32s(1, &longer),
                    "{len} + [{extra}]"
                );
            }
        }
        // All zeros: only the length tells these apart.
        let zeros: std::collections::HashSet<u64> =
            (0..=17).map(|len| hash_u32s(1, &vec![0; len])).collect();
        assert_eq!(zeros.len(), 18);
    }
}
