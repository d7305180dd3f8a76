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

/// FNV-1a over a byte stream — the stable, dependency-free content hash
/// set/map signatures are built from.
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
}
