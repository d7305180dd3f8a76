//! Scalar types, access descriptors and entity identifiers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Scalar types storable in a [`Dat`](crate::Dat): plain-old-data, so rows
/// can be viewed as slices and copied freely between tasks. The
/// [`WireScalar`](crate::transport::WireScalar) supertrait gives every dat
/// scalar a fixed-width little-endian wire encoding, so halo rows and
/// reduction partials can cross process boundaries.
pub trait OpType:
    Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + crate::transport::WireScalar + 'static
{
}

macro_rules! impl_op_type {
    ($($t:ty),+) => { $(impl OpType for $t {})+ };
}
impl_op_type!(f32, f64, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize, bool);

/// How a kernel accesses an argument (paper §II-A: `OP_READ`, `OP_WRITE`,
/// `OP_RW`, `OP_INC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read only.
    Read,
    /// Write only (every accessed component is overwritten).
    Write,
    /// Read and write.
    Rw,
    /// Increment — associative accumulation, the access mode that makes
    /// indirect loops race-prone and forces plan coloring.
    Inc,
}

impl Access {
    /// True for `Write`/`Rw`/`Inc`: the kernel may modify the data.
    #[inline]
    pub fn is_mut(self) -> bool {
        !matches!(self, Access::Read)
    }
}

impl std::fmt::Display for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Access::Read => "OP_READ",
            Access::Write => "OP_WRITE",
            Access::Rw => "OP_RW",
            Access::Inc => "OP_INC",
        })
    }
}

/// Process-unique id shared by sets, maps, dats and globals.
pub(crate) fn next_entity_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Process-unique generation stamp for one loop submission. The
/// dependency tables use it to tell "another node of the same loop
/// scattering into this block" (keep both records) from "a newer loop
/// writing the block" (supersede the older record).
pub(crate) fn next_loop_gen() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mutability() {
        assert!(!Access::Read.is_mut());
        assert!(Access::Write.is_mut());
        assert!(Access::Rw.is_mut());
        assert!(Access::Inc.is_mut());
    }

    #[test]
    fn entity_ids_are_unique() {
        let a = next_entity_id();
        let b = next_entity_id();
        assert_ne!(a, b);
    }

    #[test]
    fn display_matches_op2_names() {
        assert_eq!(Access::Inc.to_string(), "OP_INC");
    }
}
