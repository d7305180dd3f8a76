//! Parallel element-wise transform into a destination slice.

use std::ops::Range;

use super::run_chunked;
use crate::policy::ExecutionPolicy;
use crate::runtime::Runtime;

/// Raw pointer wrapper asserting that disjoint chunks never alias.
pub(crate) struct SendMutPtr<T>(pub *mut T);

// Manual Copy/Clone: the derives would demand `T: Copy`.
impl<T> Clone for SendMutPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendMutPtr<T> {}
// SAFETY: the algorithms only hand each chunk task a disjoint index range,
// so concurrent writes never alias.
unsafe impl<T: Send> Send for SendMutPtr<T> {}
// SAFETY: a shared wrapper only hands out element pointers through `at`,
// whose callers hold exclusive access to the element they write.
unsafe impl<T: Send> Sync for SendMutPtr<T> {}

impl<T> SendMutPtr<T> {
    /// Pointer to element `i`. Taking `self` by value keeps closures
    /// capturing the whole (Sync) wrapper rather than the raw field.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation and the caller must hold
    /// exclusive access to that element.
    #[inline(always)]
    pub(crate) unsafe fn at(self, i: usize) -> *mut T {
        // SAFETY: forwarded contract.
        unsafe { self.0.add(i) }
    }
}

/// Computes `dst[i] = f(&src[i])` for every index, in parallel chunks.
///
/// ```
/// let rt = hpx_rt::Runtime::new(2);
/// let src = vec![1.0f64, 4.0, 9.0];
/// let mut dst = vec![0.0f64; 3];
/// hpx_rt::transform(&rt, &hpx_rt::par(), &src, &mut dst, |x| x.sqrt());
/// assert_eq!(dst, [1.0, 2.0, 3.0]);
/// ```
///
/// # Panics
///
/// If `src.len() != dst.len()`.
pub fn transform<T, U, F>(rt: &Runtime, policy: &ExecutionPolicy, src: &[T], dst: &mut [U], f: F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert_eq!(src.len(), dst.len(), "transform: length mismatch");
    let dst_ptr = SendMutPtr(dst.as_mut_ptr());
    run_chunked(rt, policy, src.len(), &|r: Range<usize>| {
        for i in r {
            // SAFETY: chunks are disjoint; i < dst.len() by construction.
            unsafe {
                *dst_ptr.at(i) = f(&src[i]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{par, seq};
    use crate::ChunkPolicy;

    #[test]
    fn matches_sequential_map() {
        let rt = Runtime::new(4);
        let src: Vec<u64> = (0..10_000).collect();
        let mut dst = vec![0u64; src.len()];
        transform(&rt, &par(), &src, &mut dst, |x| x * x + 1);
        assert!(dst
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i as u64).pow(2) + 1));
    }

    #[test]
    fn drops_previous_values() {
        // Overwriting heap values must not leak or double-free.
        let rt = Runtime::new(2);
        let src: Vec<usize> = (0..100).collect();
        let mut dst: Vec<String> = (0..100).map(|i| format!("old-{i}")).collect();
        transform(
            &rt,
            &par().with_chunk(ChunkPolicy::Static { size: 9 }),
            &src,
            &mut dst,
            |i| format!("new-{i}"),
        );
        assert_eq!(dst[42], "new-42");
    }

    #[test]
    fn seq_policy() {
        let rt = Runtime::new(2);
        let src = [1, 2, 3];
        let mut dst = [0; 3];
        transform(&rt, &seq(), &src, &mut dst, |x| x * 10);
        assert_eq!(dst, [10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let rt = Runtime::new(1);
        let src = [1];
        let mut dst = [0; 2];
        transform(&rt, &par(), &src, &mut dst, |x| *x);
    }

    #[test]
    fn empty_slices() {
        let rt = Runtime::new(1);
        let src: [u8; 0] = [];
        let mut dst: [u8; 0] = [];
        transform(&rt, &par(), &src, &mut dst, |x| *x);
    }
}
