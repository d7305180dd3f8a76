//! The prefetching iterator (paper §V, Figs 13-14).
//!
//! "Data of the next iteration step is prefetched into the cache memory
//! with the prefetching iterator called in each iteration within the
//! `for_each`."
//!
//! [`make_prefetcher_context`] captures the base address, element size and
//! length of every container used inside a loop. [`for_each_prefetch`] then
//! runs a chunked parallel loop in which iteration `i` first issues a
//! non-faulting cache prefetch for element `i + distance` of **every**
//! container, then executes the body — combining thread-based prefetching
//! with asynchronous task execution, which is the paper's point of novelty
//! over classic software prefetching.
//!
//! The prefetch distance is `prefetch_distance_factor` *cache lines*
//! converted to elements of the widest container, mirroring the paper's
//! "determined based on the length of the cache line". The hint lowers to
//! `prefetcht0` on x86_64 and `prfm pldl1keep` on aarch64; on other
//! targets it is a no-op and the loop degrades to a plain `for_each`.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use crate::algo::{for_each, for_each_async};
use crate::future::Future;
use crate::policy::ExecutionPolicy;
use crate::runtime::Runtime;

/// Cache-line size assumed for distance calculations.
pub const CACHE_LINE_BYTES: usize = 64;

/// Erased view of one container: base pointer, element size, length.
#[derive(Clone, Copy, Debug)]
struct TableEntry {
    base: *const u8,
    elem_size: usize,
    len: usize,
    /// Cache-line gate: prefetch only when `idx & line_mask == 0`. For
    /// rows that tile a 64-byte line a power-of-two number of times this
    /// skips the redundant prefetches of already-requested lines;
    /// otherwise 0 (prefetch every row).
    line_mask: usize,
}

// SAFETY: the pointers are only ever used to *compute prefetch addresses*;
// the data behind them is never read or written through this struct.
unsafe impl Send for TableEntry {}
// SAFETY: as for `Send`: the entry is plain address arithmetic, and a
// prefetch hint through a shared entry neither reads nor writes memory.
unsafe impl Sync for TableEntry {}

/// A gather entry: `target = index_table[idx * index_dim + slot]`, then
/// prefetch `data[target]`. This is the unstructured-mesh payoff of
/// software prefetching — hardware stride prefetchers cannot predict the
/// indirection, but the index table for iteration `i + d` is a cheap
/// (sequential, usually cached) load.
#[derive(Clone, Copy, Debug)]
struct GatherEntry {
    index_base: *const u32,
    index_dim: usize,
    slot: usize,
    index_len: usize,
    data_base: *const u8,
    row_bytes: usize,
    data_rows: usize,
}

// SAFETY: `index_base` rows `< index_len` are valid u32s owned by a Map
// that the loop keeps alive; `data_base` is only used for address
// computation.
unsafe impl Send for GatherEntry {}
// SAFETY: the only read through a shared entry is of the index table,
// which no one writes while the loop runs; `data_base` is never
// dereferenced.
unsafe impl Sync for GatherEntry {}

/// The set of containers a loop touches, with lifetime erased for cheap
/// sharing across chunk tasks. Linear tables issue hint-only prefetches;
/// gather tables read one index and prefetch the target row.
#[derive(Clone, Debug, Default)]
pub struct PrefetchSet {
    tables: Vec<TableEntry>,
    gathers: Vec<GatherEntry>,
}

impl PrefetchSet {
    /// Empty set (prefetching disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a container.
    pub fn add<T>(&mut self, slice: &[T]) {
        self.add_raw(
            slice.as_ptr().cast(),
            std::mem::size_of::<T>().max(1),
            slice.len(),
        );
    }

    /// Registers a container by raw layout: `rows` logical elements of
    /// `row_bytes` each starting at `base`. Used by `op2-core`, whose
    /// logical element is a dat *row* of `dim` scalars.
    ///
    /// The pointer is only used to compute prefetch addresses for rows
    /// `< rows`; it is never dereferenced.
    pub fn add_raw(&mut self, base: *const u8, row_bytes: usize, rows: usize) {
        let row_bytes = row_bytes.max(1);
        let per_line = CACHE_LINE_BYTES / row_bytes;
        let line_mask = if per_line.is_power_of_two() && per_line > 1 {
            per_line - 1
        } else {
            0
        };
        self.tables.push(TableEntry {
            base,
            elem_size: row_bytes,
            len: rows,
            line_mask,
        });
    }

    /// Registers a gathered container: element `i` touches row
    /// `index[i * index_dim + slot]` of `data` (`data_rows` rows of
    /// `row_bytes`). This is how `op2-core` prefetches indirect dat
    /// accesses like `res[pecell[e]]`.
    ///
    /// # Safety contract (enforced by the caller)
    ///
    /// `index` must stay alive and valid for the lifetime of the loop; its
    /// values are read (not just address-computed).
    pub fn add_gather<T>(
        &mut self,
        index: &[u32],
        index_dim: usize,
        slot: usize,
        data: &[T],
        rows_dim: usize,
    ) {
        assert!(slot < index_dim.max(1));
        self.gathers.push(GatherEntry {
            index_base: index.as_ptr(),
            index_dim: index_dim.max(1),
            slot,
            index_len: index.len() / index_dim.max(1),
            data_base: data.as_ptr().cast(),
            row_bytes: (std::mem::size_of::<T>() * rows_dim).max(1),
            data_rows: data.len() / rows_dim.max(1),
        });
    }

    /// Raw-pointer variant of [`PrefetchSet::add_gather`] for callers that
    /// already hold erased tables (op2-core).
    pub fn add_gather_raw(
        &mut self,
        index: &[u32],
        index_dim: usize,
        slot: usize,
        data_base: *const u8,
        row_bytes: usize,
        data_rows: usize,
    ) {
        assert!(slot < index_dim.max(1));
        self.gathers.push(GatherEntry {
            index_base: index.as_ptr(),
            index_dim: index_dim.max(1),
            slot,
            index_len: index.len() / index_dim.max(1),
            data_base,
            row_bytes: row_bytes.max(1),
            data_rows,
        });
    }

    /// Number of registered containers (linear + gather).
    pub fn len(&self) -> usize {
        self.tables.len() + self.gathers.len()
    }

    /// True when no container is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.gathers.is_empty()
    }

    /// Elements per cache line of the *widest* registered element type
    /// (≥ 1). Distances are expressed in these units.
    pub fn elems_per_line(&self) -> usize {
        let widest = self
            .tables
            .iter()
            .map(|t| t.elem_size)
            .chain(self.gathers.iter().map(|g| g.row_bytes))
            .max()
            .unwrap_or(1);
        (CACHE_LINE_BYTES / widest).max(1)
    }

    /// Issues a read prefetch for element `idx` of every container whose
    /// length covers it. Linear tables are cache-line gated (one request
    /// per line); gather tables read the index entry and prefetch the
    /// target row. Bounds-checked.
    #[inline(always)]
    pub fn prefetch(&self, idx: usize) {
        for t in &self.tables {
            if idx < t.len && idx & t.line_mask == 0 {
                // SAFETY: hint-only; address is within the allocation
                // because idx < len.
                prefetch_read(unsafe { t.base.add(idx * t.elem_size) });
            }
        }
        for g in &self.gathers {
            if idx < g.index_len {
                // SAFETY: idx < index_len rows; Map tables are validated
                // at declaration, so target < data_rows holds — checked
                // again defensively below.
                let target = unsafe { *g.index_base.add(idx * g.index_dim + g.slot) } as usize;
                if target < g.data_rows {
                    // SAFETY: hint-only, in-bounds by the check above.
                    prefetch_read(unsafe { g.data_base.add(target * g.row_bytes) });
                }
            }
        }
    }
}

#[inline(always)]
fn prefetch_read(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is a non-faulting hint on any address; SSE is
    // baseline on x86_64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast());
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a non-faulting hint on any address; it never
    // dereferences, only requests a cache fill.
    unsafe {
        std::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = ptr;
}

/// A loop range paired with the containers to prefetch and the prefetch
/// distance (in elements). Built by [`make_prefetcher_context`]; consumed
/// by [`for_each_prefetch`].
#[derive(Clone, Debug)]
pub struct PrefetcherContext<'a> {
    range: Range<usize>,
    distance: usize,
    set: PrefetchSet,
    _borrow: PhantomData<&'a ()>,
}

impl<'a> PrefetcherContext<'a> {
    /// The loop range.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Prefetch distance in elements.
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// The underlying container table (lifetime-erased).
    pub fn prefetch_set(&self) -> &PrefetchSet {
        &self.set
    }

    /// Overrides the distance with an explicit element count.
    #[must_use]
    pub fn with_distance_elements(mut self, elements: usize) -> Self {
        self.distance = elements;
        self
    }
}

/// Tuples of slices acceptable to [`make_prefetcher_context`]
/// (`(&[T],)` up to 8 heterogeneous slices).
pub trait PrefetchContainers<'a> {
    /// Collects the erased container table.
    fn collect(&self, set: &mut PrefetchSet);
}

macro_rules! impl_prefetch_containers {
    ($($T:ident . $idx:tt),+) => {
        impl<'a, $($T),+> PrefetchContainers<'a> for ($(&'a [$T],)+) {
            fn collect(&self, set: &mut PrefetchSet) {
                $( set.add(self.$idx); )+
            }
        }
    };
}

impl_prefetch_containers!(A.0);
impl_prefetch_containers!(A.0, B.1);
impl_prefetch_containers!(A.0, B.1, C.2);
impl_prefetch_containers!(A.0, B.1, C.2, D.3);
impl_prefetch_containers!(A.0, B.1, C.2, D.3, E.4);
impl_prefetch_containers!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_prefetch_containers!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
impl_prefetch_containers!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// Builds a prefetcher context over `range` for the given containers
/// (paper Fig 14: `make_prefetcher_context(begin, end, factor, c1, …, cn)`).
/// `distance_factor` is the look-ahead in cache lines.
pub fn make_prefetcher_context<'a, C>(
    range: Range<usize>,
    distance_factor: usize,
    containers: C,
) -> PrefetcherContext<'a>
where
    C: PrefetchContainers<'a>,
{
    let mut set = PrefetchSet::new();
    containers.collect(&mut set);
    let distance = distance_factor * set.elems_per_line();
    PrefetcherContext {
        range,
        distance,
        set,
        _borrow: PhantomData,
    }
}

/// `for_each` over a prefetcher context: iteration `i` prefetches element
/// `i + distance` of every container, then runs `f(i)` (paper Fig 14).
pub fn for_each_prefetch<F>(
    rt: &Runtime,
    policy: &ExecutionPolicy,
    ctx: &PrefetcherContext<'_>,
    f: F,
) where
    F: Fn(usize) + Sync,
{
    let set = ctx.set.clone();
    let d = ctx.distance;
    if d == 0 || set.is_empty() {
        for_each(rt, policy, ctx.range(), f);
        return;
    }
    for_each(rt, policy, ctx.range(), move |i| {
        set.prefetch(i + d);
        f(i);
    });
}

/// Asynchronous [`for_each_prefetch`], combining prefetching with task
/// execution — the combination the paper highlights in §V.
pub fn for_each_prefetch_async<F>(
    rt: &Runtime,
    policy: ExecutionPolicy,
    ctx: &PrefetcherContext<'_>,
    f: Arc<F>,
) -> Future<()>
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let set = ctx.set.clone();
    let d = ctx.distance;
    for_each_async(rt, policy, ctx.range(), move |i| {
        if d > 0 {
            set.prefetch(i + d);
        }
        f(i);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::par;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn distance_scales_with_cache_lines() {
        let a = vec![0.0f64; 100];
        let b = [0u8; 100];
        // Widest element: f64 (8 bytes) -> 8 elems/line; factor 15 -> 120.
        let ctx = make_prefetcher_context(0..100, 15, (&a[..], &b[..]));
        assert_eq!(ctx.distance(), 15 * 8);
    }

    #[test]
    fn loop_results_identical_with_prefetching() {
        let rt = Runtime::new(2);
        let n = 50_000;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
        let sum = AtomicU64::new(0);
        let ctx = make_prefetcher_context(0..n, 4, (&a[..], &b[..]));
        for_each_prefetch(&rt, &par(), &ctx, |i| {
            sum.fetch_add((a[i] + b[i]) as u64, Ordering::Relaxed);
        });
        let expected: u64 = (0..n as u64).map(|i| i * 3).sum();
        assert_eq!(sum.into_inner(), expected);
    }

    #[test]
    fn prefetch_near_end_is_bounds_safe() {
        // Prefetch indices beyond len must be skipped, not crash.
        let data = [1u32; 10];
        let mut set = PrefetchSet::new();
        set.add(&data[..]);
        for i in 0..10 {
            set.prefetch(i + 1000);
        }
    }

    #[test]
    fn zero_factor_degrades_to_plain_for_each() {
        let rt = Runtime::new(2);
        let data = vec![1u64; 1000];
        let ctx = make_prefetcher_context(0..1000, 0, (&data[..],));
        assert_eq!(ctx.distance(), 0);
        let sum = AtomicU64::new(0);
        for_each_prefetch(&rt, &par(), &ctx, |i| {
            sum.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 1000);
    }

    #[test]
    fn async_prefetch_loop() {
        let rt = Runtime::new(2);
        let n = 10_000;
        let data: Vec<u64> = (0..n as u64).collect();
        let sum = Arc::new(AtomicU64::new(0));
        let ctx = make_prefetcher_context(0..n, 8, (&data[..],));
        let data2 = data.clone();
        let sum2 = Arc::clone(&sum);
        let fut = for_each_prefetch_async(
            &rt,
            crate::policy::par_task(),
            &ctx,
            Arc::new(move |i: usize| {
                sum2.fetch_add(data2[i], Ordering::Relaxed);
            }),
        );
        fut.get();
        assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn elems_per_line_defaults_to_one_for_wide_types() {
        #[repr(align(128))]
        struct Wide(#[allow(dead_code)] [u8; 128]);
        let data = [Wide([0; 128])];
        let mut set = PrefetchSet::new();
        set.add(&data[..]);
        assert_eq!(set.elems_per_line(), 1);
    }
}
