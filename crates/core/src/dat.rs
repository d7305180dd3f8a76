//! Dats: data defined on sets (paper §II-A, `op_decl_dat`), plus the
//! per-block *epoch table* that lets the dataflow backend chain loops at
//! mini-partition granularity.
//!
//! # Dependency model (block-granular epochs)
//!
//! A dat's rows are partitioned into fixed *dependency blocks* aligned to
//! the context's mini-partition block size. Each block carries its own
//! dependency state ([`BlockDeps`]): the completion futures of the loop
//! nodes that last **wrote** rows of the block (one writer *generation*,
//! possibly many nodes when an indirect loop scatters into the block), the
//! **readers** since, and an **epoch** counter that advances whenever a new
//! writer generation replaces the old one.
//!
//! The dataflow backend schedules one node per loop block and wires each
//! node only to the dependency blocks it actually touches (directly by row
//! range, indirectly through the map's block-reach table, see
//! [`crate::plan`]). A RAW-dependent loop therefore starts its block *i* as
//! soon as the predecessor finished the blocks feeding *i* — instead of
//! waiting for the predecessor's last block, which is a barrier in
//! disguise. The sequential and fork-join backends keep whole-dat
//! semantics: they collect and record across every block at once.
//!
//! # Safety model
//!
//! The payload lives in an `UnsafeCell<Vec<T>>`. Mutable access happens on
//! exactly two disciplined paths:
//!
//! 1. **Loop executors** (`crate::driver`): race-freedom is guaranteed by
//!    the execution plan — direct mutable args touch disjoint rows because
//!    blocks partition the set; indirect mutable args are serialized by
//!    block coloring (color-round gates under dataflow); loop-vs-loop
//!    ordering is enforced by the per-block epoch table ([`DepTable`]).
//! 2. **User guards** ([`Dat::read`] / [`Dat::write`]) which first wait for
//!    the relevant futures and are tracked by a borrow counter so a guard
//!    held across a conflicting `par_loop` submission panics instead of
//!    racing.
//!
//! Executors do not go through the `Dat` handle per element: each block
//! call binds its arguments once ([`crate::ArgSpec::bind`]) into a
//! [`crate::DatBound`] holding the raw base pointer (plus `dim`,
//! layout, plane stride and the map's index-table pointer). Such a bound
//! value is part of path 1 and inherits its terms: it is made inside the
//! block whose dependencies the driver satisfied, it may be dereferenced
//! only for rows of that block's elements, and it is valid only for that
//! one `block_body` call — the closure's own argument clone keeps this
//! `Arc` (and the map's) alive for exactly that long, and the storage
//! `Vec` is never resized. It is never stored, returned or sent to another
//! thread (its raw pointers make it `!Send`/`!Sync`).

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use hpx_rt::SharedFuture;

#[cfg(test)]
use crate::config::DEFAULT_BLOCK_SIZE;
use crate::set::Set;
use crate::types::{next_entity_id, OpType};

/// Drop completed reader futures once a block collects this many.
const READER_PRUNE_THRESHOLD: usize = 32;

/// Physical memory layout of a dat's scalars (the classic OP2 AoS/SoA
/// choice). The *logical* model is always `total_rows x dim`, rows are
/// always addressed by element index, and the per-block dependency table
/// is row-indexed — so the dependency engine, the coloring planner and
/// the halo dirty-bit protocol are layout-oblivious. Only the scalar
/// offset of `(element, component)` changes:
///
/// * [`Layout::AoS`] — `e * dim + c`: each element's components are
///   adjacent (best for per-element gather/scatter through maps).
/// * [`Layout::SoA`] — `c * total_rows + e`: `dim` contiguous component
///   *planes* (best for vectorized direct sweeps: unit-stride lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Array-of-structures: row-major, `dim` consecutive scalars per
    /// element.
    #[default]
    AoS,
    /// Structure-of-arrays: `dim` contiguous planes of `total_rows`
    /// scalars each; component `c` of element `e` lives at
    /// `c * total_rows + e`.
    SoA,
}

/// Dependency state of one block of rows.
#[derive(Default)]
struct BlockDeps {
    /// Monotonic writer-generation counter (diagnostics + tests).
    epoch: u64,
    /// Loop generation that produced the current `writers` set; recording
    /// a writer from a newer generation replaces the set and bumps the
    /// epoch, so the many nodes of one scattering loop accumulate while
    /// distinct loops supersede each other.
    writer_gen: u64,
    /// Completion futures of the current writer generation's nodes.
    writers: Vec<SharedFuture<()>>,
    /// Completion futures of reads since the current writer generation.
    readers: Vec<SharedFuture<()>>,
}

impl BlockDeps {
    /// Clones (never drains) the pending futures: writers always, readers
    /// additionally for a mutating access. Draining readers here would be
    /// unsound under the block-granular driver — two nodes of one loop may
    /// collect the same dependency block in the same color round (coloring
    /// separates shared target *elements*, not target *blocks*), and the
    /// second would lose its write-after-read edge. Readers are cleared
    /// when a new writer generation is recorded instead.
    fn collect(&self, mutates: bool, out: &mut Vec<SharedFuture<()>>) {
        out.extend(self.writers.iter().cloned());
        if mutates {
            out.extend(self.readers.iter().cloned());
        }
    }
}

/// The per-dat, block-indexed dependency table (see module docs).
pub(crate) struct DepTable {
    block_size: usize,
    blocks: Mutex<Vec<BlockDeps>>,
}

impl DepTable {
    fn new(rows: usize, block_size: usize) -> Self {
        let block_size = block_size.max(1);
        let nblocks = rows.div_ceil(block_size);
        DepTable {
            block_size,
            blocks: Mutex::new((0..nblocks).map(|_| BlockDeps::default()).collect()),
        }
    }

    /// Rows per dependency block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Indices of the dependency blocks overlapping a row range.
    fn blocks_of(&self, rows: &Range<usize>) -> Range<usize> {
        if rows.start >= rows.end {
            return 0..0;
        }
        (rows.start / self.block_size)..((rows.end - 1) / self.block_size + 1)
    }

    /// Futures an access to `rows` must wait for: writers always; a
    /// mutating access additionally waits for the readers.
    pub fn collect_rows(
        &self,
        rows: &Range<usize>,
        mutates: bool,
        out: &mut Vec<SharedFuture<()>>,
    ) {
        let blocks = self.blocks.lock();
        for b in self.blocks_of(rows) {
            blocks[b].collect(mutates, out);
        }
    }

    /// [`DepTable::collect_rows`] for an explicit block index (indirect
    /// args resolve their reach to block indices, not row ranges).
    pub fn collect_block(&self, block: usize, mutates: bool, out: &mut Vec<SharedFuture<()>>) {
        let blocks = self.blocks.lock();
        if let Some(b) = blocks.get(block) {
            b.collect(mutates, out);
        }
    }

    fn record(entry: &mut BlockDeps, mutates: bool, gen: u64, done: &SharedFuture<()>) {
        if mutates {
            if entry.writer_gen != gen {
                entry.writer_gen = gen;
                entry.epoch += 1;
                entry.writers.clear();
                entry.readers.clear();
            }
            entry.writers.push(done.clone());
        } else {
            if entry.readers.len() >= READER_PRUNE_THRESHOLD {
                entry.readers.retain(|f| !f.is_ready());
            }
            entry.readers.push(done.clone());
        }
    }

    /// Records a node's completion against the blocks overlapping `rows`.
    /// `gen` identifies the submitting loop: the first writer of a new
    /// generation supersedes the previous writer set.
    pub fn record_rows(
        &self,
        rows: &Range<usize>,
        mutates: bool,
        gen: u64,
        done: &SharedFuture<()>,
    ) {
        let mut blocks = self.blocks.lock();
        for b in self.blocks_of(rows) {
            Self::record(&mut blocks[b], mutates, gen, done);
        }
    }

    /// [`DepTable::record_rows`] for an explicit block index.
    pub fn record_block(&self, block: usize, mutates: bool, gen: u64, done: &SharedFuture<()>) {
        let mut blocks = self.blocks.lock();
        if let Some(b) = blocks.get_mut(block) {
            Self::record(b, mutates, gen, done);
        }
    }

    /// Whole-dat collection (sequential / fork-join backends and guards).
    pub fn collect_all(&self, mutates: bool, out: &mut Vec<SharedFuture<()>>) {
        let blocks = self.blocks.lock();
        for b in blocks.iter() {
            b.collect(mutates, out);
        }
    }

    /// Whole-dat recording (sequential / fork-join backends).
    pub fn record_all(&self, mutates: bool, gen: u64, done: &SharedFuture<()>) {
        let mut blocks = self.blocks.lock();
        for b in blocks.iter_mut() {
            Self::record(b, mutates, gen, done);
        }
    }

    /// Clones every pending future without draining readers (user guards
    /// must not steal WAR dependencies from future writers).
    fn peek_all(&self, include_readers: bool) -> Vec<SharedFuture<()>> {
        let blocks = self.blocks.lock();
        let mut out = Vec::new();
        for b in blocks.iter() {
            out.extend(b.writers.iter().cloned());
            if include_readers {
                out.extend(b.readers.iter().cloned());
            }
        }
        out
    }

    /// Per-block epoch counters (diagnostics).
    fn epochs(&self) -> Vec<u64> {
        self.blocks.lock().iter().map(|b| b.epoch).collect()
    }
}

pub(crate) struct DatInner<T> {
    pub id: u64,
    pub set: Set,
    pub dim: usize,
    pub name: String,
    /// Mirror rows beyond `set.size()` holding halo copies of remote-owned
    /// elements under the multi-locality layer (see [`crate::locality`]).
    /// 0 for ordinary dats.
    pub halo_rows: usize,
    /// Physical scalar layout (see [`Layout`]).
    pub layout: Layout,
    data: UnsafeCell<Vec<T>>,
    pub deps: DepTable,
    /// User-guard tracking: >0 read guards, -1 write guard, 0 free.
    borrow: AtomicIsize,
    /// Implicit-communication link: `(rank, ring)` once this shard was
    /// registered with [`crate::locality::link_halo`]. The ring carries
    /// the halo spec, the peer shards and the per-peer dirty bits that
    /// drive automatic halo exchange at loop submission.
    halo_ring: OnceLock<(usize, Arc<crate::locality::HaloRing<T>>)>,
}

// SAFETY: see the module-level safety model; all mutable access is
// serialized by plans/futures (executors) or the borrow counter (guards).
unsafe impl<T: Send + Sync> Send for DatInner<T> {}
unsafe impl<T: Send + Sync> Sync for DatInner<T> {}

/// Data on a set: `set.size()` rows of `dim` scalars. Cheap to clone (an
/// `Arc` handle); clones alias the same storage.
pub struct Dat<T: OpType> {
    inner: Arc<DatInner<T>>,
}

impl<T: OpType> Clone for Dat<T> {
    fn clone(&self) -> Self {
        Dat {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: OpType> Dat<T> {
    /// Test convenience: a dat with the default dependency-block size.
    #[cfg(test)]
    pub(crate) fn new(set: &Set, dim: usize, name: &str, data: Vec<T>) -> Self {
        Self::with_dep_block_size(set, dim, name, data, DEFAULT_BLOCK_SIZE)
    }

    /// Creates a dat whose dependency table is partitioned into blocks of
    /// `dep_block_size` rows — aligned by [`crate::Op2::decl_dat`] to the
    /// context's mini-partition block size so loop blocks and dependency
    /// blocks coincide.
    #[cfg(test)]
    pub(crate) fn with_dep_block_size(
        set: &Set,
        dim: usize,
        name: &str,
        data: Vec<T>,
        dep_block_size: usize,
    ) -> Self {
        Self::with_halo(set, dim, name, data, dep_block_size, 0)
    }

    /// Creates a dat with `halo_rows` mirror rows appended beyond the
    /// set's own elements: storage, the dependency table and user guards
    /// all cover `set.size() + halo_rows` rows, while loops keep iterating
    /// the owned prefix only. Halo rows are fed by remote ranks through
    /// [`crate::locality::exchange`], whose receive nodes register in the
    /// same per-block epoch table as local writers — a halo block is just
    /// a remote-fed block to the dependency engine.
    #[cfg(test)]
    pub(crate) fn with_halo(
        set: &Set,
        dim: usize,
        name: &str,
        data: Vec<T>,
        dep_block_size: usize,
        halo_rows: usize,
    ) -> Self {
        Self::with_halo_layout(set, dim, name, data, dep_block_size, halo_rows, Layout::AoS)
    }

    /// [`Dat::with_halo`] with an explicit [`Layout`]. `data` is always
    /// given in canonical row-major (AoS) order; an SoA dat transposes it
    /// into component planes on construction.
    pub(crate) fn with_halo_layout(
        set: &Set,
        dim: usize,
        name: &str,
        data: Vec<T>,
        dep_block_size: usize,
        halo_rows: usize,
        layout: Layout,
    ) -> Self {
        assert!(dim > 0, "dat '{name}': dim must be positive");
        let rows = set.size() + halo_rows;
        assert_eq!(
            data.len(),
            rows * dim,
            "dat '{name}': expected {} values ({rows} x {dim}, incl. {halo_rows} halo rows), got {}",
            rows * dim,
            data.len()
        );
        let data = match layout {
            Layout::AoS => data,
            Layout::SoA => transpose_to_planes(&data, rows, dim),
        };
        Dat {
            inner: Arc::new(DatInner {
                id: next_entity_id(),
                set: set.clone(),
                dim,
                name: name.to_owned(),
                halo_rows,
                layout,
                data: UnsafeCell::new(data),
                deps: DepTable::new(rows, dep_block_size),
                borrow: AtomicIsize::new(0),
                halo_ring: OnceLock::new(),
            }),
        }
    }

    /// The set this dat is defined on.
    pub fn set(&self) -> &Set {
        &self.inner.set
    }

    /// Scalars per set element.
    #[inline]
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Declared name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Halo mirror rows beyond the set's own elements (0 for ordinary
    /// dats).
    #[inline]
    pub fn halo_rows(&self) -> usize {
        self.inner.halo_rows
    }

    /// Total storage rows: `set.size() + halo_rows()`.
    #[inline]
    pub fn total_rows(&self) -> usize {
        self.inner.set.size() + self.inner.halo_rows
    }

    /// Total scalar count (`total_rows() * dim` — owned plus halo rows).
    pub fn len(&self) -> usize {
        self.total_rows() * self.inner.dim
    }

    /// True for a dat on an empty set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw base pointer for the executors.
    ///
    /// # Safety
    ///
    /// Dereferencing requires the caller to uphold the module-level model.
    #[inline(always)]
    pub(crate) unsafe fn ptr(&self) -> *mut T {
        // SAFETY: UnsafeCell grants the raw pointer; the Vec itself is
        // never resized after construction, so the pointer is stable.
        unsafe { (*self.inner.data.get()).as_mut_ptr() }
    }

    // ---- layout ---------------------------------------------------------

    /// Physical scalar layout of this dat.
    #[inline(always)]
    pub fn layout(&self) -> Layout {
        self.inner.layout
    }

    /// Distance in scalars between two components of one element: `1` for
    /// AoS (components adjacent), `total_rows()` for SoA (one plane
    /// apart). Kernel authors writing block-level SoA bodies index
    /// component `c` of element `e` as `plane_base[c * stride + e]`.
    #[inline(always)]
    pub fn component_stride(&self) -> usize {
        match self.inner.layout {
            Layout::AoS => 1,
            Layout::SoA => self.total_rows(),
        }
    }

    /// Appends row `e` (canonical component order) to `out`.
    ///
    /// # Safety
    ///
    /// Caller must hold read access to row `e` per the module-level model.
    pub(crate) unsafe fn append_row_to(&self, e: usize, out: &mut Vec<T>) {
        let dim = self.inner.dim;
        let base = unsafe { self.ptr() };
        match self.inner.layout {
            Layout::AoS => {
                // SAFETY: row e lies within the never-resized storage.
                out.extend_from_slice(unsafe {
                    std::slice::from_raw_parts(base.add(e * dim), dim)
                });
            }
            Layout::SoA => {
                let stride = self.total_rows();
                for c in 0..dim {
                    // SAFETY: c * stride + e < dim * total_rows = len.
                    out.push(unsafe { *base.add(c * stride + e) });
                }
            }
        }
    }

    /// Scatters `buf` (canonical row-major order, `buf.len() / dim` rows)
    /// into the storage starting at row `start`.
    ///
    /// # Safety
    ///
    /// Caller must hold exclusive access to the target rows per the
    /// module-level model; `start * dim + buf.len()` must not exceed
    /// [`Dat::len`].
    pub(crate) unsafe fn scatter_rows_from(&self, start: usize, buf: &[T]) {
        let dim = self.inner.dim;
        debug_assert_eq!(buf.len() % dim, 0);
        let base = unsafe { self.ptr() };
        match self.inner.layout {
            Layout::AoS => {
                // SAFETY: contiguous rows under AoS; bounds per contract.
                unsafe {
                    std::ptr::copy_nonoverlapping(buf.as_ptr(), base.add(start * dim), buf.len())
                };
            }
            Layout::SoA => {
                let stride = self.total_rows();
                for (i, chunk) in buf.chunks_exact(dim).enumerate() {
                    for (c, &v) in chunk.iter().enumerate() {
                        // SAFETY: bounds per contract (row start + i).
                        unsafe { *base.add(c * stride + start + i) = v };
                    }
                }
            }
        }
    }

    /// Scatters `buf` (canonical row-major order, one `dim`-wide chunk per
    /// entry of `rows`) into the listed — possibly non-contiguous — rows.
    /// The row-migration path lands moved rows with this (a rank's
    /// newly-owned rows interleave with rows it kept, so the destination
    /// is a list, unlike a halo import's contiguous range).
    ///
    /// # Safety
    ///
    /// Caller must hold exclusive access to the target rows per the
    /// module-level model; every row must be `< total_rows()` and
    /// `buf.len()` must equal `rows.len() * dim`.
    pub(crate) unsafe fn scatter_row_list_from(&self, rows: &[u32], buf: &[T]) {
        let dim = self.inner.dim;
        debug_assert_eq!(buf.len(), rows.len() * dim);
        let base = unsafe { self.ptr() };
        match self.inner.layout {
            Layout::AoS => {
                for (i, &row) in rows.iter().enumerate() {
                    // SAFETY: row < total_rows per contract; rows are
                    // dim-aligned in the never-resized storage.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            buf.as_ptr().add(i * dim),
                            base.add(row as usize * dim),
                            dim,
                        )
                    };
                }
            }
            Layout::SoA => {
                let stride = self.total_rows();
                for (i, &row) in rows.iter().enumerate() {
                    for c in 0..dim {
                        // SAFETY: c * stride + row < dim * total_rows.
                        unsafe { *base.add(c * stride + row as usize) = buf[i * dim + c] };
                    }
                }
            }
        }
    }

    /// Clones the payload out in canonical row-major order (gathering SoA
    /// planes back into rows). Callers must already hold access.
    fn to_canonical_vec(&self) -> Vec<T> {
        match self.inner.layout {
            // SAFETY: caller holds access per guard construction.
            Layout::AoS => unsafe { std::slice::from_raw_parts(self.ptr(), self.len()) }.to_vec(),
            Layout::SoA => {
                let mut out = Vec::with_capacity(self.len());
                for e in 0..self.total_rows() {
                    // SAFETY: caller holds access per guard construction.
                    unsafe { self.append_row_to(e, &mut out) };
                }
                out
            }
        }
    }

    // ---- implicit halo exchange -----------------------------------------

    /// Links this shard (as `rank`) to a halo ring. Once per dat.
    pub(crate) fn attach_halo_ring(&self, rank: usize, ring: Arc<crate::locality::HaloRing<T>>) {
        assert!(
            self.inner.halo_ring.set((rank, ring)).is_ok(),
            "dat '{}': already linked to a halo ring",
            self.inner.name
        );
    }

    /// `(rank, ring)` when this shard participates in implicit halo
    /// exchange.
    pub(crate) fn halo_ring(&self) -> Option<&(usize, Arc<crate::locality::HaloRing<T>>)> {
        self.inner.halo_ring.get()
    }

    pub(crate) fn inner_weak(&self) -> Weak<DatInner<T>> {
        Arc::downgrade(&self.inner)
    }

    pub(crate) fn from_inner(inner: Arc<DatInner<T>>) -> Dat<T> {
        Dat { inner }
    }

    // ---- dependency bookkeeping (dataflow backend) ----------------------

    /// The per-block dependency table.
    pub(crate) fn deps(&self) -> &DepTable {
        &self.inner.deps
    }

    /// Rows per dependency block.
    pub(crate) fn dep_block_size(&self) -> usize {
        self.inner.deps.block_size()
    }

    /// Whole-dat dependency collection (sequential / fork-join backends):
    /// writers wait for everything (write-after-write, write-after-read);
    /// readers only for the writers.
    pub(crate) fn collect_deps(&self, mutates: bool, out: &mut Vec<SharedFuture<()>>) {
        self.inner.deps.collect_all(mutates, out);
    }

    /// Whole-dat completion recording (sequential / fork-join backends).
    pub(crate) fn record_completion(&self, mutates: bool, gen: u64, done: &SharedFuture<()>) {
        self.inner.deps.record_all(mutates, gen, done);
    }

    /// Per-block epoch counters — the observable trace of writer
    /// generations, exposed for tests and diagnostics.
    #[doc(hidden)]
    pub fn __dep_epochs(&self) -> Vec<u64> {
        self.inner.deps.epochs()
    }

    fn wait_writers(&self) {
        for f in self.inner.deps.peek_all(false) {
            f.wait();
        }
    }

    fn wait_all(&self) {
        for f in self.inner.deps.peek_all(true) {
            f.wait();
        }
    }

    // ---- guard-based user access ----------------------------------------

    /// Waits for all pending writes, then returns a read view of the rows.
    ///
    /// # Panics
    ///
    /// If a write guard is live.
    pub fn read(&self) -> DatReadGuard<'_, T> {
        self.wait_writers();
        let prev = self.inner.borrow.fetch_add(1, Ordering::AcqRel);
        assert!(
            prev >= 0,
            "dat '{}': read() while a write guard is live",
            self.inner.name
        );
        let staged = match self.inner.layout {
            Layout::AoS => None,
            Layout::SoA => Some(self.to_canonical_vec()),
        };
        DatReadGuard { dat: self, staged }
    }

    /// Waits for all pending loops touching this dat, then returns an
    /// exclusive view (setup/initialization use).
    ///
    /// # Panics
    ///
    /// If any other guard is live.
    pub fn write(&self) -> DatWriteGuard<'_, T> {
        self.wait_all();
        let prev = self
            .inner
            .borrow
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire);
        assert!(
            prev.is_ok(),
            "dat '{}': write() while another guard is live",
            self.inner.name
        );
        let staged = match self.inner.layout {
            Layout::AoS => None,
            Layout::SoA => Some(self.to_canonical_vec()),
        };
        DatWriteGuard { dat: self, staged }
    }

    /// Waits for pending writes and clones the payload out.
    pub fn snapshot(&self) -> Vec<T> {
        self.read().to_vec()
    }

    /// Panics unless a new loop argument with the given mutability could
    /// run now without racing a live user guard.
    pub(crate) fn assert_borrowable(&self, mutates: bool) {
        let b = self.inner.borrow.load(Ordering::Acquire);
        if mutates {
            assert!(
                b == 0,
                "dat '{}': submitted as a mutable loop argument while a user guard is live",
                self.inner.name
            );
        } else {
            assert!(
                b >= 0,
                "dat '{}': submitted as a loop argument while a write guard is live",
                self.inner.name
            );
        }
    }
}

impl<T: OpType> std::fmt::Debug for Dat<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dat")
            .field("name", &self.inner.name)
            .field("set", &self.inner.set.name())
            .field("dim", &self.inner.dim)
            .finish()
    }
}

/// Shared read view of a dat (see [`Dat::read`]). Always presents the
/// canonical row-major order regardless of the dat's [`Layout`]: an SoA
/// dat's planes are gathered into a staged copy at guard construction.
pub struct DatReadGuard<'a, T: OpType> {
    dat: &'a Dat<T>,
    /// Canonical row-major materialization (`Some` iff the dat is SoA).
    staged: Option<Vec<T>>,
}

impl<T: OpType> std::ops::Deref for DatReadGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.staged {
            Some(buf) => buf,
            // SAFETY: guard construction waited for writers and registered
            // in the borrow counter; conflicting loop submissions panic.
            None => unsafe { std::slice::from_raw_parts(self.dat.ptr(), self.dat.len()) },
        }
    }
}

impl<T: OpType> DatReadGuard<'_, T> {
    /// The `dim` scalars of row `e`.
    pub fn row(&self, e: usize) -> &[T] {
        let d = self.dat.dim();
        &self[e * d..(e + 1) * d]
    }
}

impl<T: OpType> Drop for DatReadGuard<'_, T> {
    fn drop(&mut self) {
        self.dat.inner.borrow.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Exclusive view of a dat (see [`Dat::write`]). Like the read guard it
/// always presents canonical row-major order; mutations to an SoA dat are
/// staged and scattered back into the planes when the guard drops.
pub struct DatWriteGuard<'a, T: OpType> {
    dat: &'a Dat<T>,
    /// Canonical row-major staging buffer (`Some` iff the dat is SoA).
    staged: Option<Vec<T>>,
}

impl<T: OpType> std::ops::Deref for DatWriteGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.staged {
            Some(buf) => buf,
            // SAFETY: exclusive per borrow counter.
            None => unsafe { std::slice::from_raw_parts(self.dat.ptr(), self.dat.len()) },
        }
    }
}

impl<T: OpType> std::ops::DerefMut for DatWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.staged {
            Some(buf) => buf,
            // SAFETY: exclusive per borrow counter.
            None => unsafe { std::slice::from_raw_parts_mut(self.dat.ptr(), self.dat.len()) },
        }
    }
}

impl<T: OpType> DatWriteGuard<'_, T> {
    /// Mutable view of the `dim` scalars of row `e`.
    pub fn row_mut(&mut self, e: usize) -> &mut [T] {
        let d = self.dat.dim();
        let start = e * d;
        &mut self[start..start + d]
    }
}

impl<T: OpType> Drop for DatWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(buf) = self.staged.take() {
            // SAFETY: exclusive per borrow counter until the store below.
            unsafe { self.dat.scatter_rows_from(0, &buf) };
        }
        self.dat.inner.borrow.store(0, Ordering::Release);
    }
}

/// Transposes canonical row-major `data` (`rows x dim`) into `dim`
/// contiguous component planes of `rows` scalars each.
fn transpose_to_planes<T: OpType>(data: &[T], rows: usize, dim: usize) -> Vec<T> {
    let mut planes = Vec::with_capacity(data.len());
    for c in 0..dim {
        for e in 0..rows {
            planes.push(data[e * dim + c]);
        }
    }
    planes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::next_loop_gen;

    fn mk() -> Dat<f64> {
        let set = Set::new(4, "cells");
        Dat::new(&set, 2, "q", vec![0.0; 8])
    }

    #[test]
    fn rows_and_len() {
        let d = mk();
        assert_eq!(d.len(), 8);
        assert_eq!(d.dim(), 2);
        {
            let mut w = d.write();
            w.row_mut(2).copy_from_slice(&[1.0, 2.0]);
        }
        let r = d.read();
        assert_eq!(r.row(2), &[1.0, 2.0]);
        assert_eq!(r.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn multiple_read_guards_allowed() {
        let d = mk();
        let a = d.read();
        let b = d.read();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    #[should_panic(expected = "write() while another guard is live")]
    fn write_conflicts_with_read_guard() {
        let d = mk();
        let _r = d.read();
        let _w = d.write();
    }

    #[test]
    #[should_panic(expected = "expected 8 values")]
    fn rejects_wrong_payload_length() {
        let set = Set::new(4, "cells");
        let _ = Dat::new(&set, 2, "q", vec![0.0; 7]);
    }

    #[test]
    fn dep_bookkeeping_orders_writers_after_readers() {
        let d = mk();
        let r1 = SharedFuture::ready(());
        d.record_completion(false, next_loop_gen(), &r1);
        let mut deps = Vec::new();
        d.collect_deps(true, &mut deps);
        assert_eq!(deps.len(), 1, "writer must wait for the reader");
        // Collection never drains: a second collecting writer node (same
        // loop, same dependency block) must see the reader too.
        let mut deps2 = Vec::new();
        d.collect_deps(true, &mut deps2);
        assert_eq!(deps2.len(), 1);
        // Recording the writer's completion supersedes the readers.
        let w = SharedFuture::ready(());
        d.record_completion(true, next_loop_gen(), &w);
        let mut deps3 = Vec::new();
        d.collect_deps(true, &mut deps3);
        assert_eq!(deps3.len(), 1, "only the new writer remains");
    }

    #[test]
    fn snapshot_clones() {
        let d = mk();
        let s = d.snapshot();
        assert_eq!(s, vec![0.0; 8]);
    }

    #[test]
    fn per_block_deps_are_independent() {
        let set = Set::new(8, "cells");
        let d: Dat<f64> = Dat::with_dep_block_size(&set, 1, "q", vec![0.0; 8], 4);
        let w = SharedFuture::ready(());
        // Write rows 0..4 only: block 0 gains a writer, block 1 stays free.
        d.deps().record_rows(&(0..4), true, next_loop_gen(), &w);
        let mut deps = Vec::new();
        d.deps().collect_rows(&(4..8), false, &mut deps);
        assert!(deps.is_empty(), "untouched block must have no deps");
        d.deps().collect_rows(&(0..4), false, &mut deps);
        assert_eq!(deps.len(), 1, "touched block must expose its writer");
        assert_eq!(d.__dep_epochs(), vec![1, 0]);
    }

    #[test]
    fn writer_generation_accumulates_within_one_loop() {
        let set = Set::new(4, "cells");
        let d: Dat<f64> = Dat::with_dep_block_size(&set, 1, "q", vec![0.0; 4], 4);
        let gen = next_loop_gen();
        let (w1, w2) = (SharedFuture::ready(()), SharedFuture::ready(()));
        // Two nodes of the same loop scatter into block 0: both futures
        // must be retained as the current writer set.
        d.deps().record_block(0, true, gen, &w1);
        d.deps().record_block(0, true, gen, &w2);
        let mut deps = Vec::new();
        d.deps().collect_block(0, false, &mut deps);
        assert_eq!(deps.len(), 2);
        // A later loop's writer supersedes the pair and bumps the epoch.
        d.deps().record_block(0, true, next_loop_gen(), &w1);
        let mut deps2 = Vec::new();
        d.deps().collect_block(0, false, &mut deps2);
        assert_eq!(deps2.len(), 1);
        assert_eq!(d.__dep_epochs(), vec![2]);
    }

    #[test]
    fn soa_guards_present_canonical_rows() {
        let set = Set::new(3, "cells");
        let data: Vec<f64> = (0..6).map(|v| v as f64).collect();
        let d = Dat::with_halo_layout(&set, 2, "q", data.clone(), 4, 0, Layout::SoA);
        assert_eq!(d.layout(), Layout::SoA);
        assert_eq!(d.component_stride(), 3);
        // Raw storage is transposed...
        let raw: Vec<f64> = unsafe { std::slice::from_raw_parts(d.ptr(), d.len()) }.to_vec();
        assert_eq!(raw, vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
        // ...but guards and snapshots present canonical row order.
        assert_eq!(d.snapshot(), data);
        assert_eq!(d.read().row(1), &[2.0, 3.0]);
        {
            let mut w = d.write();
            w.row_mut(2).copy_from_slice(&[9.0, 10.0]);
        }
        assert_eq!(d.read().row(2), &[9.0, 10.0]);
        let raw: Vec<f64> = unsafe { std::slice::from_raw_parts(d.ptr(), d.len()) }.to_vec();
        assert_eq!(raw, vec![0.0, 2.0, 9.0, 1.0, 3.0, 10.0]);
    }

    #[test]
    fn soa_halo_rows_extend_the_planes() {
        let set = Set::new(2, "cells");
        // 2 owned + 2 halo rows, dim 2.
        let data: Vec<f64> = (0..8).map(|v| v as f64).collect();
        let d = Dat::with_halo_layout(&set, 2, "q", data.clone(), 4, 2, Layout::SoA);
        assert_eq!(d.component_stride(), 4);
        assert_eq!(d.snapshot(), data);
        // Scatter a halo row the way the exchange receive node does.
        unsafe { d.scatter_rows_from(3, &[42.0, 43.0]) };
        let mut row = Vec::new();
        unsafe { d.append_row_to(3, &mut row) };
        assert_eq!(row, vec![42.0, 43.0]);
        assert_eq!(d.snapshot()[6..8], [42.0, 43.0]);
    }

    #[test]
    fn empty_range_touches_no_blocks() {
        let d = mk();
        let w = SharedFuture::ready(());
        d.deps().record_rows(&(2..2), true, next_loop_gen(), &w);
        let mut deps = Vec::new();
        d.deps().collect_rows(&(0..4), true, &mut deps);
        assert!(deps.is_empty());
    }
}
