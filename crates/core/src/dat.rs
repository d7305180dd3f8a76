//! Dats: data defined on sets (paper §II-A, `op_decl_dat`), plus the
//! per-dat *access records* that let the dataflow backend chain loops at
//! mini-partition granularity.
//!
//! # Dependency model (access records over dependency blocks)
//!
//! A dat's rows are partitioned into fixed *dependency blocks* aligned to
//! the context's mini-partition block size; two accesses conflict when
//! they touch a common block and at least one of them mutates (RAW, WAR,
//! WAW — at block granularity, everywhere).
//!
//! What the dat remembers is one [`AccessRecord`] per **(loop generation,
//! dat)** — not one future per node, argument and block. A record holds
//!
//! * the loop's **node-future array** (shared by the records the loop
//!   leaves on every dat it touches) and the loop's completion future;
//! * whether the access **mutates** — arguments of one loop on one dat are
//!   coalesced into the strongest access over the union footprint;
//! * a [`Footprint`]: how node `i` maps onto dependency blocks, and back.
//!   `Rows` is a direct argument (node `i` covers rows
//!   `first + i * per_node ..`, resolved arithmetically); `Via` is an
//!   indirect one, resolved through the map's cached
//!   [`BlockReach`](crate::plan::BlockReach) table and its inverse.
//!
//! Submitting a loop takes one snapshot of each argument dat's conflicting
//! records, resolves every node's cached footprint against them to the few
//! producer nodes that overlap it — skipping producers that already
//! completed — and then pushes one record per dat. A RAW-dependent loop
//! therefore starts its node *i* as soon as the predecessor finished the
//! nodes feeding *i*, instead of waiting for the predecessor's last node.
//!
//! **Partial accesses** that address rows directly are the same record
//! with a single node: a halo receive or a user guard is a `Rows` record
//! over its row range, a halo gather or a row migration a `Via` record
//! over the blocks of its row list, and the sequential and fork-join
//! backends' whole-dat access is a `Rows` record over every row.
//!
//! **A record is dropped** when it can no longer order anything: when a
//! newer mutating record of *another* generation covers its blocks (every
//! later access to those blocks conflicts with the newer record, whose
//! nodes already waited for this one's — a partial cover trims the
//! record's live block range instead), or when its loop completed with a
//! value. Records of one generation never supersede each other: the
//! receives of one halo refresh, or the landings of one migration, are
//! siblings that did not wait for one another. A record whose loop
//! panicked stays until covered, so the panic keeps poisoning consumers.
//!
//! # Safety model
//!
//! The payload is the caller's buffer, kept as an `Arc<Vec<T>>` (OP2's
//! `op_decl_dat` keeps the caller's array too); its base pointer is taken
//! once, at construction. An owned `Vec` or a unique `Arc` moves in and is
//! writable. An `Arc` the caller still shares is aliased, never copied,
//! and is **read-only**: every mutating route to it (a mutable loop
//! argument, [`Dat::write`], a halo link, a row-move landing) panics at
//! submission, naming the dat, so nothing writes through the shared
//! buffer. Mutable access to a writable dat happens on exactly two
//! disciplined paths:
//!
//! 1. **Loop executors** (`crate::driver`): race-freedom is guaranteed by
//!    the execution plan — direct mutable args touch disjoint rows because
//!    blocks partition the set; indirect mutable args are serialized by
//!    block coloring (color-round gates under dataflow); loop-vs-loop
//!    ordering is enforced by the dat's access records ([`DepTable`]).
//! 2. **User guards** ([`Dat::read`] / [`Dat::write`]) which first wait for
//!    the relevant futures and are tracked by a borrow counter so a guard
//!    held across a conflicting `par_loop` submission panics instead of
//!    racing.
//!
//! Executors do not go through the `Dat` handle per element: each block
//! call binds its arguments once ([`crate::ArgSpec::bind`]) into a
//! [`crate::DatBound`] holding the raw base pointer (plus the map's
//! index-table pointer and the argument's [`crate::Shape`]). Such a bound
//! value is part of path 1 and inherits its terms: it is made inside the
//! block whose dependencies the driver satisfied, it may be dereferenced
//! only for rows of that block's elements, and it is valid only for that
//! one `block_body` call — the closure's own argument clone keeps this
//! `Arc` (and the map's) alive for exactly that long, and the storage
//! `Vec` is never resized. It is never stored, returned or sent to another
//! thread (its raw pointers make it `!Send`/`!Sync`).

use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use hpx_rt::SharedFuture;

#[cfg(test)]
use crate::config::DEFAULT_BLOCK_SIZE;
use crate::locality::Landing;
use crate::plan::BlockReach;
use crate::set::Set;
use crate::types::{next_entity_id, OpType};

/// How the nodes of one access map onto a dat's dependency blocks (see
/// the module docs).
#[derive(Clone, Debug)]
pub(crate) enum Footprint {
    /// Node `i` covers rows `first + i * per_node .. first + (i + 1) *
    /// per_node`, cut at `end`, of a dat with `block_rows`-row dependency
    /// blocks.
    Rows {
        first: usize,
        end: usize,
        per_node: usize,
        block_rows: usize,
    },
    /// Node `i` covers the blocks the reach table lists for it.
    Via(Arc<BlockReach>),
}

impl Footprint {
    /// A single node over a contiguous row range.
    pub fn rows(rows: &Range<usize>, block_rows: usize) -> Footprint {
        Footprint::Rows {
            first: rows.start,
            end: rows.end,
            per_node: rows.len().max(1),
            block_rows,
        }
    }

    /// A single node over a scattered row list.
    pub fn row_list(rows: &[u32], block_rows: usize) -> Footprint {
        Footprint::Via(Arc::new(BlockReach::of_rows(rows, block_rows)))
    }

    /// First touched block up to one past the last.
    fn span(&self) -> Range<u32> {
        match self {
            Footprint::Rows { first, end, .. } if first >= end => 0..0,
            Footprint::Rows {
                first,
                end,
                block_rows,
                ..
            } => (first / block_rows) as u32..((end - 1) / block_rows + 1) as u32,
            Footprint::Via(reach) => reach.span(),
        }
    }

    /// True when every block of the span is touched by some node.
    fn dense(&self) -> bool {
        match self {
            Footprint::Rows { .. } => true,
            Footprint::Via(reach) => reach.dense(),
        }
    }

    /// The blocks node `node` touches, as ascending ranges (`one` is
    /// scratch for the arithmetic case).
    pub fn node_blocks<'a>(&'a self, node: usize, one: &'a mut Range<u32>) -> &'a [Range<u32>] {
        match self {
            Footprint::Rows {
                first,
                end,
                per_node,
                block_rows,
            } => {
                let lo = first + node * per_node;
                let hi = (lo + per_node).min(*end);
                if lo >= hi {
                    return &[];
                }
                *one = (lo / block_rows) as u32..((hi - 1) / block_rows + 1) as u32;
                std::slice::from_ref(one)
            }
            Footprint::Via(reach) => reach.node_blocks(node),
        }
    }

    /// Calls `f` with every node touching a block of `blocks` (a node may
    /// be reported more than once).
    fn for_each_node_in(&self, blocks: Range<u32>, mut f: impl FnMut(usize)) {
        match self {
            Footprint::Rows {
                first,
                end,
                per_node,
                block_rows,
            } => {
                let lo = (blocks.start as usize * block_rows).max(*first);
                let hi = (blocks.end as usize * block_rows).min(*end);
                if lo < hi {
                    ((lo - first) / per_node..=(hi - 1 - first) / per_node).for_each(f);
                }
            }
            Footprint::Via(reach) => {
                for b in blocks {
                    reach.nodes_of(b).iter().for_each(|&n| f(n as usize));
                }
            }
        }
    }
}

/// One loop's (or one partial access's) access to one dat — see the module
/// docs for what it holds and when it is dropped.
pub(crate) struct AccessRecord {
    /// Submitting loop's generation; sibling records share it.
    pub gen: u64,
    pub mutates: bool,
    /// Completion future of every node, indexed as the footprint numbers
    /// them.
    pub nodes: Arc<[SharedFuture<()>]>,
    /// Completes after every node did (the loop's finalize; the node
    /// itself for a single-node access).
    pub done: SharedFuture<()>,
    pub footprint: Footprint,
}

/// A record in a dat's table, with the block range it still orders.
#[derive(Clone)]
pub(crate) struct LiveRecord {
    blocks: Range<u32>,
    rec: Arc<AccessRecord>,
}

impl LiveRecord {
    /// Appends to `out` the nodes of this record that touch any of
    /// `blocks` and have not completed with a value — each future once,
    /// also against what `out` already holds.
    pub fn collect(&self, blocks: &[Range<u32>], out: &mut Vec<SharedFuture<()>>) {
        for r in blocks {
            let cut = r.start.max(self.blocks.start)..r.end.min(self.blocks.end);
            self.rec.footprint.for_each_node_in(cut, |n| {
                let node = &self.rec.nodes[n];
                if !node.has_value() && !out.iter().any(|o| SharedFuture::ptr_eq(o, node)) {
                    out.push(node.clone());
                }
            });
        }
    }
}

/// A dat's dependency table: its access records (see the module docs).
/// Opaque outside the crate; loop arguments hand it to the driver through
/// [`crate::ArgInfo`].
pub struct DepTable {
    rows: usize,
    block_size: usize,
    /// Live records, oldest first.
    records: Mutex<Vec<LiveRecord>>,
}

impl std::fmt::Debug for DepTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepTable")
            .field("block_size", &self.block_size)
            .field("records", &self.records.lock().len())
            .finish()
    }
}

impl DepTable {
    fn new(rows: usize, block_size: usize) -> Self {
        let block_size = block_size.max(1);
        DepTable {
            rows,
            block_size,
            records: Mutex::new(Vec::new()),
        }
    }

    /// Rows per dependency block.
    pub(crate) fn block_size(&self) -> usize {
        self.block_size
    }

    /// The whole dat as one single-node footprint (sequential / fork-join
    /// backends).
    pub(crate) fn whole(&self) -> Footprint {
        Footprint::rows(&(0..self.rows), self.block_size)
    }

    /// The live records an access conflicts with — every record for a
    /// mutating access, the mutating ones for a read — dropping the
    /// completed ones on the way.
    pub(crate) fn conflicting(&self, mutates: bool) -> Vec<LiveRecord> {
        let mut records = self.records.lock();
        records.retain(|l| !l.rec.done.has_value());
        records
            .iter()
            .filter(|l| mutates || l.rec.mutates)
            .cloned()
            .collect()
    }

    /// The futures a single-node access over `footprint` must wait for.
    pub(crate) fn collect_for(
        &self,
        footprint: &Footprint,
        mutates: bool,
        out: &mut Vec<SharedFuture<()>>,
    ) {
        let mut one = 0..0;
        let blocks = footprint.node_blocks(0, &mut one);
        for live in self.conflicting(mutates) {
            live.collect(blocks, out);
        }
    }

    /// Records a single-node access over `footprint`.
    pub(crate) fn record_node(
        &self,
        footprint: Footprint,
        mutates: bool,
        gen: u64,
        done: &SharedFuture<()>,
    ) {
        self.push(AccessRecord {
            gen,
            mutates,
            nodes: Arc::from([done.clone()]),
            done: done.clone(),
            footprint,
        });
    }

    /// Adds a record, dropping or trimming what it supersedes (module
    /// docs). A record that already completed is not kept.
    pub(crate) fn push(&self, rec: AccessRecord) {
        let span = rec.footprint.span();
        let mut records = self.records.lock();
        let supersedes = rec.mutates && rec.footprint.dense();
        records.retain_mut(|live| {
            if supersedes && live.rec.gen != rec.gen {
                if span.start <= live.blocks.start {
                    live.blocks.start = live.blocks.start.max(span.end);
                }
                if span.end >= live.blocks.end {
                    live.blocks.end = live.blocks.end.min(span.start);
                }
            }
            live.blocks.start < live.blocks.end && !live.rec.done.has_value()
        });
        if !span.is_empty() && !rec.done.has_value() {
            records.push(LiveRecord {
                blocks: span,
                rec: Arc::new(rec),
            });
        }
    }

    /// Waits for every record a whole-dat access conflicts with
    /// (sequential / fork-join backends and user guards).
    pub(crate) fn wait_conflicting(&self, mutates: bool) {
        for live in self.conflicting(mutates) {
            live.rec.done.wait();
        }
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
    /// The storage, kept alive for `base`: unique unless `read_only`.
    _storage: Arc<Vec<T>>,
    /// Base pointer of `_storage`, taken once at construction (the `Vec`
    /// is never resized).
    base: *mut T,
    /// The caller still shares `_storage`: nothing may write it.
    read_only: bool,
    pub deps: Arc<DepTable>,
    /// User-guard tracking: >0 read guards, -1 write guard, 0 free.
    borrow: AtomicIsize,
    /// Implicit-communication link: `(rank, ring)` once this shard was
    /// registered with [`crate::locality::LocalityGroup::link_halo`]. The
    /// ring carries the halo spec, the peer shards and the per-peer dirty
    /// bits that drive automatic halo exchange at loop submission.
    halo_ring: OnceLock<(usize, Arc<crate::locality::HaloRing<T>>)>,
}

// SAFETY: see the module-level safety model; all mutable access is
// serialized by plans/futures (executors) or the borrow counter (guards),
// and `base` only points into `_storage`, which moves with the struct.
unsafe impl<T: Send + Sync> Send for DatInner<T> {}
// SAFETY: shared references only reach the payload through the two paths
// of the module-level model, which never let two threads hold conflicting
// access to one row; every other field is itself `Sync`.
unsafe impl<T: Send + Sync> Sync for DatInner<T> {}

/// Data on a set: `set.size()` rows of `dim` scalars, stored row-major
/// (element `e`'s row is the `dim` scalars at `e * dim`). Cheap to clone (an
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
    pub(crate) fn new(set: &Set, dim: usize, name: &str, data: impl Into<Arc<Vec<T>>>) -> Self {
        Self::with_halo(set, dim, name, data, DEFAULT_BLOCK_SIZE, 0)
    }

    /// Creates a dat whose dependency table is partitioned into blocks of
    /// `dep_block_size` rows — aligned by [`crate::Op2::decl_dat`] to the
    /// context's mini-partition block size so loop blocks and dependency
    /// blocks coincide — with `halo_rows` mirror rows appended beyond the
    /// set's own elements: storage, the dependency table and user guards
    /// all cover `set.size() + halo_rows` rows, while loops keep iterating
    /// the owned prefix only. Halo rows are fed by remote ranks through
    /// [`crate::locality::exchange`], whose receive nodes leave the same
    /// kind of access record as local writers — a halo block is just a
    /// remote-fed block to the dependency engine. `data` is kept, not
    /// copied, and is read-only if its caller still shares it (module
    /// docs).
    pub(crate) fn with_halo(
        set: &Set,
        dim: usize,
        name: &str,
        data: impl Into<Arc<Vec<T>>>,
        dep_block_size: usize,
        halo_rows: usize,
    ) -> Self {
        let mut data = data.into();
        let (base, read_only) = match Arc::get_mut(&mut data) {
            Some(owned) => (owned.as_mut_ptr(), false),
            None => (data.as_ptr().cast_mut(), true),
        };
        assert!(dim > 0, "dat '{name}': dim must be positive");
        let rows = set.size() + halo_rows;
        assert_eq!(
            data.len(),
            rows * dim,
            "dat '{name}': expected {} values ({rows} x {dim}, incl. {halo_rows} halo rows), got {}",
            rows * dim,
            data.len()
        );
        Dat {
            inner: Arc::new(DatInner {
                id: next_entity_id(),
                set: set.clone(),
                dim,
                name: name.to_owned(),
                halo_rows,
                _storage: data,
                base,
                read_only,
                deps: Arc::new(DepTable::new(rows, dep_block_size)),
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

    /// Raw base pointer for the executors; dereferencing it is bound by the
    /// module-level model (which never writes a read-only dat).
    #[inline(always)]
    pub(crate) fn ptr(&self) -> *mut T {
        self.inner.base
    }

    /// Appends row `e` to `out`.
    ///
    /// # Safety
    ///
    /// Caller must hold read access to row `e` per the module-level model.
    pub(crate) unsafe fn append_row_to(&self, e: usize, out: &mut Vec<T>) {
        let dim = self.inner.dim;
        // SAFETY: row `e` lies within the never-resized storage, and the
        // caller may read it per this function's contract.
        out.extend_from_slice(unsafe { std::slice::from_raw_parts(self.ptr().add(e * dim), dim) });
    }

    /// Copies `buf` (one `dim`-wide chunk per landing row, in landing
    /// order) into the rows of a row move's landing: one copy for a halo
    /// range, one per row for a migration's row list (a rank's newly-owned
    /// rows interleave with rows it kept).
    ///
    /// # Safety
    ///
    /// Caller must hold exclusive access to the landing rows per the
    /// module-level model; every landing row must be `< total_rows()` and
    /// `buf.len()` must equal the landing's row count times `dim`.
    pub(crate) unsafe fn land_rows(&self, landing: &Landing, buf: &[T]) {
        let (dim, base) = (self.inner.dim, self.ptr());
        match landing {
            // SAFETY: the range is contiguous and in bounds per contract,
            // which also grants the exclusive access the write needs.
            Landing::Halo(range) => unsafe {
                base.add(range.start * dim)
                    .copy_from_nonoverlapping(buf.as_ptr(), buf.len())
            },
            Landing::Rows(rows) => {
                for (row, &r) in buf.chunks_exact(dim).zip(rows.iter()) {
                    // SAFETY: r < total_rows per contract; rows are
                    // dim-aligned in the never-resized storage.
                    unsafe {
                        base.add(r as usize * dim)
                            .copy_from_nonoverlapping(row.as_ptr(), dim)
                    };
                }
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

    // ---- dependency bookkeeping ------------------------------------------

    /// The dat's access records.
    pub(crate) fn deps(&self) -> &Arc<DepTable> {
        &self.inner.deps
    }

    // ---- guard-based user access ----------------------------------------

    /// Waits for all pending writes, then returns a read view of the rows.
    ///
    /// # Panics
    ///
    /// If a write guard is live.
    pub fn read(&self) -> DatReadGuard<'_, T> {
        self.inner.deps.wait_conflicting(false);
        let prev = self.inner.borrow.fetch_add(1, Ordering::AcqRel);
        assert!(
            prev >= 0,
            "dat '{}': read() while a write guard is live",
            self.inner.name
        );
        DatReadGuard { dat: self }
    }

    /// Waits for all pending loops touching this dat, then returns an
    /// exclusive view (setup/initialization use).
    ///
    /// # Panics
    ///
    /// If any other guard is live, or the dat is read-only (it shares its
    /// caller's data).
    pub fn write(&self) -> DatWriteGuard<'_, T> {
        self.assert_writable("write()");
        self.inner.deps.wait_conflicting(true);
        let prev = self
            .inner
            .borrow
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire);
        assert!(
            prev.is_ok(),
            "dat '{}': write() while another guard is live",
            self.inner.name
        );
        DatWriteGuard { dat: self }
    }

    /// Waits for pending writes and clones the payload out.
    pub fn snapshot(&self) -> Vec<T> {
        self.read().to_vec()
    }

    /// Panics if this dat shares its caller's data: `route` would write it.
    pub(crate) fn assert_writable(&self, route: &str) {
        assert!(
            !self.inner.read_only,
            "dat '{}': {route} needs a writable dat, but it shares its caller's data (read-only)",
            self.inner.name
        );
    }

    /// Panics unless a new loop argument with the given mutability could
    /// run now without racing a live user guard or writing shared data.
    pub(crate) fn assert_borrowable(&self, mutates: bool) {
        let b = self.inner.borrow.load(Ordering::Acquire);
        if mutates {
            self.assert_writable("a mutable loop argument");
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

/// Shared read view of a dat (see [`Dat::read`]).
pub struct DatReadGuard<'a, T: OpType> {
    dat: &'a Dat<T>,
}

impl<T: OpType> std::ops::Deref for DatReadGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: guard construction waited for writers and registered in
        // the borrow counter; conflicting loop submissions panic.
        unsafe { std::slice::from_raw_parts(self.dat.ptr(), self.dat.len()) }
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

/// Exclusive view of a dat (see [`Dat::write`]).
pub struct DatWriteGuard<'a, T: OpType> {
    dat: &'a Dat<T>,
}

impl<T: OpType> std::ops::Deref for DatWriteGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: exclusive per borrow counter.
        unsafe { std::slice::from_raw_parts(self.dat.ptr(), self.dat.len()) }
    }
}

impl<T: OpType> std::ops::DerefMut for DatWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: exclusive per borrow counter.
        unsafe { std::slice::from_raw_parts_mut(self.dat.ptr(), self.dat.len()) }
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
        self.dat.inner.borrow.store(0, Ordering::Release);
    }
}

/// Dependency-table state that only tests read; not part of the API.
#[doc(hidden)]
pub mod testing {
    use super::Dat;
    use crate::types::OpType;

    /// Access records `dat` currently holds (completed ones are dropped
    /// whenever the table is next consulted).
    pub fn dep_records<T: OpType>(dat: &Dat<T>) -> usize {
        dat.inner.deps.records.lock().len()
    }
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

    /// A pending single-node access and the promise completing it.
    fn pending() -> (hpx_rt::Promise<()>, SharedFuture<()>) {
        hpx_rt::channel()
    }

    fn collect(d: &Dat<f64>, rows: Range<usize>, mutates: bool) -> Vec<SharedFuture<()>> {
        let mut deps = Vec::new();
        let footprint = Footprint::rows(&rows, d.deps().block_size());
        d.deps().collect_for(&footprint, mutates, &mut deps);
        deps
    }

    #[test]
    fn writers_wait_for_readers_and_then_supersede_them() {
        let d = mk();
        let (_r, read) = pending();
        d.deps()
            .record_node(d.deps().whole(), false, next_loop_gen(), &read);
        assert!(collect(&d, 0..4, false).is_empty(), "reads do not conflict");
        assert_eq!(
            collect(&d, 0..4, true).len(),
            1,
            "writer must wait for the reader"
        );
        // Collection never drains: a second collecting writer node (same
        // loop, same dependency block) must see the reader too.
        assert_eq!(collect(&d, 0..4, true).len(), 1);
        // Recording the covering write drops the read record.
        let (_w, write) = pending();
        d.deps()
            .record_node(d.deps().whole(), true, next_loop_gen(), &write);
        let deps = collect(&d, 0..4, true);
        assert_eq!(deps.len(), 1, "only the new writer remains");
        assert!(SharedFuture::ptr_eq(&deps[0], &write));
        assert_eq!(testing::dep_records(&d), 1);
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
        let d: Dat<f64> = Dat::with_halo(&set, 1, "q", vec![0.0; 8], 4, 0);
        let (_w, w) = pending();
        // Write rows 0..4 only: block 0 gains a writer, block 1 stays free.
        d.deps()
            .record_node(Footprint::rows(&(0..4), 4), true, next_loop_gen(), &w);
        assert!(
            collect(&d, 4..8, false).is_empty(),
            "untouched block must have no deps"
        );
        assert_eq!(
            collect(&d, 0..4, false).len(),
            1,
            "touched block must expose its writer"
        );
    }

    #[test]
    fn sibling_records_accumulate_and_a_later_generation_supersedes_them() {
        let set = Set::new(4, "cells");
        let d: Dat<f64> = Dat::with_halo(&set, 1, "q", vec![0.0; 4], 4, 0);
        let gen = next_loop_gen();
        let ((_p1, w1), (_p2, w2)) = (pending(), pending());
        // Two receives of one refresh land in block 0: siblings did not
        // wait for each other, so both must stay visible.
        d.deps()
            .record_node(Footprint::rows(&(0..2), 4), true, gen, &w1);
        d.deps()
            .record_node(Footprint::rows(&(2..4), 4), true, gen, &w2);
        assert_eq!(collect(&d, 0..4, false).len(), 2);
        // A later generation's writer supersedes the pair.
        let (_p3, w3) = pending();
        d.deps()
            .record_node(Footprint::rows(&(0..4), 4), true, next_loop_gen(), &w3);
        assert_eq!(collect(&d, 0..4, false).len(), 1);
    }

    #[test]
    fn a_partial_cover_trims_the_older_record() {
        let set = Set::new(16, "cells");
        let d: Dat<f64> = Dat::with_halo(&set, 1, "q", vec![0.0; 16], 4, 0);
        let (_r, read) = pending();
        d.deps()
            .record_node(d.deps().whole(), false, next_loop_gen(), &read);
        // A write over blocks 0..2 takes those blocks off the read record.
        let (_w, write) = pending();
        d.deps()
            .record_node(Footprint::rows(&(0..8), 4), true, next_loop_gen(), &write);
        assert_eq!(testing::dep_records(&d), 2);
        let front = collect(&d, 0..4, true);
        assert_eq!(front.len(), 1);
        assert!(SharedFuture::ptr_eq(&front[0], &write));
        let back = collect(&d, 12..16, true);
        assert_eq!(back.len(), 1);
        assert!(SharedFuture::ptr_eq(&back[0], &read));
        // A scattered (non-dense) write covers nothing it does not touch.
        let (_s, scattered) = pending();
        d.deps().record_node(
            Footprint::row_list(&[4, 15], 4),
            true,
            next_loop_gen(),
            &scattered,
        );
        assert_eq!(
            collect(&d, 12..16, true).len(),
            2,
            "read and scattered write"
        );
    }

    #[test]
    fn completed_records_are_skipped_and_dropped_but_panicked_ones_stay() {
        let d = mk();
        let (promise, read) = pending();
        d.deps()
            .record_node(d.deps().whole(), false, next_loop_gen(), &read);
        promise.set_value(());
        assert_eq!(
            testing::dep_records(&d),
            1,
            "nothing consulted the table yet"
        );
        assert!(collect(&d, 0..4, true).is_empty());
        assert_eq!(testing::dep_records(&d), 0);
        // An access that completed before it was recorded leaves no
        // record behind.
        d.deps()
            .record_node(d.deps().whole(), true, next_loop_gen(), &hpx_rt::ready(()));
        assert_eq!(testing::dep_records(&d), 0);
        // A broken producer keeps poisoning its consumers.
        let (promise, broken) = pending();
        d.deps()
            .record_node(d.deps().whole(), true, next_loop_gen(), &broken);
        drop(promise);
        assert!(broken.is_ready() && !broken.has_value());
        assert_eq!(collect(&d, 0..4, false).len(), 1);
    }

    #[test]
    fn loop_records_resolve_nodes_arithmetically_and_through_reach_tables() {
        let set = Set::new(32, "cells");
        let d: Dat<f64> = Dat::with_halo(&set, 1, "q", vec![0.0; 32], 4, 0);
        let futs: Vec<_> = (0..4).map(|_| pending()).collect();
        let nodes: Arc<[SharedFuture<()>]> = futs.iter().map(|(_, f)| f.clone()).collect();
        let (_done, done) = pending();
        // A direct loop in 4 nodes of 8 rows (2 blocks each).
        d.deps().push(AccessRecord {
            gen: next_loop_gen(),
            mutates: true,
            nodes: Arc::clone(&nodes),
            done: done.clone(),
            footprint: Footprint::Rows {
                first: 0,
                end: 32,
                per_node: 8,
                block_rows: 4,
            },
        });
        // Rows 6..18 span blocks 1..5 -> nodes 0, 1, 2.
        let deps = collect(&d, 6..18, false);
        assert_eq!(deps.len(), 3);
        for (dep, node) in deps.iter().zip(&nodes[..3]) {
            assert!(SharedFuture::ptr_eq(dep, node));
        }
        // An indirect read in 2 nodes: node 0 reaches rows {1, 30}, node 1
        // rows {2, 17} -> blocks {0, 7} and {0, 4}.
        let edges = Set::new(4, "edges");
        let m = crate::map::Map::new(&edges, &set, 1, vec![1, 30, 2, 17], "m");
        let reach = m.block_reach(&[0], 2, 4);
        let via: Arc<[SharedFuture<()>]> = futs[..2].iter().map(|(_, f)| f.clone()).collect();
        d.deps().push(AccessRecord {
            gen: next_loop_gen(),
            mutates: false,
            nodes: via,
            done,
            footprint: Footprint::Via(reach),
        });
        // A write to block 0 waits for direct node 0 and both readers —
        // but node 0's future, reached twice, is listed once.
        let deps = collect(&d, 0..4, true);
        assert_eq!(deps.len(), 2);
        // A write to block 4 (rows 16..20): direct node 2, reader 1.
        let deps = collect(&d, 16..20, true);
        assert_eq!(deps.len(), 2);
        assert!(SharedFuture::ptr_eq(&deps[0], &nodes[2]));
        assert!(SharedFuture::ptr_eq(&deps[1], &nodes[1]));
    }

    #[test]
    fn empty_range_touches_no_blocks() {
        let d = mk();
        let (_w, w) = pending();
        d.deps()
            .record_node(Footprint::rows(&(2..2), 4), true, next_loop_gen(), &w);
        assert!(collect(&d, 0..4, true).is_empty());
    }

    // ---- the row-level oracle -------------------------------------------

    /// xorshift64*, as in `tests/proptests.rs`: every case is reproducible
    /// from its index.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        /// A value in `lo..hi` (`hi > lo`).
        fn in_range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo) as u64) as usize
        }
    }

    /// One node of a random program, as the oracle sees it.
    struct OracleNode {
        /// Which access of the program the node belongs to: nodes of one
        /// access are siblings, ordered (if at all) by plan coloring, not
        /// by the dependency engine.
        access: usize,
        /// Rows the node really touches (ascending, distinct).
        rows: Vec<usize>,
        mutates: bool,
        /// Wired producers, by node id.
        deps: Vec<usize>,
        future: SharedFuture<()>,
        promise: Option<hpx_rt::Promise<()>>,
        /// Every earlier node this one is ordered after: through wired
        /// edges, or because the earlier node had completed before this
        /// one was wired.
        after: Vec<bool>,
    }

    /// Random programs of direct loops (any node granularity), indirect
    /// loops (random maps, several slots coalesced), partial row ranges
    /// (halo receives) and partial row lists (halo gathers, migrations) on
    /// one dat, wired exactly the way the driver and the locality layer
    /// wire them — snapshot, per-node collection, one record — while
    /// earlier nodes complete at random. Against a brute-force row-level
    /// model:
    ///
    /// * two nodes that touch a common row, at least one of them through a
    ///   mutating access, are ordered — transitively through wired edges,
    ///   or because the first had completed when the second was wired;
    /// * no edge joins two nodes that share no dependency block, or two
    ///   reads.
    ///
    /// The wired graph is not reachable through the public API, which is
    /// why this property lives here and not in `tests/proptests.rs`.
    #[test]
    fn wired_graph_orders_exactly_the_conflicting_nodes() {
        for case in 0..64u64 {
            let mut rng = Rng(0xDA7A_F10E ^ (case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let nrows = rng.in_range(1, 160);
            let block = rng.in_range(1, 20);
            let set = Set::new(nrows, "rows");
            let d: Dat<f64> = Dat::with_halo(&set, 1, "d", vec![0.0; nrows], block, 0);
            let mut graph: Vec<OracleNode> = Vec::new();
            // `(done promise, node ids)` of every multi-node access.
            let mut loops: Vec<(Option<hpx_rt::Promise<()>>, Vec<usize>)> = Vec::new();

            for _step in 0..rng.in_range(3, 14) {
                let mutates = rng.next().is_multiple_of(2);
                // The access: its footprint(s) and every node's true rows.
                let (footprints, node_rows): (Vec<Footprint>, Vec<Vec<usize>>) =
                    match rng.next() % 5 {
                        0 => {
                            let per_node = rng.in_range(1, nrows + 1);
                            let rows = (0..nrows.div_ceil(per_node))
                                .map(|i| (i * per_node..((i + 1) * per_node).min(nrows)).collect())
                                .collect();
                            let footprint = Footprint::Rows {
                                first: 0,
                                end: nrows,
                                per_node,
                                block_rows: block,
                            };
                            (vec![footprint], rows)
                        }
                        1 => {
                            let nfrom = rng.in_range(1, 90);
                            let arity = rng.in_range(1, 4);
                            let table: Vec<u32> = (0..nfrom * arity)
                                .map(|_| (rng.next() % nrows as u64) as u32)
                                .collect();
                            let from = Set::new(nfrom, "from");
                            let m = crate::map::Map::new(&from, &set, arity, table, "m");
                            let slots: Vec<usize> = (0..arity)
                                .filter(|&s| s == 0 || rng.next().is_multiple_of(2))
                                .collect();
                            let from_bs = rng.in_range(1, nfrom + 1);
                            let rows = (0..nfrom.div_ceil(from_bs))
                                .map(|i| {
                                    let mut rows: Vec<usize> = (i * from_bs
                                        ..((i + 1) * from_bs).min(nfrom))
                                        .flat_map(|e| slots.iter().map(move |&s| (e, s)))
                                        .map(|(e, s)| m.at(e, s))
                                        .collect();
                                    rows.sort_unstable();
                                    rows.dedup();
                                    rows
                                })
                                .collect();
                            (
                                vec![Footprint::Via(m.block_reach(&slots, from_bs, block))],
                                rows,
                            )
                        }
                        2 => {
                            let a = rng.in_range(0, nrows);
                            let b = rng.in_range(a + 1, nrows + 1);
                            (
                                vec![Footprint::rows(&(a..b), block)],
                                vec![(a..b).collect()],
                            )
                        }
                        3 => {
                            // One loop over the dat's own set that reaches it
                            // both directly and through a map: two sibling
                            // records on one node array.
                            let table: Vec<u32> = (0..nrows)
                                .map(|_| (rng.next() % nrows as u64) as u32)
                                .collect();
                            let m = crate::map::Map::new(&set, &set, 1, table, "self");
                            let per_node = rng.in_range(1, nrows + 1);
                            let rows = (0..nrows.div_ceil(per_node))
                                .map(|i| {
                                    let own = i * per_node..((i + 1) * per_node).min(nrows);
                                    let mut rows: Vec<usize> =
                                        own.clone().chain(own.map(|e| m.at(e, 0))).collect();
                                    rows.sort_unstable();
                                    rows.dedup();
                                    rows
                                })
                                .collect();
                            let direct = Footprint::Rows {
                                first: 0,
                                end: nrows,
                                per_node,
                                block_rows: block,
                            };
                            let via = Footprint::Via(m.block_reach(&[0], per_node, block));
                            (vec![direct, via], rows)
                        }
                        _ => {
                            let mut rows: Vec<usize> = (0..rng.in_range(1, 12))
                                .map(|_| rng.in_range(0, nrows))
                                .collect();
                            rows.sort_unstable();
                            rows.dedup();
                            let list: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
                            (vec![Footprint::row_list(&list, block)], vec![rows])
                        }
                    };

                // Wire every node against one snapshot, then push.
                let records = d.deps().conflicting(mutates);
                let first_id = graph.len();
                for (i, rows) in node_rows.into_iter().enumerate() {
                    let mut one = 0..0;
                    let mut deps = Vec::new();
                    for footprint in &footprints {
                        for live in &records {
                            live.collect(footprint.node_blocks(i, &mut one), &mut deps);
                        }
                    }
                    let deps: Vec<usize> = deps
                        .iter()
                        .map(|dep| {
                            (0..first_id)
                                .find(|&id| SharedFuture::ptr_eq(&graph[id].future, dep))
                                .expect("a dependency is an earlier node's future")
                        })
                        .collect();
                    let mut after: Vec<bool> = graph.iter().map(|n| n.promise.is_none()).collect();
                    for &dep in &deps {
                        after[dep] = true;
                        for (a, &is_after) in graph[dep].after.iter().enumerate() {
                            after[a] |= is_after;
                        }
                    }
                    let (promise, future) = pending();
                    graph.push(OracleNode {
                        access: loops.len(),
                        rows,
                        mutates,
                        deps,
                        future,
                        promise: Some(promise),
                        after,
                    });
                }
                let ids: Vec<usize> = (first_id..graph.len()).collect();
                let nodes: Arc<[SharedFuture<()>]> =
                    ids.iter().map(|&id| graph[id].future.clone()).collect();
                let (done_promise, done) = pending();
                let gen = next_loop_gen();
                for footprint in footprints {
                    d.deps().push(AccessRecord {
                        gen,
                        mutates,
                        nodes: Arc::clone(&nodes),
                        done: done.clone(),
                        footprint,
                    });
                }
                loops.push((Some(done_promise), ids));

                // Let some runnable nodes finish, and with them the
                // accesses whose nodes are all done.
                for id in 0..graph.len() {
                    let runnable = graph[id]
                        .deps
                        .iter()
                        .all(|&dep| graph[dep].promise.is_none());
                    if runnable && rng.next().is_multiple_of(3) {
                        if let Some(promise) = graph[id].promise.take() {
                            promise.set_value(());
                        }
                    }
                }
                for (done_promise, ids) in &mut loops {
                    if ids.iter().all(|&id| graph[id].promise.is_none()) {
                        if let Some(promise) = done_promise.take() {
                            promise.set_value(());
                        }
                    }
                }
            }

            let shares = |a: &[usize], b: &[usize], unit: usize| {
                a.iter().any(|&x| b.iter().any(|&y| x / unit == y / unit))
            };
            for later in 0..graph.len() {
                let b = &graph[later];
                for (earlier, a) in graph[..later].iter().enumerate() {
                    if a.access == b.access {
                        continue;
                    }
                    let what = format!(
                        "case {case}: node {earlier} (rows {:?}, mutates {}) -> node {later} \
                         (rows {:?}, mutates {}), block size {block}",
                        a.rows, a.mutates, b.rows, b.mutates
                    );
                    if (a.mutates || b.mutates) && shares(&a.rows, &b.rows, 1) {
                        assert!(b.after[earlier], "{what}: conflicting accesses unordered");
                    }
                    if b.deps.contains(&earlier) {
                        assert!(
                            shares(&a.rows, &b.rows, block),
                            "{what}: edge without a shared block"
                        );
                        assert!(a.mutates || b.mutates, "{what}: edge between two reads");
                    }
                }
            }
        }
    }
}
