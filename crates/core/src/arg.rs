//! Loop arguments (`op_arg_dat` / `op_arg_gbl`, paper §II-A and Fig 7).
//!
//! An argument couples a [`Dat`] (or [`Global`]) with an access descriptor
//! and, for indirect access, a [`Map`] slot. Access is encoded in the
//! *type* (the [`AccessTag`] parameter) so the kernel receives `&[T]` for
//! `OP_READ` and `&mut [T]` otherwise — the Rust equivalent of OP2's
//! access-mode-checked argument marshalling.

use std::sync::Arc;

use hpx_rt::{PrefetchSet, SharedFuture};

use crate::dat::{Dat, DepTable, Layout};
use crate::gbl::{Global, Reducible};
use crate::map::Map;
use crate::set::Set;
use crate::types::{Access, OpType};

/// Shape of an argument, used for planning and dependency analysis.
#[derive(Clone, Debug)]
pub struct ArgInfo {
    /// Declared access mode.
    pub access: Access,
    /// Direct, indirect-through-a-map, or global.
    pub kind: ArgKind,
    /// The dependency table of the dat the argument accesses (`None` for
    /// globals); arguments on one dat share it.
    pub deps: Option<Arc<DepTable>>,
}

/// See [`ArgInfo`].
#[derive(Clone, Debug)]
pub enum ArgKind {
    /// The argument indexes the iteration set directly (`OP_ID`).
    Direct,
    /// The argument indexes through `map` slot `idx`.
    Indirect {
        /// The mapping used for the indirection.
        map: Map,
        /// Which of the map's `dim` slots.
        idx: usize,
    },
    /// A global (reduction or broadcast) argument.
    Global,
}

/// One argument of a parallel loop.
///
/// # Safety
///
/// Implementations must return views that are valid for the lifetime of the
/// borrow and must only alias as permitted by the access mode: `Read` views
/// may alias anything read-only; mutable views must target rows that the
/// executor guarantees exclusive (direct partitioning, plan coloring, or
/// task-local buffers).
pub unsafe trait ArgSpec: Clone + Send + Sync + 'static {
    /// What the kernel receives per element: `&[T]` or `&mut [T]`.
    type View<'e>
    where
        Self: 'e;
    /// Per-chunk scratch (reduction buffers, SoA row staging).
    type TaskLocal: Send + 'static;
    /// Everything about the argument that does not change from one
    /// element to the next — base pointers, `dim`, plane stride, map table
    /// and slot — resolved once per executed block into plain locals, so
    /// the element loop chases no handle (see [`DatBound`]).
    type Bound<'b>
    where
        Self: 'b;

    /// Validates the argument against the loop's iteration set.
    fn check_against(&self, iter_set: &Set, loop_name: &str);
    /// Creates the per-chunk scratch.
    fn task_local(&self) -> Self::TaskLocal;
    /// Resolves the loop-invariant state; the executor calls this once per
    /// block, inside the block's task.
    ///
    /// # Safety
    ///
    /// Caller must be a loop executor upholding the plan/coloring
    /// discipline (see [`crate::dat`] safety model), calling from the
    /// block whose dependencies are satisfied. The result must not outlive
    /// that block call, be stored, or be sent to another thread.
    unsafe fn bind(&self) -> Self::Bound<'_>;
    /// Builds the kernel view for element `elem`.
    ///
    /// # Safety
    ///
    /// As [`ArgSpec::bind`]; additionally `elem` must be an element of the
    /// iteration set the argument was checked against.
    unsafe fn view<'e>(
        bound: &'e Self::Bound<'_>,
        elem: usize,
        tl: &'e mut Self::TaskLocal,
    ) -> Self::View<'e>;
    /// Writes staged per-element state back after the kernel ran — the
    /// dual of [`ArgSpec::view`] for arguments whose mutable view is a
    /// task-local staging buffer rather than a slice of the underlying
    /// storage (an SoA dat's rows are strided across component planes, so
    /// the contiguous kernel view is staged). No-op for AoS and read-only
    /// arguments.
    ///
    /// # Safety
    ///
    /// Same contract as [`ArgSpec::view`], invoked with the same `elem`
    /// whose view the kernel just mutated.
    unsafe fn writeback(bound: &Self::Bound<'_>, elem: usize, tl: &mut Self::TaskLocal) {
        let _ = (bound, elem, tl);
    }
    /// Commits per-chunk scratch (keyed by the owning loop's generation
    /// and the chunk's start element, so pipelined loops' partials never
    /// mix).
    fn commit(&self, gen: u64, chunk_start: usize, tl: Self::TaskLocal);
    /// Runs once after all chunks of loop generation `gen` completed.
    fn finalize(&self, gen: u64);
    /// Shape for planning.
    fn info(&self) -> ArgInfo;
    /// Futures *every node* of the loop must wait for beyond the dat
    /// dependencies the driver resolves from [`ArgInfo::deps`] — a
    /// broadcast global's pending reductions. Default: none.
    fn collect_node_deps(&self, out: &mut Vec<SharedFuture<()>>) {
        let _ = out;
    }
    /// Futures the loop's *finalize* must wait for beyond its own nodes:
    /// loop-level state such as a previous reduction's finalize. Block
    /// nodes stay free of these edges, so reductions do not re-introduce
    /// whole-loop barriers. Default: none.
    fn collect_loop_deps(&self, out: &mut Vec<SharedFuture<()>>) {
        let _ = out;
    }
    /// Records the whole loop's completion for state that is loop-level by
    /// nature (global reductions). Dat arguments leave it to the driver,
    /// which records one access per loop and dat. Default: no-op.
    fn record_loop_completion(&self, done: &SharedFuture<()>) {
        let _ = done;
    }
    /// Panics if a conflicting user guard is live.
    fn assert_borrowable(&self);
    /// Registers containers for the prefetching iterator (§V). Indirect
    /// dat rows are gathered through the map, so only the map table itself
    /// is registered for them.
    fn add_prefetch(&self, set: &mut PrefetchSet);
    /// For the debug aliasing check: `(dat id, target row)` when this
    /// argument yields a mutable view into shared storage.
    fn mut_target(&self, elem: usize) -> Option<(u64, usize)>;
    /// Implicit-communication pre-submission hook: an argument that *reads*
    /// a halo-linked dat through a halo-capable map schedules the refresh
    /// of every stale, reachable import (see the dirty-bit protocol in
    /// [`crate::locality`]). Runs before the loop's dependency graph is
    /// built, so the exchange nodes become ordinary predecessors of its
    /// boundary blocks. Default: no-op.
    fn halo_refresh(&self) {}
    /// Implicit-communication pre-submission hook: a *mutating* argument on
    /// a halo-linked dat marks that rank's exported halos stale. Called
    /// after [`ArgSpec::halo_refresh`] ran for all of the loop's
    /// arguments. Default: no-op.
    fn halo_mark_dirty(&self) {}
}

// ---------------------------------------------------------------------------
// Dat arguments
// ---------------------------------------------------------------------------

/// Type-level access mode of a [`DatArg`].
pub trait AccessTag: Send + Sync + 'static {
    /// The runtime access descriptor.
    const ACCESS: Access;
}

/// `OP_READ` marker.
pub struct ReadTag;
/// `OP_WRITE` marker.
pub struct WriteTag;
/// `OP_RW` marker.
pub struct RwTag;
/// `OP_INC` marker.
pub struct IncTag;

impl AccessTag for ReadTag {
    const ACCESS: Access = Access::Read;
}
impl AccessTag for WriteTag {
    const ACCESS: Access = Access::Write;
}
impl AccessTag for RwTag {
    const ACCESS: Access = Access::Rw;
}
impl AccessTag for IncTag {
    const ACCESS: Access = Access::Inc;
}

/// A dat argument with access mode `A` (see module docs). Construct with
/// [`arg_read`], [`arg_inc_via`], etc.
pub struct DatArg<T: OpType, A: AccessTag> {
    dat: Dat<T>,
    map: Option<(Map, usize)>,
    _access: std::marker::PhantomData<A>,
}

impl<T: OpType, A: AccessTag> Clone for DatArg<T, A> {
    fn clone(&self) -> Self {
        DatArg {
            dat: self.dat.clone(),
            map: self.map.clone(),
            _access: std::marker::PhantomData,
        }
    }
}

impl<T: OpType, A: AccessTag> DatArg<T, A> {
    fn new(dat: &Dat<T>, map: Option<(&Map, usize)>) -> Self {
        if let Some((m, idx)) = map {
            assert!(
                idx < m.dim(),
                "arg on dat '{}': map slot {idx} out of range for map '{}' (dim {})",
                dat.name(),
                m.name(),
                m.dim()
            );
            assert!(
                m.to_set().same(dat.set()),
                "arg on dat '{}': map '{}' targets set '{}', dat lives on set '{}'",
                dat.name(),
                m.name(),
                m.to_set().name(),
                dat.set().name()
            );
            assert!(
                m.target_rows() <= dat.total_rows(),
                "arg on dat '{}': map '{}' addresses {} rows (incl. halo) but the dat stores {}",
                dat.name(),
                m.name(),
                m.target_rows(),
                dat.total_rows()
            );
        }
        DatArg {
            dat: dat.clone(),
            map: map.map(|(m, i)| (m.clone(), i)),
            _access: std::marker::PhantomData,
        }
    }

    /// Target row for iteration element `e` (submission-time and debug
    /// paths; the element loop resolves rows through [`DatBound`]).
    fn target(&self, e: usize) -> usize {
        match &self.map {
            None => e,
            Some((m, i)) => m.at(e, *i),
        }
    }

    fn bind_impl(&self) -> DatBound<'_, T> {
        let (map, arity) = match &self.map {
            None => (std::ptr::null(), 0),
            // Pre-offset by the slot (`slot < m.dim()` per `DatArg::new`);
            // wrapping because an empty source set has an empty table.
            Some((m, slot)) => (m.indices().as_ptr().wrapping_add(*slot), m.dim()),
        };
        DatBound {
            // SAFETY(clippy): address computation only.
            base: unsafe { self.dat.ptr() },
            dim: self.dat.dim(),
            layout: self.dat.layout(),
            stride: self.dat.component_stride(),
            map,
            arity,
            _arg: std::marker::PhantomData,
        }
    }

    /// Staging buffer for one SoA row (AoS views alias the storage and
    /// need none).
    fn stage_buffer(&self) -> Vec<T> {
        match self.dat.layout() {
            Layout::AoS => Vec::new(),
            Layout::SoA => vec![T::default(); self.dat.dim()],
        }
    }

    fn check_impl(&self, iter_set: &Set, loop_name: &str) {
        match &self.map {
            None => assert!(
                self.dat.set().same(iter_set),
                "loop '{loop_name}': direct arg on dat '{}' (set '{}') does not match iteration set '{}'",
                self.dat.name(),
                self.dat.set().name(),
                iter_set.name()
            ),
            Some((m, _)) => assert!(
                m.from_set().same(iter_set),
                "loop '{loop_name}': map '{}' maps from set '{}', not from iteration set '{}'",
                m.name(),
                m.from_set().name(),
                iter_set.name()
            ),
        }
    }

    fn info_impl(&self) -> ArgInfo {
        ArgInfo {
            access: A::ACCESS,
            kind: match &self.map {
                None => ArgKind::Direct,
                Some((m, i)) => ArgKind::Indirect {
                    map: m.clone(),
                    idx: *i,
                },
            },
            deps: Some(Arc::clone(self.dat.deps())),
        }
    }

    /// Shared implicit-communication trigger: only an *indirect* argument
    /// through a halo-capable map can observe halo mirror rows (loops
    /// iterate the owned prefix, so direct arguments never reach them).
    /// Under a distributed transport the halo-capability cut is dropped:
    /// whether *this* rank's map reaches its halo says nothing about the
    /// peer's, and both sides must fire at the same program points (SPMD
    /// symmetry — see [`crate::locality`]); the ring resolves stale
    /// exports there.
    fn halo_refresh_impl(&self) {
        if let Some((m, slot)) = &self.map {
            if let Some((rank, ring)) = self.dat.halo_ring() {
                if m.halo_targets() > 0 || ring.spmd_mode() {
                    ring.refresh_for_read(*rank, m, *slot);
                }
            }
        }
    }

    /// Shared implicit-communication trigger: any mutation makes the owned
    /// rows (the authoritative copies) newer than the peers' mirrors.
    fn halo_mark_dirty_impl(&self) {
        if let Some((rank, ring)) = self.dat.halo_ring() {
            ring.mark_exports_dirty(*rank);
        }
    }

    fn add_prefetch_impl(&self, set: &mut PrefetchSet) {
        // Direct (linear-stride) accesses are deliberately *not*
        // registered: modern hardware stride prefetchers already saturate
        // them, and per-iteration software prefetch code only bloats the
        // hot loop (measured in EXPERIMENTS.md; the paper's 2016 testbed
        // behaved differently — hpx-rt's `for_each_prefetch` still offers
        // linear prefetching for the Fig 19/20 experiments).
        //
        // Indirect accesses are the real payoff: read the map entry for
        // iteration i+d (cheap, sequential) and prefetch the gathered dat
        // row, which no hardware prefetcher can predict. The map's index
        // Vec outlives the loop because the argument (cloned into the
        // block body) keeps the Map alive.
        if let Some((m, idx)) = &self.map {
            // SAFETY(clippy): address computation only.
            let base = unsafe { self.dat.ptr() }.cast_const().cast::<u8>();
            match self.dat.layout() {
                Layout::AoS => set.add_gather_raw(
                    m.indices(),
                    m.dim(),
                    *idx,
                    base,
                    self.dat.dim() * std::mem::size_of::<T>(),
                    self.dat.set().size(),
                ),
                // A gathered SoA row spans `dim` planes a full stride
                // apart: one entry per plane, each with a scalar-sized
                // "row", so every touched cache line is covered.
                Layout::SoA => {
                    let plane_bytes = self.dat.component_stride() * std::mem::size_of::<T>();
                    for c in 0..self.dat.dim() {
                        set.add_gather_raw(
                            m.indices(),
                            m.dim(),
                            *idx,
                            // SAFETY(clippy): address computation only.
                            unsafe { base.add(c * plane_bytes) },
                            std::mem::size_of::<T>(),
                            self.dat.set().size(),
                        );
                    }
                }
            }
        }
    }
}

/// The loop-invariant half of a [`DatArg`], resolved once per executed
/// block by [`ArgSpec::bind`]: the element loop addresses rows from these
/// plain locals instead of re-walking `DatArg -> Arc<DatInner> -> Vec` and
/// `Map -> Arc<MapInner> -> indices` per element (loads the optimiser
/// cannot hoist itself, because kernels write through raw pointers that
/// may alias those fields).
///
/// Holds raw pointers into the dat's storage and the map's index table:
/// valid only while the argument it was bound from is alive and only
/// under the executor discipline of [`crate::dat`] — i.e. for the one
/// `block_body` call that bound it, whose closure owns the argument clone.
/// The raw pointers also keep it `!Send`/`!Sync`, so it cannot leave the
/// block's task.
pub struct DatBound<'b, T> {
    base: *mut T,
    dim: usize,
    layout: Layout,
    /// [`Dat::component_stride`]: scalars between two components of a row.
    stride: usize,
    /// Map table pre-offset by the slot; null for a direct argument.
    map: *const u32,
    /// Map arity (entries per source element).
    arity: usize,
    _arg: std::marker::PhantomData<&'b ()>,
}

impl<T: OpType> DatBound<'_, T> {
    /// Target row of iteration element `e`.
    ///
    /// # Safety
    ///
    /// `e` must be an element of the iteration set the argument was
    /// checked against.
    #[inline(always)]
    unsafe fn target(&self, e: usize) -> usize {
        if self.map.is_null() {
            e
        } else {
            // SAFETY: `check_against` pinned the map's source set to the
            // iteration set and `block_body` asserts its range lies inside
            // that set, so `e * arity + slot` is inside the
            // `from.size() * arity` table `Map::with_halo` validated.
            unsafe { *self.map.add(e * self.arity) as usize }
        }
    }

    /// Pointer to the `dim` contiguous scalars of element `e`'s row: the
    /// storage itself under AoS, `stage` (filled from the component
    /// planes) under SoA.
    ///
    /// # Safety
    ///
    /// As [`ArgSpec::view`]; `stage` must come from
    /// [`DatArg::stage_buffer`] of the bound argument.
    #[inline(always)]
    unsafe fn row(&self, e: usize, stage: &mut [T]) -> *mut T {
        // SAFETY: forwarded contract.
        let t = unsafe { self.target(e) };
        match self.layout {
            // SAFETY: `t < total_rows` — direct rows by the iteration-set
            // match, mapped rows by `Map::with_halo`'s index validation
            // and `DatArg::new`'s `target_rows <= total_rows` check.
            Layout::AoS => unsafe { self.base.add(t * self.dim) },
            // The row is strided one plane apart: stage it so the kernel
            // keeps its contiguous slice signature (OP_RW/OP_INC read
            // their current target; OP_WRITE harmlessly sees stale values
            // it must overwrite anyway).
            Layout::SoA => {
                for (c, s) in stage.iter_mut().enumerate() {
                    // SAFETY: `stage.len() == dim`, so
                    // `c * stride + t < dim * total_rows`.
                    *s = unsafe { *self.base.add(c * self.stride + t) };
                }
                stage.as_mut_ptr()
            }
        }
    }

    /// Scatters a staged SoA row back to the component planes (no-op
    /// under AoS, where the kernel wrote the storage directly).
    ///
    /// # Safety
    ///
    /// As [`ArgSpec::writeback`].
    #[inline(always)]
    unsafe fn scatter(&self, e: usize, stage: &[T]) {
        if self.layout == Layout::SoA {
            // SAFETY: forwarded contract.
            let t = unsafe { self.target(e) };
            for (c, &v) in stage.iter().enumerate() {
                // SAFETY: bounds as in `row`; exclusivity of row `t` per
                // the executor discipline.
                unsafe { *self.base.add(c * self.stride + t) = v };
            }
        }
    }
}

macro_rules! impl_dat_arg {
    // $tag: the access tag; $view: view type; $mut_target: expression
    (read) => {
        // SAFETY: Read views are shared references; aliasing is harmless.
        // An SoA view points into the per-chunk staging buffer instead.
        unsafe impl<T: OpType> ArgSpec for DatArg<T, ReadTag> {
            type View<'e> = &'e [T];
            type TaskLocal = Vec<T>;
            type Bound<'b> = DatBound<'b, T>;

            fn check_against(&self, iter_set: &Set, loop_name: &str) {
                self.check_impl(iter_set, loop_name);
            }
            fn task_local(&self) -> Vec<T> {
                self.stage_buffer()
            }
            unsafe fn bind(&self) -> DatBound<'_, T> {
                self.bind_impl()
            }
            #[inline(always)]
            unsafe fn view<'e>(b: &'e DatBound<'_, T>, elem: usize, tl: &'e mut Vec<T>) -> &'e [T] {
                // SAFETY: executor discipline (trait docs); `row` yields
                // `dim` readable scalars.
                unsafe { std::slice::from_raw_parts(b.row(elem, tl), b.dim) }
            }
            fn commit(&self, _gen: u64, _chunk_start: usize, _tl: Vec<T>) {}
            fn finalize(&self, _gen: u64) {}
            fn info(&self) -> ArgInfo {
                self.info_impl()
            }
            fn assert_borrowable(&self) {
                self.dat.assert_borrowable(false);
            }
            fn add_prefetch(&self, set: &mut PrefetchSet) {
                self.add_prefetch_impl(set);
            }
            fn mut_target(&self, _elem: usize) -> Option<(u64, usize)> {
                None
            }
            fn halo_refresh(&self) {
                self.halo_refresh_impl();
            }
        }
    };
    (mut $tag:ty) => {
        // SAFETY: mutable views are made exclusive by the executor: direct
        // args are partitioned by element, indirect ones serialized by
        // plan coloring; the debug aliasing check guards within-element
        // overlap. An SoA view is a staged copy of the strided row,
        // scattered back by `writeback` under the same exclusivity.
        unsafe impl<T: OpType> ArgSpec for DatArg<T, $tag> {
            type View<'e> = &'e mut [T];
            type TaskLocal = Vec<T>;
            type Bound<'b> = DatBound<'b, T>;

            fn check_against(&self, iter_set: &Set, loop_name: &str) {
                self.check_impl(iter_set, loop_name);
            }
            fn task_local(&self) -> Vec<T> {
                self.stage_buffer()
            }
            unsafe fn bind(&self) -> DatBound<'_, T> {
                self.bind_impl()
            }
            #[inline(always)]
            unsafe fn view<'e>(
                b: &'e DatBound<'_, T>,
                elem: usize,
                tl: &'e mut Vec<T>,
            ) -> &'e mut [T] {
                // SAFETY: exclusivity per the impl-level comment; `row`
                // yields `dim` writable scalars.
                unsafe { std::slice::from_raw_parts_mut(b.row(elem, tl), b.dim) }
            }
            #[inline(always)]
            unsafe fn writeback(b: &DatBound<'_, T>, elem: usize, tl: &mut Vec<T>) {
                // SAFETY: exclusivity per the impl-level comment; the
                // executor passes the elem whose view was just staged.
                unsafe { b.scatter(elem, tl) }
            }
            fn commit(&self, _gen: u64, _chunk_start: usize, _tl: Vec<T>) {}
            fn finalize(&self, _gen: u64) {}
            fn info(&self) -> ArgInfo {
                self.info_impl()
            }
            fn assert_borrowable(&self) {
                self.dat.assert_borrowable(true);
            }
            fn add_prefetch(&self, set: &mut PrefetchSet) {
                self.add_prefetch_impl(set);
            }
            fn mut_target(&self, elem: usize) -> Option<(u64, usize)> {
                Some((self.dat.id(), self.target(elem)))
            }
            fn halo_refresh(&self) {
                // OP_RW reads before writing; OP_WRITE and OP_INC never
                // read their target, so they need no fresh halo (boundary
                // increments are covered by exec-halo redundant compute).
                if <$tag as AccessTag>::ACCESS == Access::Rw {
                    self.halo_refresh_impl();
                }
            }
            fn halo_mark_dirty(&self) {
                self.halo_mark_dirty_impl();
            }
        }
    };
}

impl_dat_arg!(read);
impl_dat_arg!(mut WriteTag);
impl_dat_arg!(mut RwTag);
impl_dat_arg!(mut IncTag);

// ---------------------------------------------------------------------------
// Global arguments
// ---------------------------------------------------------------------------

/// Increment (reduction) argument on a [`Global`]; the kernel receives a
/// `&mut [T]` accumulation buffer that is task-local and merged
/// deterministically after the loop.
pub struct GblIncArg<T: Reducible> {
    gbl: Global<T>,
}

impl<T: Reducible> Clone for GblIncArg<T> {
    fn clone(&self) -> Self {
        GblIncArg {
            gbl: self.gbl.clone(),
        }
    }
}

// SAFETY: views point into the per-chunk task-local buffer — never shared.
unsafe impl<T: Reducible> ArgSpec for GblIncArg<T> {
    type View<'e> = &'e mut [T];
    type TaskLocal = Vec<T>;
    /// Nothing to resolve: the view is the task-local partial itself.
    type Bound<'b> = ();

    fn check_against(&self, _iter_set: &Set, _loop_name: &str) {}
    fn task_local(&self) -> Vec<T> {
        self.gbl.task_local()
    }
    unsafe fn bind(&self) {}
    #[inline(always)]
    unsafe fn view<'e>(_b: &'e (), _elem: usize, tl: &'e mut Vec<T>) -> &'e mut [T] {
        tl.as_mut_slice()
    }
    fn commit(&self, gen: u64, chunk_start: usize, tl: Vec<T>) {
        self.gbl.commit(gen, chunk_start, tl);
    }
    fn finalize(&self, gen: u64) {
        self.gbl.finalize(gen);
    }
    fn info(&self) -> ArgInfo {
        ArgInfo {
            access: Access::Inc,
            kind: ArgKind::Global,
            deps: None,
        }
    }
    // No `collect_node_deps`: block nodes only accumulate generation-tagged
    // task-local partials — they never touch the global's value or another
    // generation's partials, so they carry no dependency and the loop
    // pipelines even when consecutive loops share a global.
    fn collect_loop_deps(&self, out: &mut Vec<SharedFuture<()>>) {
        // The finalize-to-finalize edge: merging into the value waits for
        // every *registered* incrementing loop's finalize. A loop whose
        // submission races this one on another thread may register after
        // this collection — the two finalizes are then unordered, which is
        // safe (each merges its own generation atomically under the value
        // lock) but leaves the merge *order* unspecified; see the
        // concurrent-submitter note on [`Global`].
        self.gbl.collect_pending(out);
    }
    fn record_loop_completion(&self, done: &SharedFuture<()>) {
        self.gbl.record_completion(done);
    }
    fn assert_borrowable(&self) {}
    fn add_prefetch(&self, _set: &mut PrefetchSet) {}
    fn mut_target(&self, _elem: usize) -> Option<(u64, usize)> {
        None
    }
}

/// Read-only (broadcast) argument on a [`Global`]; the kernel receives
/// `&[T]` of the current value.
pub struct GblReadArg<T: Reducible> {
    gbl: Global<T>,
}

impl<T: Reducible> Clone for GblReadArg<T> {
    fn clone(&self) -> Self {
        GblReadArg {
            gbl: self.gbl.clone(),
        }
    }
}

// SAFETY: read-only view of a buffer whose writers are ordered before this
// loop via the pending futures collected in `collect_node_deps`.
unsafe impl<T: Reducible> ArgSpec for GblReadArg<T> {
    type View<'e> = &'e [T];
    type TaskLocal = ();
    /// The broadcast value, read (and its lock taken) once per block.
    type Bound<'b> = &'b [T];

    fn check_against(&self, _iter_set: &Set, _loop_name: &str) {}
    fn task_local(&self) {}
    unsafe fn bind(&self) -> &[T] {
        // SAFETY: the value vector is never resized and the argument keeps
        // the global alive; writers are ordered before this block by
        // `collect_node_deps`.
        unsafe { std::slice::from_raw_parts(self.gbl.raw_value_ptr(), self.gbl.dim()) }
    }
    #[inline(always)]
    unsafe fn view<'e>(b: &'e &[T], _elem: usize, _tl: &'e mut ()) -> &'e [T] {
        b
    }
    fn commit(&self, _gen: u64, _chunk_start: usize, _tl: ()) {}
    fn finalize(&self, _gen: u64) {}
    fn info(&self) -> ArgInfo {
        ArgInfo {
            access: Access::Read,
            kind: ArgKind::Global,
            deps: None,
        }
    }
    fn collect_node_deps(&self, out: &mut Vec<SharedFuture<()>>) {
        // A broadcast read samples the value inside the kernel, so every
        // block node must wait for every pending reduction's finalize.
        self.gbl.collect_pending(out);
    }
    fn assert_borrowable(&self) {}
    fn add_prefetch(&self, _set: &mut PrefetchSet) {}
    fn mut_target(&self, _elem: usize) -> Option<(u64, usize)> {
        None
    }
}

// ---------------------------------------------------------------------------
// Constructors (the `op_arg_dat` / `op_arg_gbl` surface)
// ---------------------------------------------------------------------------

/// Direct `OP_READ` argument.
pub fn arg_read<T: OpType>(dat: &Dat<T>) -> DatArg<T, ReadTag> {
    DatArg::new(dat, None)
}

/// Direct `OP_WRITE` argument.
pub fn arg_write<T: OpType>(dat: &Dat<T>) -> DatArg<T, WriteTag> {
    DatArg::new(dat, None)
}

/// Direct `OP_RW` argument.
pub fn arg_rw<T: OpType>(dat: &Dat<T>) -> DatArg<T, RwTag> {
    DatArg::new(dat, None)
}

/// Direct `OP_INC` argument.
pub fn arg_inc<T: OpType>(dat: &Dat<T>) -> DatArg<T, IncTag> {
    DatArg::new(dat, None)
}

/// Indirect `OP_READ` argument through `map` slot `idx`.
pub fn arg_read_via<T: OpType>(dat: &Dat<T>, map: &Map, idx: usize) -> DatArg<T, ReadTag> {
    DatArg::new(dat, Some((map, idx)))
}

/// Indirect `OP_WRITE` argument through `map` slot `idx`.
pub fn arg_write_via<T: OpType>(dat: &Dat<T>, map: &Map, idx: usize) -> DatArg<T, WriteTag> {
    DatArg::new(dat, Some((map, idx)))
}

/// Indirect `OP_RW` argument through `map` slot `idx`.
pub fn arg_rw_via<T: OpType>(dat: &Dat<T>, map: &Map, idx: usize) -> DatArg<T, RwTag> {
    DatArg::new(dat, Some((map, idx)))
}

/// Indirect `OP_INC` argument through `map` slot `idx` — the access that
/// requires plan coloring (paper §II-A: "increment to avoid race
/// conditions due to indirect data access").
pub fn arg_inc_via<T: OpType>(dat: &Dat<T>, map: &Map, idx: usize) -> DatArg<T, IncTag> {
    DatArg::new(dat, Some((map, idx)))
}

/// Global reduction argument (`op_arg_gbl(…, OP_INC)`), e.g. Airfoil's
/// `rms` residual.
pub fn arg_gbl_inc<T: Reducible>(gbl: &Global<T>) -> GblIncArg<T> {
    GblIncArg { gbl: gbl.clone() }
}

/// Global broadcast argument (`op_arg_gbl(…, OP_READ)`).
pub fn arg_gbl_read<T: Reducible>(gbl: &Global<T>) -> GblReadArg<T> {
    GblReadArg { gbl: gbl.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "map slot 2 out of range")]
    fn rejects_bad_map_slot() {
        let edges = Set::new(2, "edges");
        let nodes = Set::new(2, "nodes");
        let m = Map::new(&edges, &nodes, 2, vec![0, 1, 1, 0], "pedge");
        let d = Dat::new(&nodes, 1, "x", vec![0.0f64; 2]);
        let _ = arg_read_via(&d, &m, 2);
    }

    #[test]
    #[should_panic(expected = "targets set")]
    fn rejects_map_to_wrong_set() {
        let edges = Set::new(2, "edges");
        let nodes = Set::new(2, "nodes");
        let cells = Set::new(2, "cells");
        let m = Map::new(&edges, &nodes, 1, vec![0, 1], "pedge");
        let d = Dat::new(&cells, 1, "q", vec![0.0f64; 2]);
        let _ = arg_inc_via(&d, &m, 0);
    }

    #[test]
    fn info_reports_kind_and_access() {
        let cells = Set::new(3, "cells");
        let d = Dat::new(&cells, 2, "q", vec![0.0f64; 6]);
        let info = ArgSpec::info(&arg_write(&d));
        assert_eq!(info.access, Access::Write);
        assert!(matches!(info.kind, ArgKind::Direct));
    }

    #[test]
    fn mut_target_reports_row() {
        let edges = Set::new(2, "edges");
        let cells = Set::new(3, "cells");
        let m = Map::new(&edges, &cells, 2, vec![0, 1, 1, 2], "ecell");
        let d = Dat::new(&cells, 1, "res", vec![0.0f64; 3]);
        let a = arg_inc_via(&d, &m, 1);
        assert_eq!(a.mut_target(0), Some((d.id(), 1)));
        assert_eq!(a.mut_target(1), Some((d.id(), 2)));
        let r = arg_read_via(&d, &m, 0);
        assert_eq!(ArgSpec::mut_target(&r, 0), None);
    }

    // ---- the bind-once executor contract -------------------------------

    use crate::config::Op2Config;
    use crate::world::Op2;

    /// The per-element program both the kernels and the hand-written
    /// reference loops below apply to a mutable row.
    fn mutate(access: Access, e: usize, row: &mut [f64]) {
        for (c, v) in row.iter_mut().enumerate() {
            *v = match access {
                Access::Write => (10 * e + c) as f64 + 0.5,
                Access::Rw => *v * 1.5 - e as f64,
                Access::Inc => *v + 0.25 * e as f64 + c as f64,
                Access::Read => unreachable!("read rows are not mutated"),
            };
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every access mode x direct/indirect x AoS/SoA: a loop through the
    /// bound path (`bind` once per block, `view`/`writeback` per element)
    /// leaves bitwise the rows a hand-written loop over the canonical
    /// row-major data does — including SoA staging + writeback and a map
    /// whose table reaches halo rows beyond the target set.
    #[test]
    fn bound_path_matches_reference_loop_for_every_mode_shape_and_layout() {
        let (n, rows, halo, dim, arity, slot) = (37usize, 29usize, 5usize, 3usize, 2usize, 1usize);
        let table: Vec<u32> = (0..n * arity)
            .map(|i| ((i * 7 + 3) % (rows + halo)) as u32)
            .collect();
        for layout in [Layout::AoS, Layout::SoA] {
            for indirect in [false, true] {
                for access in [Access::Read, Access::Write, Access::Rw, Access::Inc] {
                    let what = format!("{access} indirect={indirect} {layout:?}");
                    let op2 = Op2::new(Op2Config::seq());
                    let iter = op2.decl_set(n, "iter");
                    let ids = op2.decl_dat(&iter, 1, "id", (0..n).map(|e| e as f64).collect());
                    let (set, halo_rows) = if indirect {
                        (op2.decl_set(rows, "rows"), halo)
                    } else {
                        (iter.clone(), 0)
                    };
                    let total = set.size() + halo_rows;
                    let init: Vec<f64> = (0..total * dim).map(|i| i as f64 * 0.37 - 3.0).collect();
                    let d =
                        op2.decl_dat_halo_layout(&set, dim, "d", init.clone(), halo_rows, layout);
                    let m = op2.decl_map_halo(&iter, &set, arity, table.clone(), "m", halo_rows);
                    let target = |e: usize| {
                        if indirect {
                            table[e * arity + slot] as usize
                        } else {
                            e
                        }
                    };
                    let via = indirect.then_some((&m, slot));

                    if access == Access::Read {
                        let out =
                            op2.decl_dat_layout(&iter, dim, "out", vec![0.0; n * dim], layout);
                        op2.loop_("gather", &iter)
                            .arg(DatArg::<f64, ReadTag>::new(&d, via))
                            .arg(arg_write(&out))
                            .run(|row: &[f64], out: &mut [f64]| out.copy_from_slice(row))
                            .wait();
                        let expect: Vec<f64> = (0..n)
                            .flat_map(|e| init[target(e) * dim..][..dim].to_vec())
                            .collect();
                        assert_eq!(bits(&out.snapshot()), bits(&expect), "{what}");
                        assert_eq!(bits(&d.snapshot()), bits(&init), "{what}: source untouched");
                        continue;
                    }

                    macro_rules! run_mut {
                        ($tag:ty) => {
                            op2.loop_("scatter", &iter)
                                .arg(arg_read(&ids))
                                .arg(DatArg::<f64, $tag>::new(&d, via))
                                .run(move |id: &[f64], row: &mut [f64]| {
                                    mutate(access, id[0] as usize, row)
                                })
                                .wait()
                        };
                    }
                    match access {
                        Access::Write => run_mut!(WriteTag),
                        Access::Rw => run_mut!(RwTag),
                        _ => run_mut!(IncTag),
                    }
                    let mut expect = init.clone();
                    for e in 0..n {
                        mutate(access, e, &mut expect[target(e) * dim..][..dim]);
                    }
                    assert_eq!(bits(&d.snapshot()), bits(&expect), "{what}");
                }
            }
        }
    }

    /// Global arguments bind the same way: a broadcast read sees the
    /// current value on every element, a reduction accumulates into the
    /// task-local partial.
    #[test]
    fn global_args_bind_once_per_block() {
        let op2 = Op2::new(Op2Config::seq());
        let cells = op2.decl_set(100, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; 100]);
        let scale = Global::<f64>::sum(2, "scale");
        scale.set(&[3.0, 0.5]);
        let total = Global::<f64>::sum(1, "total");
        op2.loop_("scale", &cells)
            .arg(arg_gbl_read(&scale))
            .arg(arg_rw(&x))
            .arg(arg_gbl_inc(&total))
            .run(|s: &[f64], x: &mut [f64], t: &mut [f64]| {
                x[0] = x[0] * s[0] + s[1];
                t[0] += x[0];
            })
            .wait();
        assert!(x.snapshot().iter().all(|&v| v == 3.5));
        assert_eq!(total.get_scalar(), 350.0);
    }

    /// The bound path keeps the debug aliasing check: an element reaching
    /// one row through two mutable arguments is a mesh bug, not UB.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "aliasing mutable arguments")]
    fn mutable_overlap_is_still_caught_in_debug_builds() {
        let op2 = Op2::new(Op2Config::seq());
        let edges = op2.decl_set(2, "edges");
        let cells = op2.decl_set(3, "cells");
        // Edge 1 is degenerate: both slots reach cell 2.
        let m = op2.decl_map(&edges, &cells, 2, vec![0, 1, 2, 2], "ecell");
        let res = op2.decl_dat(&cells, 1, "res", vec![0.0f64; 3]);
        op2.loop_("res", &edges)
            .arg(arg_inc_via(&res, &m, 0))
            .arg(arg_inc_via(&res, &m, 1))
            .run(|a: &mut [f64], b: &mut [f64]| {
                a[0] += 1.0;
                b[0] += 1.0;
            })
            .wait();
    }
}
