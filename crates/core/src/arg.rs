//! Loop arguments (`op_arg_dat` / `op_arg_gbl`, paper §II-A and Fig 7).
//!
//! An argument couples a [`Dat`] (or [`Global`]) with an access descriptor
//! and, for indirect access, a [`Map`] slot. Access is encoded in the
//! *type* (the [`AccessTag`] parameter) so the kernel receives `&[T]` for
//! `OP_READ` and `&mut [T]` otherwise — the Rust equivalent of OP2's
//! access-mode-checked argument marshalling.
//!
//! So is the argument's **shape** (the [`Shape`] parameter): the row
//! length, the map arity and direct-vs-via. The constructors yield the
//! [`Dyn`] shape, which carries them as run-time values read from the dat
//! and the map; `.row::<D>()` / `.via::<D, AR>()` move them into the type
//! as constants — what the OP2 translator writes into its generated loops
//! (`arg0.map_data[n * 4 + 0]`, `&data[2 * idx]`), and what `op2c` emits
//! from the `.op2` spec's `dim` declarations. Both flavours are the one
//! [`DatArg`]/[`DatBound`]/`ArgSpec` implementation, instantiated.
//!
//! What is resolved when:
//!
//! * **per loop** (submission): the argument is checked against the
//!   iteration set and its shape against the dat and map
//!   ([`ArgSpec::check_against`] — a mismatch is a named panic, never a
//!   wrong stride);
//! * **per block**: base pointer and map table (pre-offset by the slot)
//!   go into plain locals ([`ArgSpec::bind`]);
//! * **per element**: for a shaped argument a map load, a multiply by a
//!   literal and the kernel call; the view is the row itself, at
//!   `base + row * dim` (dats are row-major), with a compile-time length
//!   once `view` is inlined. A [`Dyn`] argument multiplies by its run-time
//!   `dim`/`arity` instead. Neither re-decides direct-vs-via from a
//!   pointer.

use std::sync::Arc;

use hpx_rt::SharedFuture;

use crate::dat::{Dat, DepTable};
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
/// executor guarantees exclusive (direct partitioning or plan coloring) or
/// the block's own reduction partial.
pub unsafe trait ArgSpec: Clone + Send + Sync + 'static {
    /// What the kernel receives per element: `&[T]` or `&mut [T]`.
    type View<'e>
    where
        Self: 'e;
    /// Per-block scratch (a reduction's partial; `()` for the rest).
    type TaskLocal: Send + 'static;
    /// Everything about the argument that does not change from one
    /// element to the next — base pointer, map table and slot —
    /// resolved once per executed block into plain locals, so the element
    /// loop chases no handle (see [`DatBound`]).
    type Bound<'b>
    where
        Self: 'b;

    /// Validates the argument against the loop's iteration set, and its
    /// shape against the dat and map it was built from.
    fn check_against(&self, iter_set: &Set, loop_name: &str);
    /// Creates the per-block scratch.
    fn task_local(&self) -> Self::TaskLocal;
    /// Resolves the loop-invariant state; the executor calls this once per
    /// block, inside the block's task.
    ///
    /// # Safety
    ///
    /// Caller must be a loop executor upholding the plan/coloring
    /// discipline (see `crate::dat` safety model), calling from the
    /// block whose dependencies are satisfied, after
    /// [`ArgSpec::check_against`] passed. The result must not outlive that
    /// block call, be stored, or be sent to another thread.
    unsafe fn bind(&self) -> Self::Bound<'_>;
    /// Builds the kernel view for element `elem`: the row in the storage
    /// itself, or a global's block partial `tl`.
    ///
    /// # Safety
    ///
    /// As [`ArgSpec::bind`]; additionally `elem` must be an element of the
    /// iteration set the argument was checked against, and `tl` must come
    /// from `task_local` of the bound argument.
    unsafe fn view<'e>(
        bound: &'e Self::Bound<'_>,
        elem: usize,
        tl: &'e mut Self::TaskLocal,
    ) -> Self::View<'e>;
    /// Commits per-block scratch (keyed by the owning loop's generation
    /// and the block's start element, so pipelined loops' partials never
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
    /// For the debug aliasing check: `(dat id, target row)` when this
    /// argument yields a mutable view into shared storage.
    fn mut_target(&self, elem: usize) -> Option<(u64, usize)>;
    /// Implicit-communication pre-submission hook: an argument that *reads*
    /// a halo-linked dat through a map schedules the refresh of every
    /// stale pair its rank takes part in (see the dirty-bit protocol in
    /// [`crate::locality`]). Runs before the loop's dependency graph is
    /// built, so the exchange nodes become ordinary predecessors of its
    /// boundary blocks. Default: no-op.
    fn halo_refresh(&self) {}
    /// Implicit-communication pre-submission hook: a *mutating* argument on
    /// a halo-linked dat marks every exporting pair of its ring stale. Called
    /// after [`ArgSpec::halo_refresh`] ran for all of the loop's
    /// arguments. Default: no-op.
    fn halo_mark_dirty(&self) {}
}

// ---------------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------------

mod sealed {
    /// [`super::Shape::dim`] becomes a slice length: only this module's
    /// shapes, whose values `check_against` pins to the dat, may exist.
    pub trait Sealed {}
}

/// Row length, map arity and direct-vs-via of an argument (see the module
/// docs): constants for [`Row`] and [`Via`], run-time values for [`Dyn`].
pub trait Shape: sealed::Sealed + Copy + Send + Sync + 'static {
    /// A `dim`-long buffer in the block's frame — the partial of a global
    /// reduction.
    type Buf<T: OpType>: AsMut<[T]> + Into<Vec<T>> + Send + 'static;
    /// Scalars per row.
    fn dim(self) -> usize;
    /// Entries per source element of the map gone through; 0 = direct.
    fn arity(self) -> usize;
    /// A buffer of `dim` copies of `fill`.
    fn buf<T: OpType>(self, fill: T) -> Self::Buf<T>;
}

/// The shape read from the dat and map when the argument was built.
#[derive(Clone, Copy, Debug)]
pub struct Dyn {
    dim: usize,
    arity: usize,
}

/// `DIM` scalars per row reached through a map of `ARITY` slots, or —
/// `ARITY` 0, see [`Row`] — addressed directly.
#[derive(Clone, Copy, Debug)]
pub struct Via<const DIM: usize, const ARITY: usize>;

/// `DIM` scalars per row, addressed directly (or a `DIM`-long global).
pub type Row<const DIM: usize> = Via<DIM, 0>;

impl sealed::Sealed for Dyn {}
impl Shape for Dyn {
    type Buf<T: OpType> = Vec<T>;
    #[inline(always)]
    fn dim(self) -> usize {
        self.dim
    }
    #[inline(always)]
    fn arity(self) -> usize {
        self.arity
    }
    fn buf<T: OpType>(self, fill: T) -> Vec<T> {
        vec![fill; self.dim]
    }
}

impl<const DIM: usize, const ARITY: usize> sealed::Sealed for Via<DIM, ARITY> {}
impl<const DIM: usize, const ARITY: usize> Shape for Via<DIM, ARITY> {
    type Buf<T: OpType> = [T; DIM];
    #[inline(always)]
    fn dim(self) -> usize {
        DIM
    }
    #[inline(always)]
    fn arity(self) -> usize {
        ARITY
    }
    #[inline(always)]
    fn buf<T: OpType>(self, fill: T) -> [T; DIM] {
        [fill; DIM]
    }
}

// ---------------------------------------------------------------------------
// Dat arguments
// ---------------------------------------------------------------------------

/// Type-level access mode of a [`DatArg`].
pub trait AccessTag: Send + Sync + 'static {
    /// The runtime access descriptor.
    const ACCESS: Access;
    /// What the kernel receives: `&[T]` for `OP_READ`, else `&mut [T]`.
    type View<'e, T: OpType>;
    /// The view over the `len` scalars at `row`.
    ///
    /// # Safety
    ///
    /// `row` must be valid for `'e` for `len` reads and, for a mutable
    /// tag, writes that nothing else observes.
    unsafe fn view<'e, T: OpType>(row: *mut T, len: usize) -> Self::View<'e, T>;
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
    type View<'e, T: OpType> = &'e [T];
    #[inline(always)]
    // SAFETY: callers uphold the trait method's contract, which is
    // `from_raw_parts`' verbatim.
    unsafe fn view<'e, T: OpType>(row: *mut T, len: usize) -> &'e [T] {
        // SAFETY: see above.
        unsafe { std::slice::from_raw_parts(row, len) }
    }
}

macro_rules! impl_mut_tag {
    ($($tag:ty => $access:expr),+) => {$(
        impl AccessTag for $tag {
            const ACCESS: Access = $access;
            type View<'e, T: OpType> = &'e mut [T];
            #[inline(always)]
            // SAFETY: callers uphold the trait method's contract, which is
            // `from_raw_parts_mut`'s verbatim.
            unsafe fn view<'e, T: OpType>(row: *mut T, len: usize) -> &'e mut [T] {
                // SAFETY: see above.
                unsafe { std::slice::from_raw_parts_mut(row, len) }
            }
        }
    )+};
}
impl_mut_tag!(WriteTag => Access::Write, RwTag => Access::Rw, IncTag => Access::Inc);

/// A dat argument with access mode `A` and shape `S` (see module docs).
/// Construct with [`arg_read`], [`arg_inc_via`], etc.; fix the shape with
/// [`DatArg::row`] / [`DatArg::via`].
pub struct DatArg<T: OpType, A: AccessTag, S: Shape = Dyn> {
    dat: Dat<T>,
    map: Option<(Map, usize)>,
    shape: S,
    _access: std::marker::PhantomData<A>,
}

impl<T: OpType, A: AccessTag, S: Shape> Clone for DatArg<T, A, S> {
    fn clone(&self) -> Self {
        DatArg {
            dat: self.dat.clone(),
            map: self.map.clone(),
            shape: self.shape,
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
            shape: Dyn {
                dim: dat.dim(),
                arity: map.map_or(0, |(m, _)| m.dim()),
            },
            _access: std::marker::PhantomData,
        }
    }

    fn shaped<S: Shape>(self, shape: S) -> DatArg<T, A, S> {
        DatArg {
            dat: self.dat,
            map: self.map,
            shape,
            _access: std::marker::PhantomData,
        }
    }

    /// Fixes the shape of a *direct* argument: rows of `DIM` scalars.
    /// Submission panics if the dat's `dim` differs or the argument goes
    /// through a map.
    pub fn row<const DIM: usize>(self) -> DatArg<T, A, Row<DIM>> {
        self.shaped(Via)
    }

    /// Fixes the shape of an *indirect* argument: rows of `DIM` scalars
    /// through a map of `ARITY` slots. Submission panics if the dat's
    /// `dim` or the map's differs, or the argument is direct.
    pub fn via<const DIM: usize, const ARITY: usize>(self) -> DatArg<T, A, Via<DIM, ARITY>> {
        self.shaped(Via)
    }
}

impl<T: OpType, A: AccessTag, S: Shape> DatArg<T, A, S> {
    /// Target row for iteration element `e` (submission-time and debug
    /// paths; the element loop resolves rows through [`DatBound`]).
    fn target(&self, e: usize) -> usize {
        match &self.map {
            None => e,
            Some((m, i)) => m.at(e, *i),
        }
    }

    /// The shape must say what the dat and the map say: the element loop
    /// strides by it unchecked.
    fn check_shape(&self, loop_name: &str) {
        let (dat, dim, arity) = (self.dat.name(), self.shape.dim(), self.shape.arity());
        assert!(
            dim == self.dat.dim(),
            "loop '{loop_name}': arg on dat '{dat}' is shaped for dim {dim}, the dat has dim {}",
            self.dat.dim()
        );
        let found = self.map.as_ref().map_or(0, |(m, _)| m.dim());
        if arity != found {
            let access = |arity: usize| match arity {
                0 => "direct access".to_owned(),
                n => format!("a map of arity {n}"),
            };
            let map = self.map.as_ref().map_or("no map", |(m, _)| m.name());
            panic!(
                "loop '{loop_name}': arg on dat '{dat}' is shaped for {}, it goes through {} ({map})",
                access(arity),
                access(found)
            );
        }
    }
}

/// The loop-invariant half of a [`DatArg`], resolved once per executed
/// block by [`ArgSpec::bind`]: the element loop addresses rows from these
/// plain locals instead of re-walking `DatArg -> Arc<DatInner> -> Vec` and
/// `Map -> Arc<MapInner> -> indices` per element (loads the optimiser
/// cannot hoist itself, because kernels write through raw pointers that
/// may alias those fields). A shaped argument's `dim` and `arity` are not
/// among them: they are constants of `S`.
///
/// Holds raw pointers into the dat's storage and the map's index table:
/// valid only while the argument it was bound from is alive and only
/// under the executor discipline of `crate::dat` — i.e. for the one
/// `block_body` call that bound it, whose closure owns the argument clone.
/// The raw pointers also keep it `!Send`/`!Sync`, so it cannot leave the
/// block's task.
pub struct DatBound<'b, T, S = Dyn> {
    base: *mut T,
    /// Map table pre-offset by the slot; never read when `S::arity()` is 0.
    map: *const u32,
    shape: S,
    _arg: std::marker::PhantomData<&'b ()>,
}

impl<T: OpType, S: Shape> DatBound<'_, T, S> {
    /// Target row of iteration element `e`.
    ///
    /// # Safety
    ///
    /// `e` must be an element of the iteration set the argument was
    /// checked against.
    #[inline(always)]
    unsafe fn target(&self, e: usize) -> usize {
        match self.shape.arity() {
            0 => e,
            // SAFETY: `check_against` pinned the map's source set to the
            // iteration set and its arity to the shape's, and `block_body`
            // asserts its range lies inside that set, so `e * arity + slot`
            // is inside the `from.size() * arity` table `Map::with_halo`
            // validated.
            arity => unsafe { *self.map.add(e * arity) as usize },
        }
    }

    /// Pointer to the `dim` contiguous scalars of element `e`'s row.
    ///
    /// # Safety
    ///
    /// As [`DatBound::target`].
    #[inline(always)]
    unsafe fn row(&self, e: usize) -> *mut T {
        // SAFETY: `target`'s contract is ours; `t < total_rows` — direct
        // rows by the iteration-set match, mapped rows by
        // `Map::with_halo`'s index validation and `DatArg::new`'s
        // `target_rows <= total_rows` check — and `check_against` pinned
        // `shape.dim()` to the dat's, so the row is inside the storage.
        unsafe { self.base.add(self.target(e) * self.shape.dim()) }
    }
}

// SAFETY: read views are shared references, aliasing is harmless; mutable
// views are made exclusive by the executor: direct args are partitioned by
// element, indirect ones serialized by plan coloring, and the debug
// aliasing check guards within-element overlap.
unsafe impl<T: OpType, A: AccessTag, S: Shape> ArgSpec for DatArg<T, A, S> {
    type View<'e> = A::View<'e, T>;
    type TaskLocal = ();
    type Bound<'b> = DatBound<'b, T, S>;

    fn check_against(&self, iter_set: &Set, loop_name: &str) {
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
        self.check_shape(loop_name);
    }
    fn task_local(&self) {}
    // SAFETY: callers uphold `ArgSpec::bind`'s contract; binding itself
    // only computes addresses.
    unsafe fn bind(&self) -> DatBound<'_, T, S> {
        DatBound {
            base: self.dat.ptr(),
            map: match &self.map {
                None => std::ptr::null(),
                // Pre-offset by the slot (`slot < m.dim()` per
                // `DatArg::new`); wrapping because an empty source set has
                // an empty table.
                Some((m, slot)) => m.indices().as_ptr().wrapping_add(*slot),
            },
            shape: self.shape,
            _arg: std::marker::PhantomData,
        }
    }
    #[inline(always)]
    // SAFETY: callers uphold `ArgSpec::view`'s contract, used below.
    unsafe fn view<'e>(b: &'e DatBound<'_, T, S>, elem: usize, _tl: &'e mut ()) -> A::View<'e, T> {
        // SAFETY: executor discipline (trait docs): `elem` is in the set,
        // so `row` heads `dim` scalars of the storage, shared or exclusive
        // as `A` needs per the impl-level comment, that the bound keeps
        // alive for `'e`.
        unsafe { A::view(b.row(elem), b.shape.dim()) }
    }
    fn commit(&self, _gen: u64, _chunk_start: usize, _tl: ()) {}
    fn finalize(&self, _gen: u64) {}
    fn info(&self) -> ArgInfo {
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
    fn assert_borrowable(&self) {
        self.dat.assert_borrowable(A::ACCESS != Access::Read);
    }
    fn mut_target(&self, elem: usize) -> Option<(u64, usize)> {
        (A::ACCESS != Access::Read).then(|| (self.dat.id(), self.target(elem)))
    }
    fn halo_refresh(&self) {
        // OP_READ and OP_RW read their target; OP_WRITE and OP_INC never
        // do, so they need no fresh halo (boundary increments are covered
        // by exec-halo redundant compute). Only an indirect argument can
        // reach halo mirror rows: loops iterate the owned prefix.
        if matches!(A::ACCESS, Access::Read | Access::Rw) && self.map.is_some() {
            if let Some((rank, ring)) = self.dat.halo_ring() {
                ring.refresh_for_read(*rank);
            }
        }
    }
    fn halo_mark_dirty(&self) {
        // Any mutation makes the owned rows (the authoritative copies)
        // newer than the peers' mirrors.
        if A::ACCESS != Access::Read {
            if let Some((_, ring)) = self.dat.halo_ring() {
                ring.mark_all_dirty();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Global arguments
// ---------------------------------------------------------------------------

/// Increment (reduction) argument on a [`Global`]; the kernel receives a
/// `&mut [T]` accumulation buffer that lives in the block's frame — on its
/// stack once [`GblIncArg::row`] fixed the length — is committed once per
/// block and merged deterministically after the loop.
#[derive(Clone)]
pub struct GblIncArg<T: Reducible, S: Shape = Dyn> {
    gbl: Global<T>,
    shape: S,
}

impl<T: Reducible> GblIncArg<T> {
    /// Fixes the global's length: `DIM` scalars. Submission panics if the
    /// global's `dim` differs.
    pub fn row<const DIM: usize>(self) -> GblIncArg<T, Row<DIM>> {
        GblIncArg {
            gbl: self.gbl,
            shape: Via,
        }
    }
}

// SAFETY: views point into the per-block partial — never shared.
unsafe impl<T: Reducible, S: Shape> ArgSpec for GblIncArg<T, S> {
    type View<'e> = &'e mut [T];
    type TaskLocal = S::Buf<T>;
    /// Nothing to resolve: the view is the block's partial itself.
    type Bound<'b> = ();

    fn check_against(&self, _iter_set: &Set, loop_name: &str) {
        assert!(
            self.shape.dim() == self.gbl.dim(),
            "loop '{loop_name}': arg on global '{}' is shaped for dim {}, the global has dim {}",
            self.gbl.name(),
            self.shape.dim(),
            self.gbl.dim()
        );
    }
    fn task_local(&self) -> S::Buf<T> {
        self.shape.buf(self.gbl.identity())
    }
    // SAFETY: binds nothing, so there is nothing for a caller to uphold.
    unsafe fn bind(&self) {}
    #[inline(always)]
    // SAFETY: hands out the caller's own exclusive borrow of `tl`.
    unsafe fn view<'e>(_b: &'e (), _elem: usize, tl: &'e mut S::Buf<T>) -> &'e mut [T] {
        tl.as_mut()
    }
    fn commit(&self, gen: u64, chunk_start: usize, tl: S::Buf<T>) {
        self.gbl.commit(gen, chunk_start, tl.into());
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
    // block-local partials — they never touch the global's value or another
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
    fn mut_target(&self, _elem: usize) -> Option<(u64, usize)> {
        None
    }
}

/// Read-only (broadcast) argument on a [`Global`]; the kernel receives
/// `&[T]` of the current value.
#[derive(Clone)]
pub struct GblReadArg<T: Reducible> {
    gbl: Global<T>,
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
    // SAFETY: callers uphold `ArgSpec::bind`'s contract, used below.
    unsafe fn bind(&self) -> &[T] {
        // SAFETY: the value vector is never resized and the argument keeps
        // the global alive; writers are ordered before this block by
        // `collect_node_deps`.
        unsafe { std::slice::from_raw_parts(self.gbl.raw_value_ptr(), self.gbl.dim()) }
    }
    #[inline(always)]
    // SAFETY: re-borrows the slice `bind` made, under `bind`'s contract.
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
    let shape = Dyn {
        dim: gbl.dim(),
        arity: 0,
    };
    GblIncArg {
        gbl: gbl.clone(),
        shape,
    }
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

    /// Every access mode x direct/indirect x {`Dyn`, shaped}: a loop
    /// through the bound path (`bind` once per block, `view` per element)
    /// leaves bitwise the rows a hand-written loop over the row-major data
    /// does — including a map whose table reaches halo rows beyond the
    /// target set, and bodies where a shaped and a `Dyn` argument meet.
    #[test]
    fn bound_path_matches_reference_loop_for_every_mode_and_shape() {
        const DIM: usize = 3;
        const ARITY: usize = 2;
        let (n, rows, halo, slot) = (37usize, 29usize, 5usize, 1usize);
        let table: Vec<u32> = (0..n * ARITY)
            .map(|i| ((i * 7 + 3) % (rows + halo)) as u32)
            .collect();
        let cases = [false, true]
            .into_iter()
            .flat_map(|indirect| [false, true].map(|shaped| (indirect, shaped)));
        for (indirect, shaped) in cases {
            for access in [Access::Read, Access::Write, Access::Rw, Access::Inc] {
                let what = format!("{access} indirect={indirect} shaped={shaped}");
                let op2 = Op2::new(Op2Config::seq());
                let iter = op2.decl_set(n, "iter");
                let ids =
                    op2.decl_dat(&iter, 1, "id", (0..n).map(|e| e as f64).collect::<Vec<_>>());
                let (set, halo_rows) = if indirect {
                    (op2.decl_set(rows, "rows"), halo)
                } else {
                    (iter.clone(), 0)
                };
                let total = set.size() + halo_rows;
                let init: Vec<f64> = (0..total * DIM).map(|i| i as f64 * 0.37 - 3.0).collect();
                let d = op2.decl_dat_halo(&set, DIM, "d", init.clone(), halo_rows);
                let m = op2.decl_map_halo(&iter, &set, ARITY, table.clone(), "m", halo_rows);
                let target = |e: usize| {
                    if indirect {
                        table[e * ARITY + slot] as usize
                    } else {
                        e
                    }
                };
                let via = indirect.then_some((&m, slot));
                // Submits `$submit` with `$arg` bound to the argument on
                // `d` in the flavour under test.
                macro_rules! with_arg {
                    ($tag:ty, |$arg:ident| $submit:expr) => {{
                        let dynamic = DatArg::<f64, $tag>::new(&d, via);
                        match (shaped, indirect) {
                            (false, _) => {
                                let $arg = dynamic;
                                $submit
                            }
                            (true, false) => {
                                let $arg = dynamic.row::<DIM>();
                                $submit
                            }
                            (true, true) => {
                                let $arg = dynamic.via::<DIM, ARITY>();
                                $submit
                            }
                        }
                    }};
                }

                if access == Access::Read {
                    // `out` stays `Dyn`: with `shaped` both flavours sit
                    // in one element loop.
                    let out = op2.decl_dat(&iter, DIM, "out", vec![0.0; n * DIM]);
                    with_arg!(ReadTag, |arg| op2
                        .loop_("gather", &iter)
                        .arg(arg)
                        .arg(arg_write(&out))
                        .run(|row: &[f64], out: &mut [f64]| out.copy_from_slice(row))
                        .wait());
                    let expect: Vec<f64> = (0..n)
                        .flat_map(|e| init[target(e) * DIM..][..DIM].to_vec())
                        .collect();
                    assert_eq!(bits(&out.snapshot()), bits(&expect), "{what}");
                    assert_eq!(bits(&d.snapshot()), bits(&init), "{what}: source untouched");
                    continue;
                }

                macro_rules! run_mut {
                    ($tag:ty) => {
                        with_arg!($tag, |arg| op2
                            .loop_("scatter", &iter)
                            .arg(arg_read(&ids).row::<1>())
                            .arg(arg)
                            .run(move |id: &[f64], row: &mut [f64]| {
                                mutate(access, id[0] as usize, row)
                            })
                            .wait())
                    };
                }
                match access {
                    Access::Write => run_mut!(WriteTag),
                    Access::Rw => run_mut!(RwTag),
                    _ => run_mut!(IncTag),
                }
                let mut expect = init.clone();
                for e in 0..n {
                    mutate(access, e, &mut expect[target(e) * DIM..][..DIM]);
                }
                assert_eq!(bits(&d.snapshot()), bits(&expect), "{what}");
            }
        }
    }

    /// Global arguments bind the same way: a broadcast read sees the
    /// current value on every element, a reduction accumulates into the
    /// block's partial.
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

        // A shaped reduction's partial is an array in the block's frame:
        // the kernel meets a fresh one once per block, not per element,
        // and every block's is merged exactly once (closed-form sums).
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 6000usize;
        let sum = (n * (n + 1) / 2) as f64;
        let worlds = [
            Op2Config::seq(),
            Op2Config::fork_join(2),
            Op2Config::dataflow(2),
        ];
        for op2 in worlds.map(Op2::new) {
            let backend = op2.config().backend;
            let cells = op2.decl_set(n, "cells");
            let v = op2.decl_dat(
                &cells,
                1,
                "v",
                (1..=n).map(|i| i as f64).collect::<Vec<_>>(),
            );
            let (g1, g3) = (Global::<f64>::sum(1, "g1"), Global::<f64>::sum(3, "g3"));
            let fresh = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&fresh);
            op2.loop_("sums", &cells)
                .arg(arg_read(&v).row::<1>())
                .arg(arg_gbl_inc(&g1).row::<1>())
                .arg(arg_gbl_inc(&g3).row::<3>())
                .run(move |v: &[f64], a: &mut [f64], b: &mut [f64]| {
                    if a[0] == 0.0 {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                    a[0] += v[0];
                    for (c, b) in b.iter_mut().enumerate() {
                        *b += (c + 1) as f64 * v[0];
                    }
                })
                .wait();
            assert_eq!(g1.get(), [sum], "{backend:?}");
            assert_eq!(g3.get(), [sum, 2.0 * sum, 3.0 * sum], "{backend:?}");
            let fresh = fresh.load(Ordering::Relaxed);
            match backend {
                crate::Backend::Seq => assert_eq!(fresh, 1, "Seq runs one block"),
                _ => assert!(
                    (1..=n / 16).contains(&fresh),
                    "{backend:?}: {fresh} partials"
                ),
            }
        }
    }

    // ---- shape mismatches are named at submission ------------------------

    /// Two edges over three cells, `res` of dim 1 through a 2-slot map.
    fn tiny_mesh(op2: &Op2, ecell: Vec<u32>) -> (Set, Map, Dat<f64>) {
        let edges = op2.decl_set(2, "edges");
        let cells = op2.decl_set(3, "cells");
        let m = op2.decl_map(&edges, &cells, 2, ecell, "ecell");
        let res = op2.decl_dat(&cells, 1, "res", vec![0.0f64; 3]);
        (edges, m, res)
    }

    #[test]
    #[should_panic(expected = "loop 'copy': arg on dat 'q' is shaped for dim 3, the dat has dim 4")]
    fn shaped_arg_rejects_a_dat_of_another_dim() {
        let op2 = Op2::new(Op2Config::seq());
        let cells = op2.decl_set(3, "cells");
        let q = op2.decl_dat(&cells, 4, "q", vec![0.0f64; 12]);
        op2.loop_("copy", &cells)
            .arg(arg_rw(&q).row::<3>())
            .run(|_: &mut [f64]| {});
    }

    #[test]
    #[should_panic(
        expected = "loop 'res': arg on dat 'res' is shaped for a map of arity 3, it goes through a map of arity 2 (ecell)"
    )]
    fn shaped_arg_rejects_a_map_of_another_arity() {
        let op2 = Op2::new(Op2Config::seq());
        let (edges, m, res) = tiny_mesh(&op2, vec![0, 1, 1, 2]);
        op2.loop_("res", &edges)
            .arg(arg_inc_via(&res, &m, 0).via::<1, 3>())
            .run(|_: &mut [f64]| {});
    }

    #[test]
    #[should_panic(
        expected = "loop 'res': arg on dat 'res' is shaped for direct access, it goes through a map of arity 2 (ecell)"
    )]
    fn direct_shape_rejects_an_indirect_argument() {
        let op2 = Op2::new(Op2Config::seq());
        let (edges, m, res) = tiny_mesh(&op2, vec![0, 1, 1, 2]);
        op2.loop_("res", &edges)
            .arg(arg_inc_via(&res, &m, 0).row::<1>())
            .run(|_: &mut [f64]| {});
    }

    #[test]
    #[should_panic(expected = "arg on global 'rms' is shaped for dim 2, the global has dim 1")]
    fn shaped_reduction_rejects_a_global_of_another_dim() {
        let op2 = Op2::new(Op2Config::seq());
        let cells = op2.decl_set(3, "cells");
        let rms = Global::<f64>::sum(1, "rms");
        op2.loop_("norm", &cells)
            .arg(arg_gbl_inc(&rms).row::<2>())
            .run(|_: &mut [f64]| {});
    }

    /// The bound path keeps the debug aliasing check: an element reaching
    /// one row through two mutable arguments is a mesh bug, not UB. Edge 1
    /// is degenerate — both slots reach cell 2 — and `res_calc` increments
    /// through both.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "aliasing mutable arguments")]
    fn mutable_overlap_is_still_caught_in_debug_builds() {
        let op2 = Op2::new(Op2Config::seq());
        let (edges, m, res) = tiny_mesh(&op2, vec![0, 1, 2, 2]);
        op2.loop_("res", &edges)
            .arg(arg_inc_via(&res, &m, 0).via::<1, 2>())
            .arg(arg_inc_via(&res, &m, 1))
            .run(|a: &mut [f64], b: &mut [f64]| {
                a[0] += 1.0;
                b[0] += 1.0;
            })
            .wait();
    }
}
