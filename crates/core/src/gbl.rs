//! Globals: loop-carried scalars with reduction semantics
//! (`op_arg_gbl` — e.g. the Airfoil residual `rms`).

use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use hpx_rt::{schedule_after, Runtime, SharedFuture};

use crate::types::OpType;
use crate::world::{CommHooks, Op2};

/// The supported reduction operators for `OP_INC`-style global arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum (`OP_INC`).
    Sum,
    /// Minimum (`OP_MIN`).
    Min,
    /// Maximum (`OP_MAX`).
    Max,
}

/// Scalars usable in global reductions.
pub trait Reducible: OpType + PartialOrd {
    /// The identity element of `op`.
    fn identity(op: ReduceOp) -> Self;
    /// `a ⊕ b` under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_reducible_float {
    ($($t:ty),+) => {$(
        impl Reducible for $t {
            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Min => <$t>::INFINITY,
                    ReduceOp::Max => <$t>::NEG_INFINITY,
                }
            }
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Min => if b < a { b } else { a },
                    ReduceOp::Max => if b > a { b } else { a },
                }
            }
        }
    )+};
}
impl_reducible_float!(f32, f64);

macro_rules! impl_reducible_int {
    ($($t:ty),+) => {$(
        impl Reducible for $t {
            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0,
                    ReduceOp::Min => <$t>::MAX,
                    ReduceOp::Max => <$t>::MIN,
                }
            }
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }
        }
    )+};
}
impl_reducible_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

pub(crate) struct GlobalInner<T> {
    pub dim: usize,
    pub op: ReduceOp,
    pub name: String,
    value: Mutex<Vec<T>>,
    /// Per-loop partials keyed by (loop generation, chunk start), merged
    /// deterministically per generation. The generation tag lets a
    /// successor loop's block nodes commit concurrently with the
    /// predecessor's finalize (block-granular pipelining): finalize only
    /// drains its own generation's entries.
    partials: Mutex<Vec<(u64, usize, Vec<T>)>>,
    /// Completion futures of **every** outstanding loop that increments
    /// this global — a drained wait-set, not a single slot. Two loops
    /// submitted concurrently (e.g. on sibling ranks of a
    /// [`crate::locality::LocalityGroup`] sharing one `Global`) both
    /// register here; readers wait the whole set, so no finalize can be
    /// missed. Asynchronous snapshot nodes ([`Global::reduce_async`] /
    /// the allreduce contributions) register too, so `reset`/`set` and
    /// later incrementing loops order after in-flight reads. Completed
    /// entries are pruned on registration and on every wait, keeping the
    /// set O(in-flight).
    pending: Mutex<Vec<SharedFuture<()>>>,
}

/// A global value of `dim` scalars participating in reductions. Cheap to
/// clone; clones alias the same state.
///
/// Protocol per loop iteration step (matching OP2's `op_arg_gbl`): call
/// [`Global::reset`], run the loop with [`crate::arg_gbl_inc`], then
/// [`Global::get`] — which, under the dataflow backend, waits for **every
/// outstanding incrementing loop's** completion future (the drained
/// wait-set above), not merely the most recently submitted one. A global
/// may therefore be incremented by any number of concurrently-submitted
/// loops — including loops on different ranks of a locality group — and
/// `get`/`reset`/`set` still observe a fully-finalized value.
///
/// **Ordering among concurrent submitters.** Registration happens before
/// a submission returns, so a reader that joins its submitter threads
/// first always waits every loop — values are never partially finalized.
/// What stays unspecified is the *relative merge order* of loops whose
/// submissions raced each other (each finalize merges its own
/// generation's partials atomically under the value lock): integer and
/// min/max reductions are exact regardless, but a shared `f64` sum is
/// reproducible only up to that merge order. Submit sequentially — or
/// keep per-rank globals and combine with [`LocalityGroup::allreduce`]'s
/// fixed-shape tree — where bitwise reproducibility matters.
///
/// For reading the value *without* blocking the submitting thread, use
/// [`Global::reduce_async`] (or, for per-rank globals of a locality
/// group, [`LocalityGroup::allreduce`]): the reduced value becomes a
/// [`ReducedFuture`] that dependent work chains off. A global shared by
/// several ranks of an all-local group is read with `reduce_async` on any
/// of them: its wait-set already holds every rank's loops.
///
/// [`LocalityGroup::allreduce`]: crate::locality::LocalityGroup::allreduce
pub struct Global<T: Reducible> {
    inner: Arc<GlobalInner<T>>,
}

impl<T: Reducible> Clone for Global<T> {
    fn clone(&self) -> Self {
        Global {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Reducible> Global<T> {
    /// A new global of `dim` scalars reduced with `op`, initialized to the
    /// identity.
    pub fn new(dim: usize, op: ReduceOp, name: &str) -> Self {
        assert!(dim > 0, "global '{name}': dim must be positive");
        Global {
            inner: Arc::new(GlobalInner {
                dim,
                op,
                name: name.to_owned(),
                value: Mutex::new([T::identity(op)].repeat(dim)),
                partials: Mutex::new(Vec::new()),
                pending: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Sum-reduction global (the common `OP_INC` case).
    pub fn sum(dim: usize, name: &str) -> Self {
        Self::new(dim, ReduceOp::Sum, name)
    }

    /// Scalars per element.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Declared name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Declared reduction operator.
    pub fn op(&self) -> ReduceOp {
        self.inner.op
    }

    /// Resets the value to the reduction identity (waits for every
    /// outstanding incrementing loop first so no in-flight reduction is
    /// clobbered).
    pub fn reset(&self) {
        self.wait_pending();
        let mut v = self.inner.value.lock();
        v.iter_mut().for_each(|x| *x = T::identity(self.inner.op));
        self.inner.partials.lock().clear();
    }

    /// Overwrites the value (waits for every outstanding incrementing
    /// loop first).
    pub fn set(&self, values: &[T]) {
        assert_eq!(
            values.len(),
            self.inner.dim,
            "global '{}': dim mismatch",
            self.inner.name
        );
        self.wait_pending();
        self.inner.value.lock().copy_from_slice(values);
    }

    /// Waits for **every** outstanding incrementing loop (the drained
    /// wait-set — see the type docs), then returns the reduced value.
    pub fn get(&self) -> Vec<T> {
        self.wait_pending();
        self.inner.value.lock().clone()
    }

    /// Scalar convenience for `dim == 1` globals.
    pub fn get_scalar(&self) -> T {
        self.get()[0]
    }

    /// Waits every completion future registered before this call, then
    /// drains the completed entries. Loops registered concurrently with
    /// the wait are not covered — as with any `Global` read, the caller
    /// orders its own submissions against its reads.
    fn wait_pending(&self) {
        let snapshot: Vec<SharedFuture<()>> = self.inner.pending.lock().clone();
        for f in &snapshot {
            f.wait();
        }
        if !snapshot.is_empty() {
            self.inner.pending.lock().retain(|f| !f.is_ready());
        }
    }

    // ---- executor protocol ----------------------------------------------

    /// What a fresh accumulation buffer is filled with.
    pub(crate) fn identity(&self) -> T {
        T::identity(self.inner.op)
    }

    /// Commits one chunk's partial, keyed by the owning loop's generation
    /// and the chunk start for deterministic merging.
    pub(crate) fn commit(&self, gen: u64, chunk_start: usize, partial: Vec<T>) {
        self.inner.partials.lock().push((gen, chunk_start, partial));
    }

    /// Merges generation `gen`'s partials into the value in chunk order
    /// (so float reductions are reproducible for a fixed chunk plan).
    /// Other generations' entries — a pipelined successor's partials
    /// committed early — are left untouched for their own finalize.
    pub(crate) fn finalize(&self, gen: u64) {
        let mut mine = Vec::new();
        {
            let mut partials = self.inner.partials.lock();
            let mut i = 0;
            while i < partials.len() {
                if partials[i].0 == gen {
                    mine.push(partials.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        mine.sort_unstable_by_key(|(_, s, _)| *s);
        let mut value = self.inner.value.lock();
        for (_, _, p) in mine {
            for (v, x) in value.iter_mut().zip(p) {
                *v = T::combine(self.inner.op, *v, x);
            }
        }
    }

    /// Adds the owning loop's completion future to the wait-set. Completed
    /// entries are pruned first, so the set stays O(in-flight loops) over
    /// arbitrarily long runs.
    pub(crate) fn record_completion(&self, done: &SharedFuture<()>) {
        let mut p = self.inner.pending.lock();
        p.retain(|f| !f.is_ready());
        p.push(done.clone());
    }

    /// Appends every outstanding incrementing loop's completion future to
    /// `out` (pruning completed entries on the way) — the dependency set a
    /// consumer must order itself after.
    pub(crate) fn collect_pending(&self, out: &mut Vec<SharedFuture<()>>) {
        let mut p = self.inner.pending.lock();
        p.retain(|f| !f.is_ready());
        out.extend(p.iter().cloned());
    }

    /// Snapshot of the outstanding completion futures.
    pub(crate) fn pending_snapshot(&self) -> Vec<SharedFuture<()>> {
        let mut out = Vec::new();
        self.collect_pending(&mut out);
        out
    }

    /// Number of outstanding (unpruned) wait-set entries — test hook for
    /// the O(in-flight) bound.
    #[cfg(test)]
    fn pending_len(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// Current value snapshot without waiting (internal; used by reduce
    /// nodes and read args whose ordering is enforced through `pending`).
    pub(crate) fn value_snapshot(&self) -> Vec<T> {
        self.inner.value.lock().clone()
    }

    /// Current value pointer without waiting (internal; used by read args
    /// whose ordering is enforced through `pending`).
    pub(crate) fn raw_value_ptr(&self) -> *const T {
        self.inner.value.lock().as_ptr()
    }

    // ---- asynchronous reads ---------------------------------------------

    /// Schedules an **asynchronous read** of this global: a dataflow node
    /// gated on every outstanding incrementing loop snapshots the fully
    /// finalized value into a [`ReducedFuture`], and the submitting thread
    /// returns immediately. This is the paper's Fig 9 discipline for
    /// reductions — the result is a future that dependent work (residual
    /// printing, convergence checks) chains off via [`ReducedFuture::then`]
    /// instead of a blocking [`Global::get`] in the hot loop.
    ///
    /// The node is tracked by `op2`'s [`Op2::fence`], so a fence makes the
    /// future ready.
    pub fn reduce_async(&self, op2: &Op2) -> ReducedFuture<T> {
        let (rt, hooks) = (op2.runtime_arc(), op2.comm_hooks());
        hpx_rt::static_counter!("op2.reduce.async_reads").fetch_add(1, Ordering::Relaxed);
        let deps = self.pending_snapshot();
        let (value, done) = if deps.iter().all(SharedFuture::has_value) {
            // Nothing to order after (every Seq and fork-join read): the
            // snapshot is taken here and no task is made for it.
            let value = hpx_rt::ready(self.value_snapshot());
            (value, hpx_rt::ready(()))
        } else {
            let (promise, value) = hpx_rt::channel();
            let gbl = self.clone();
            let done = schedule_after(&rt, &deps, move || promise.set_value(gbl.value_snapshot()));
            (value, done)
        };
        // The snapshot node joins the wait-set: a subsequent
        // `reset`/`set`/incrementing loop orders *after* this read and
        // cannot clobber (or leak into) the value it will observe.
        self.record_completion(&done);
        hooks.track(done.clone());
        ReducedFuture::from_parts(value, done, rt, hooks)
    }
}

impl<T: Reducible> std::fmt::Debug for Global<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Global")
            .field("name", &self.inner.name)
            .field("dim", &self.inner.dim)
            .field("op", &self.inner.op)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// ReducedFuture
// ---------------------------------------------------------------------------

/// The future-valued result of an asynchronous reduction read
/// ([`Global::reduce_async`], `LocalityGroup::allreduce`): the reduced
/// vector becomes available once every contributing loop has finalized,
/// and consumers either block *outside* the hot loop
/// ([`ReducedFuture::get`]) or chain continuations ([`ReducedFuture::then`]
/// / [`ReducedFuture::then_after`]) so the solve pipeline never meets a
/// host-side barrier.
///
/// Cheap to clone; clones alias the same result.
pub struct ReducedFuture<T: Reducible> {
    value: SharedFuture<Vec<T>>,
    /// Completion of the producing node graph. Invariant: by the time
    /// `done` is ready, `value` is fulfilled (the final contribution runs
    /// inside a node `done` joins).
    done: SharedFuture<()>,
    rt: Arc<Runtime>,
    hooks: CommHooks,
}

impl<T: Reducible> Clone for ReducedFuture<T> {
    fn clone(&self) -> Self {
        ReducedFuture {
            value: self.value.clone(),
            done: self.done.clone(),
            rt: Arc::clone(&self.rt),
            hooks: self.hooks.clone(),
        }
    }
}

impl<T: Reducible> ReducedFuture<T> {
    pub(crate) fn from_parts(
        value: SharedFuture<Vec<T>>,
        done: SharedFuture<()>,
        rt: Arc<Runtime>,
        hooks: CommHooks,
    ) -> Self {
        ReducedFuture {
            value,
            done,
            rt,
            hooks,
        }
    }

    /// True once the reduced value is available.
    pub fn is_ready(&self) -> bool {
        self.value.is_ready()
    }

    /// Blocks until the reduction (and its producing nodes) completed.
    /// Workers help-execute while waiting.
    ///
    /// A call that actually has to block is counted under
    /// `op2.reduce.blocking_reads` — the counter that proves (or
    /// disproves) a time loop's "zero blocking residual reads" claim.
    pub fn wait(&self) {
        if !self.done.is_ready() {
            hpx_rt::static_counter!("op2.reduce.blocking_reads").fetch_add(1, Ordering::Relaxed);
        }
        self.done.wait();
    }

    /// Blocks until available, then returns the reduced vector
    /// (re-panicking if a contributing loop panicked). Call this *after*
    /// the solve loop — inside it, chain [`ReducedFuture::then`] instead.
    /// Like [`ReducedFuture::wait`], a call that finds the value not yet
    /// ready counts under `op2.reduce.blocking_reads`.
    pub fn get(&self) -> Vec<T> {
        if !self.value.is_ready() {
            hpx_rt::static_counter!("op2.reduce.blocking_reads").fetch_add(1, Ordering::Relaxed);
        }
        self.value.get()
    }

    /// Scalar convenience for `dim == 1` reductions.
    pub fn get_scalar(&self) -> T {
        self.get()[0]
    }

    /// The completion future of the reduction — usable as an explicit
    /// dependency for hand-built dataflow nodes.
    pub fn done(&self) -> SharedFuture<()> {
        self.done.clone()
    }

    /// Schedules `f(value)` on the runtime once the reduction completes —
    /// the non-blocking substitute for a `get` in the hot loop. The
    /// continuation node is tracked for the owning context's fence;
    /// returns its completion future.
    pub fn then<F>(&self, f: F) -> SharedFuture<()>
    where
        F: FnOnce(Vec<T>) + Send + 'static,
    {
        self.then_after(&[], f)
    }

    /// [`ReducedFuture::then`] gated on additional dependencies — e.g. the
    /// previous iteration's print node, so residual lines appear in order
    /// without ever blocking the submitting thread.
    pub fn then_after<F>(&self, after: &[SharedFuture<()>], f: F) -> SharedFuture<()>
    where
        F: FnOnce(Vec<T>) + Send + 'static,
    {
        // `value` is fulfilled before `done` (struct invariant), so the
        // `get`s below never block.
        let node = if self.done.has_value() && after.iter().all(SharedFuture::has_value) {
            // Nothing to wait for: `f` runs here, not as a task.
            f(self.value.get());
            hpx_rt::ready(())
        } else {
            let deps: Vec<_> = std::iter::once(&self.done).chain(after).cloned().collect();
            let value = self.value.clone();
            schedule_after(&self.rt, &deps, move || f(value.get()))
        };
        self.hooks.track(node.clone());
        node
    }
}

impl<T: Reducible> std::fmt::Debug for ReducedFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReducedFuture")
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_reduction_merges_in_chunk_order() {
        let g = Global::<f64>::sum(1, "rms");
        g.commit(7, 100, vec![2.0]);
        g.commit(7, 0, vec![1.0]);
        g.commit(7, 200, vec![3.0]);
        g.finalize(7);
        assert_eq!(g.get_scalar(), 6.0);
    }

    #[test]
    fn reset_restores_identity() {
        let g = Global::<f64>::sum(2, "r");
        g.commit(1, 0, vec![1.0, 2.0]);
        g.finalize(1);
        assert_eq!(g.get(), vec![1.0, 2.0]);
        g.reset();
        assert_eq!(g.get(), vec![0.0, 0.0]);
    }

    #[test]
    fn finalize_only_drains_its_own_generation() {
        // A pipelined successor loop (gen 2) may commit partials before
        // the predecessor (gen 1) finalizes; gen 1's finalize must not
        // steal them.
        let g = Global::<f64>::sum(1, "rms");
        g.commit(1, 0, vec![1.0]);
        g.commit(2, 0, vec![10.0]);
        g.finalize(1);
        assert_eq!(g.get_scalar(), 1.0);
        g.finalize(2);
        assert_eq!(g.get_scalar(), 11.0);
    }

    #[test]
    fn min_max_identities() {
        assert_eq!(f64::identity(ReduceOp::Min), f64::INFINITY);
        assert_eq!(i32::identity(ReduceOp::Max), i32::MIN);
        assert_eq!(f64::combine(ReduceOp::Min, 1.0, -2.0), -2.0);
        assert_eq!(u32::combine(ReduceOp::Max, 1, 7), 7);
    }

    #[test]
    fn set_and_get() {
        let g = Global::<i64>::new(3, ReduceOp::Sum, "v");
        g.set(&[1, 2, 3]);
        assert_eq!(g.get(), vec![1, 2, 3]);
    }

    #[test]
    fn finalize_with_zero_partials_keeps_the_value() {
        // An empty-set loop commits no partials; its finalize must be a
        // well-defined no-op, not a surprise.
        let g = Global::<f64>::sum(2, "r");
        g.commit(1, 0, vec![1.0, 2.0]);
        g.finalize(1);
        g.finalize(2); // zero partials for gen 2
        assert_eq!(g.get(), vec![1.0, 2.0]);
    }

    /// The wait-set regression (ISSUE 5 tentpole): with the old
    /// single-slot `pending`, registering a second (already complete)
    /// incrementing loop *overwrote* the first loop's still-running
    /// completion future, so `get()` returned a partially-finalized value.
    /// Deterministic exposure: loop 1 is held hostage on an event, loop 2
    /// completes immediately — `get()` must still see both.
    #[test]
    fn get_waits_every_outstanding_loop_not_just_the_latest() {
        use hpx_rt::lco::Event;

        let rt = Runtime::new(2);
        let g = Global::<f64>::sum(1, "rms");
        let gate = Arc::new(Event::new());

        // Loop 1: partial committed, finalize hostage on the gate.
        g.commit(1, 0, vec![1.0]);
        let g1 = g.clone();
        let gate1 = Arc::clone(&gate);
        let f1 = hpx_rt::dataflow(
            &rt,
            move |()| {
                gate1.wait();
                g1.finalize(1);
            },
            (),
        );
        g.record_completion(&f1);

        // Loop 2: complete before registration — the single-slot bug
        // dropped f1 here and `get()` observed only this loop's merge.
        g.commit(2, 0, vec![10.0]);
        g.finalize(2);
        g.record_completion(&hpx_rt::ready(()));

        let g2 = g.clone();
        let reader = std::thread::spawn(move || g2.get_scalar());
        // Loop 1 is provably still hostage while the reader runs.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!f1.is_ready(), "hostage loop completed early");
        gate.set();
        assert_eq!(
            reader.join().expect("reader thread"),
            11.0,
            "get() missed a still-running incrementing loop's finalize"
        );
    }

    /// Seq is one thread: a reduction read with nothing outstanding takes
    /// its snapshot where it is submitted, and so does a continuation on
    /// it — no task, hence no worker woken per iteration.
    #[test]
    fn a_seq_world_reads_its_reductions_without_a_task() {
        use crate::args::{gbl_inc, read};
        use crate::Op2Config;

        let op2 = Op2::new(Op2Config::seq());
        let cells = op2.decl_set(64, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; 64]);
        let rms = Global::<f64>::sum(1, "rms");
        let reads = hpx_rt::static_counter!("op2.reduce.async_reads");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let run = |iters: usize| {
            let before = reads.load(Ordering::Relaxed);
            let mut printed = hpx_rt::ready(());
            for _ in 0..iters {
                rms.reset();
                op2.loop_("norm", &cells)
                    .arg(read(&x))
                    .arg(gbl_inc(&rms))
                    .run(|x: &[f64], acc: &mut [f64]| acc[0] += x[0]);
                let red = rms.reduce_async(&op2);
                assert!(red.is_ready());
                let seen = Arc::clone(&seen);
                printed = red.then_after(&[printed], move |v| seen.lock().push(v[0]));
                assert!(printed.has_value());
            }
            op2.fence();
            assert!(reads.load(Ordering::Relaxed) - before >= iters as u64);
            op2.runtime().stats()
        };
        let first = run(100);
        assert_eq!(first.tasks_executed, 0, "{first}");
        assert_eq!(*seen.lock(), vec![64.0; 100]);
        // Whatever the idle worker's park timeouts added meanwhile, it is
        // not one per iteration.
        let more = run(2000);
        assert_eq!(more.tasks_executed, 0, "{more}");
        assert!(more.parks - first.parks < 1000, "{first} -> {more}");
    }

    #[test]
    fn wait_set_stays_bounded_by_in_flight_loops() {
        // Completed futures are pruned on registration, so a long solver
        // run never accumulates one entry per past loop.
        let g = Global::<i64>::sum(1, "r");
        for _ in 0..1000 {
            g.record_completion(&hpx_rt::ready(()));
        }
        assert!(
            g.pending_len() <= 1,
            "wait-set grew to {} entries despite pruning",
            g.pending_len()
        );
        g.get(); // drains the remainder
        assert_eq!(g.pending_len(), 0);
    }

    #[test]
    fn collect_pending_reports_all_outstanding() {
        let rt = Runtime::new(1);
        let g = Global::<i64>::sum(1, "r");
        let gate = Arc::new(hpx_rt::lco::Event::new());
        let futs: Vec<SharedFuture<()>> = (0..3)
            .map(|_| {
                let gate = Arc::clone(&gate);
                hpx_rt::dataflow(&rt, move |()| gate.wait(), ())
            })
            .collect();
        for f in &futs {
            g.record_completion(f);
        }
        let mut out = Vec::new();
        g.collect_pending(&mut out);
        assert_eq!(out.len(), 3, "every outstanding loop must be reported");
        gate.set();
        g.get();
        assert_eq!(g.pending_len(), 0);
    }
}
