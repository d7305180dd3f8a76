//! The parallel-loop surface (paper §II-B / §IV): one arity-free builder.
//!
//! [`Op2::loop_`] opens a [`ParLoop`] builder; each [`ParLoop::arg`] call
//! appends one access-described argument (growing the argument tuple in
//! the builder's *type*, so the kernel signature stays fully checked); and
//! [`ParLoop::run`] submits the loop:
//!
//! ```
//! use op2_core::args::{read, write};
//! use op2_core::{Op2, Op2Config};
//!
//! let op2 = Op2::new(Op2Config::dataflow(2));
//! let cells = op2.decl_set(100, "cells");
//! let q = op2.decl_dat(&cells, 1, "q", vec![1.0f64; 100]);
//! let qold = op2.decl_dat(&cells, 1, "qold", vec![0.0f64; 100]);
//! op2.loop_("save_soln", &cells)
//!     .arg(read(&q))
//!     .arg(write(&qold))
//!     .run(|q: &[f64], qold: &mut [f64]| qold.copy_from_slice(q))
//!     .wait();
//! assert_eq!(qold.snapshot(), vec![1.0; 100]);
//! ```
//!
//! The kernel receives `&[T]` for reads and `&mut [T]` for writes and
//! increments — the code the OP2 translator would generate by hand,
//! expressed once per arity *internally* (the macro below) but behind a
//! single user-visible entry point. The [`par_loop!`] macro offers the
//! same surface in one expression. (The pre-v2 `par_loop1..par_loop10`
//! free functions are gone; the builder is the only loop surface.)
//!
//! What `run` resolves when (the argument side is in [`crate::arg`]):
//!
//! * **per loop**: the arguments are checked against the iteration set and
//!   their shapes against their dats and maps, and the prefetch tables are
//!   registered; the block body below is built once and handed to the
//!   driver;
//! * **per block**: every argument binds its base pointer and map table
//!   into locals, the range is checked against the set, and `block_body`
//!   runs the one element loop (its prefetch branch hoisted);
//! * **per element**: one view per argument and the kernel call — for
//!   shaped arguments a map load and a multiply by a literal each, with
//!   slice lengths the compiler knows. A dat view is the row in storage
//!   (dats are row-major), so no row is copied.
//!
//! Under the [`Dataflow`](crate::Backend::Dataflow) backend `run` returns
//! immediately; the returned [`LoopHandle`] wraps the loop's completion
//! future, and the arguments' dats remember it so later loops depending on
//! the same data chain automatically (loop interleaving, paper Figs 9-11).
//! Submission also drives the implicit-communication hooks: arguments
//! reading stale halo imports of a [`crate::locality::link_halo`]-linked
//! dat schedule their refresh exchanges first, and mutating arguments mark
//! the dat's exported halos stale (see [`crate::locality`]).

use std::ops::Range;
use std::sync::Arc;

use hpx_rt::PrefetchSet;

use crate::arg::ArgSpec;
use crate::config::Backend;
use crate::driver::{drive, LoopHandle, LoopSpec};
use crate::set::Set;
use crate::types::next_loop_gen;
use crate::world::Op2;

/// An in-construction parallel loop: the iteration set, the kernel name
/// (diagnostics + plan/spec caching) and the argument tuple accumulated so
/// far in the type parameter. See the module docs.
#[must_use = "a ParLoop does nothing until .run(kernel) is called"]
pub struct ParLoop<'w, Args> {
    world: &'w Op2,
    name: Arc<str>,
    set: Set,
    args: Args,
}

impl Op2 {
    /// Opens the arity-free loop builder over `set`; `name` identifies the
    /// kernel for diagnostics, per-loop statistics and the loop-spec
    /// cache. (Named `loop_` because `loop` is a Rust keyword.)
    pub fn loop_(&self, name: &str, set: &Set) -> ParLoop<'_, ()> {
        ParLoop {
            world: self,
            name: Arc::from(name),
            set: set.clone(),
            args: (),
        }
    }
}

/// Generates `ParLoop::arg` for one accumulated arity (tuple of the given
/// type/value idents → tuple with one more argument appended).
macro_rules! builder_step {
    ( $(($A:ident, $a:ident)),* ) => {
        impl<'w, $($A: ArgSpec),*> ParLoop<'w, ($($A,)*)> {
            /// Appends one access-described argument (`op_arg_dat` /
            /// `op_arg_gbl`); the kernel later receives one view per
            /// argument, in append order.
            pub fn arg<Next: ArgSpec>(self, arg: Next) -> ParLoop<'w, ($($A,)* Next,)> {
                let ($($a,)*) = self.args;
                ParLoop {
                    world: self.world,
                    name: self.name,
                    set: self.set,
                    args: ($($a,)* arg,),
                }
            }
        }
    };
}

builder_step!();
builder_step!((A0, a0));
builder_step!((A0, a0), (A1, a1));
builder_step!((A0, a0), (A1, a1), (A2, a2));
builder_step!((A0, a0), (A1, a1), (A2, a2), (A3, a3));
builder_step!((A0, a0), (A1, a1), (A2, a2), (A3, a3), (A4, a4));
builder_step!((A0, a0), (A1, a1), (A2, a2), (A3, a3), (A4, a4), (A5, a5));
builder_step!(
    (A0, a0),
    (A1, a1),
    (A2, a2),
    (A3, a3),
    (A4, a4),
    (A5, a5),
    (A6, a6)
);
builder_step!(
    (A0, a0),
    (A1, a1),
    (A2, a2),
    (A3, a3),
    (A4, a4),
    (A5, a5),
    (A6, a6),
    (A7, a7)
);
builder_step!(
    (A0, a0),
    (A1, a1),
    (A2, a2),
    (A3, a3),
    (A4, a4),
    (A5, a5),
    (A6, a6),
    (A7, a7),
    (A8, a8)
);

/// Submits the loop described by `op2.loop_(name, set)` plus the given
/// argument expressions in one expression — sugar over the [`ParLoop`]
/// builder with the same type checking:
///
/// ```
/// use op2_core::args::{read, write};
/// use op2_core::{par_loop, Op2, Op2Config};
///
/// let op2 = Op2::new(Op2Config::seq());
/// let cells = op2.decl_set(4, "cells");
/// let a = op2.decl_dat(&cells, 1, "a", vec![2.0f64; 4]);
/// let b = op2.decl_dat(&cells, 1, "b", vec![0.0f64; 4]);
/// par_loop!(op2, "copy", &cells, [read(&a), write(&b)],
///     |a: &[f64], b: &mut [f64]| b[0] = a[0])
/// .wait();
/// assert_eq!(b.snapshot(), vec![2.0; 4]);
/// ```
#[macro_export]
macro_rules! par_loop {
    ($op2:expr, $name:expr, $set:expr, [$($arg:expr),+ $(,)?], $kernel:expr $(,)?) => {
        $op2.loop_($name, $set)$(.arg($arg))+.run($kernel)
    };
}

macro_rules! gen_par_loop {
    ( $( $A:ident / $a:ident / $idx:tt ),+ ) => {
        impl<'w, $($A: ArgSpec,)+> ParLoop<'w, ($($A,)+)> {
            /// Submits the loop, applying `kernel` to every element of the
            /// iteration set with the accumulated arguments' views; see
            /// the module docs.
            pub fn run<K>(self, kernel: K) -> LoopHandle
            where
                K: for<'e> Fn($(<$A as ArgSpec>::View<'e>),+) + Send + Sync + 'static,
            {
                /// One element: its views and the kernel call, inlined
                /// into both arms of `elements` so the kernel is compiled
                /// into the loop body (left to the optimiser, a closure
                /// called from two loops was not always inlined).
                ///
                /// # Safety
                ///
                /// As `elements`, for an element `e` of `r`.
                #[inline(always)]
                unsafe fn element<$($A: ArgSpec,)+ K>(
                    e: usize,
                    args: &($($A,)+),
                    bound: &($(<$A as ArgSpec>::Bound<'_>,)+),
                    tls: &mut ($(<$A as ArgSpec>::TaskLocal,)+),
                    kernel: &K,
                ) where
                    K: for<'e> Fn($(<$A as ArgSpec>::View<'e>),+),
                {
                    if cfg!(debug_assertions) {
                        let targets = [$( args.$idx.mut_target(e) ),+];
                        crate::diag::check_mut_overlap(&targets, e);
                    }
                    // SAFETY: the caller's contract is `view`'s.
                    unsafe { kernel($( $A::view(&bound.$idx, e, &mut tls.$idx) ),+) }
                }

                /// The element loop, written once: views alias the storage
                /// (a global reduction's, its block partial in `tls`).
                ///
                /// # Safety
                ///
                /// Executor only: `bound` bound from `args` inside the
                /// block `r`, `r` inside the iteration set, and `tls` made
                /// by `task_local`.
                unsafe fn elements<$($A: ArgSpec,)+ K>(
                    r: Range<usize>,
                    args: &($($A,)+),
                    bound: &($(<$A as ArgSpec>::Bound<'_>,)+),
                    tls: &mut ($(<$A as ArgSpec>::TaskLocal,)+),
                    kernel: &K,
                    prefetch: Option<&(PrefetchSet, usize)>,
                ) where
                    K: for<'e> Fn($(<$A as ArgSpec>::View<'e>),+),
                {
                    // The prefetch branch is hoisted out of the element
                    // loop so the common (no-prefetch) path stays tight.
                    match prefetch {
                        // SAFETY: every `e` is in `r`; the rest is this
                        // function's contract.
                        None => r.for_each(|e| unsafe { element(e, args, bound, tls, kernel) }),
                        Some((ps, d)) => r.for_each(|e| {
                            ps.prefetch(e + *d);
                            // SAFETY: as above.
                            unsafe { element(e, args, bound, tls, kernel) }
                        }),
                    }
                }

                let ParLoop { world, name, set, args } = self;
                let ($($a,)+) = args;
                $(
                    $a.check_against(&set, &name);
                    $a.assert_borrowable();
                )+
                // Implicit communication (see `crate::locality`): reads of
                // stale halo imports schedule their refresh exchanges
                // before the loop's dependency graph is built (so boundary
                // blocks gate on the receives); mutations then mark the
                // exported halos stale for later consumers.
                $( $a.halo_refresh(); )+
                $( $a.halo_mark_dirty(); )+
                let infos = vec![$( ArgSpec::info(&$a) ),+];
                let gen = next_loop_gen();
                let is_dataflow = world.config().backend == Backend::Dataflow;

                // Global arguments' dependencies, collected once per loop;
                // dat dependencies are the driver's business (it resolves
                // them from `infos`, per node under dataflow).
                let mut node_deps = Vec::new();
                let mut loop_deps = Vec::new();
                $(
                    $a.collect_node_deps(&mut node_deps);
                    $a.collect_loop_deps(&mut loop_deps);
                )+

                // Prefetching iterator tables (paper §V): registered once
                // per loop launch, consulted every iteration. Loops with
                // nothing useful to prefetch (no indirect args) carry no
                // prefetch code at all.
                let prefetch: Option<(PrefetchSet, usize)> = world
                    .config()
                    .prefetch_distance
                    .and_then(|factor| {
                        let mut ps = PrefetchSet::new();
                        $( $a.add_prefetch(&mut ps); )+
                        // Gather distance is in iteration elements: factor
                        // edges of look-ahead (the gathered rows have no
                        // meaningful cache-line stride to scale by).
                        if ps.is_empty() {
                            None
                        } else {
                            Some((ps, factor))
                        }
                    });

                // Cross-node gather prefetch (dataflow backend): the driver
                // issues prefetches for the *next* node's gathered rows
                // while the current node executes, at a look-ahead distance
                // resolved from the granularity feedback's measured
                // per-element cost (see `driver::drive_dataflow`). Only
                // loops with indirect arguments register anything.
                let gather_prefetch: Option<Arc<PrefetchSet>> = is_dataflow
                    .then(|| {
                        let mut ps = PrefetchSet::new();
                        $( $a.add_prefetch(&mut ps); )+
                        ps
                    })
                    .filter(|ps| !ps.is_empty())
                    .map(Arc::new);

                let set_size = set.size();
                let finalize_args = ($( $a.clone(), )+);
                let record_args = ($( $a.clone(), )+);
                let args = ($( $a, )+);

                let block_body: Arc<dyn Fn(Range<usize>) + Send + Sync> =
                    Arc::new(move |r: Range<usize>| {
                        // Every raw row/map offset below is derived from an
                        // element of the iteration set: check the range
                        // once per block instead of per access.
                        assert!(r.end <= set_size, "block {r:?} outside the iteration set");
                        let mut tls = ($( args.$idx.task_local(), )+);
                        // Loop-invariant argument state (base pointers, map
                        // tables) resolved once, into locals the element
                        // loop keeps in registers.
                        // SAFETY: this is the executor, inside the block
                        // whose dependencies the driver satisfied, and
                        // `check_against` ran at submission; `bound` dies
                        // with this call and borrows the argument clones
                        // this closure owns.
                        let bound = unsafe { ($( args.$idx.bind(), )+) };
                        // SAFETY: the driver guarantees the executor
                        // discipline in `crate::dat`; `r` lies inside the
                        // set by the assert above; `tls` was just made.
                        unsafe {
                            elements(r.clone(), &args, &bound, &mut tls, &kernel, prefetch.as_ref())
                        }
                        $( args.$idx.commit(gen, r.start, tls.$idx); )+
                    });

                let finalize: Arc<dyn Fn() + Send + Sync> = {
                    let ($($a,)+) = finalize_args;
                    Arc::new(move || {
                        $( $a.finalize(gen); )+
                    })
                };

                let spec = LoopSpec {
                    name: name.clone(),
                    set,
                    infos,
                    node_deps,
                    loop_deps,
                    gen,
                    block_body,
                    gather: gather_prefetch,
                    finalize,
                };
                let done = drive(world, spec);
                let ($($a,)+) = record_args;
                $( $a.record_loop_completion(&done); )+
                world.track(done.clone());
                LoopHandle::new(name, done)
            }
        }
    };
}

gen_par_loop!(A0 / a0 / 0);
gen_par_loop!(A0 / a0 / 0, A1 / a1 / 1);
gen_par_loop!(A0 / a0 / 0, A1 / a1 / 1, A2 / a2 / 2);
gen_par_loop!(A0 / a0 / 0, A1 / a1 / 1, A2 / a2 / 2, A3 / a3 / 3);
gen_par_loop!(
    A0 / a0 / 0,
    A1 / a1 / 1,
    A2 / a2 / 2,
    A3 / a3 / 3,
    A4 / a4 / 4
);
gen_par_loop!(
    A0 / a0 / 0,
    A1 / a1 / 1,
    A2 / a2 / 2,
    A3 / a3 / 3,
    A4 / a4 / 4,
    A5 / a5 / 5
);
gen_par_loop!(
    A0 / a0 / 0,
    A1 / a1 / 1,
    A2 / a2 / 2,
    A3 / a3 / 3,
    A4 / a4 / 4,
    A5 / a5 / 5,
    A6 / a6 / 6
);
gen_par_loop!(
    A0 / a0 / 0,
    A1 / a1 / 1,
    A2 / a2 / 2,
    A3 / a3 / 3,
    A4 / a4 / 4,
    A5 / a5 / 5,
    A6 / a6 / 6,
    A7 / a7 / 7
);
gen_par_loop!(
    A0 / a0 / 0,
    A1 / a1 / 1,
    A2 / a2 / 2,
    A3 / a3 / 3,
    A4 / a4 / 4,
    A5 / a5 / 5,
    A6 / a6 / 6,
    A7 / a7 / 7,
    A8 / a8 / 8
);
gen_par_loop!(
    A0 / a0 / 0,
    A1 / a1 / 1,
    A2 / a2 / 2,
    A3 / a3 / 3,
    A4 / a4 / 4,
    A5 / a5 / 5,
    A6 / a6 / 6,
    A7 / a7 / 7,
    A8 / a8 / 8,
    A9 / a9 / 9
);

#[cfg(test)]
mod tests {
    use crate::arg::{arg_gbl_inc, arg_inc_via, arg_read, arg_read_via, arg_rw, arg_write};
    use crate::config::{Backend, Op2Config};
    use crate::gbl::Global;
    use crate::types::Access;
    use crate::world::Op2;

    fn each_backend() -> Vec<Op2> {
        vec![
            Op2::new(Op2Config::seq()),
            Op2::new(Op2Config::fork_join(2)),
            Op2::new(Op2Config::dataflow(2)),
        ]
    }

    #[test]
    fn direct_copy_loop_all_backends() {
        for op2 in each_backend() {
            let cells = op2.decl_set(1000, "cells");
            let q = op2.decl_dat(&cells, 4, "q", (0..4000).map(|i| i as f64).collect());
            let qold = op2.decl_dat(&cells, 4, "qold", vec![0.0f64; 4000]);
            let h = op2
                .loop_("save_soln", &cells)
                .arg(arg_read(&q))
                .arg(arg_write(&qold))
                .run(|q: &[f64], qold: &mut [f64]| {
                    qold.copy_from_slice(q);
                });
            h.wait();
            assert_eq!(qold.snapshot(), q.snapshot(), "{:?}", op2.config().backend);
        }
    }

    /// A ring mesh: edge e connects nodes (e, e+1 mod n). Each edge
    /// increments both endpoints by 1 -> every node ends at 2.
    #[test]
    fn indirect_increment_needs_coloring_and_is_correct() {
        for op2 in each_backend() {
            let n = 10_000;
            let edges = op2.decl_set(n, "edges");
            let nodes = op2.decl_set(n, "nodes");
            let mut idx = Vec::with_capacity(2 * n);
            for e in 0..n {
                idx.push(e as u32);
                idx.push(((e + 1) % n) as u32);
            }
            let pedge = op2.decl_map(&edges, &nodes, 2, idx, "pedge");
            let acc = op2.decl_dat(&nodes, 1, "acc", vec![0.0f64; n]);
            let h = op2
                .loop_("ring_inc", &edges)
                .arg(arg_inc_via(&acc, &pedge, 0))
                .arg(arg_inc_via(&acc, &pedge, 1))
                .run(|a: &mut [f64], b: &mut [f64]| {
                    a[0] += 1.0;
                    b[0] += 1.0;
                });
            h.wait();
            let snap = acc.snapshot();
            assert!(
                snap.iter().all(|&v| v == 2.0),
                "{:?}: wrong increment result",
                op2.config().backend
            );
            if op2.config().backend != Backend::Seq {
                let (built, _) = op2.plan_cache_stats();
                assert_eq!(built, 1, "indirect loop must build a plan");
            }
        }
    }

    /// A warm world that declares a new instance per solve colours each
    /// shape once: the plan cache keys on set/map content signatures, not
    /// on entity ids (fresh on every declare).
    #[test]
    fn identical_declares_share_one_plan() {
        let op2 = Op2::new(Op2Config::fork_join(2));
        let ring_inc = |skew: Option<u32>| {
            let n = 300;
            let edges = op2.decl_set(n, "edges");
            let nodes = op2.decl_set(n, "nodes");
            let mut idx: Vec<u32> = (0..n as u32)
                .flat_map(|e| [e, (e + 1) % n as u32])
                .collect();
            if let Some(target) = skew {
                idx[1] = target;
            }
            let pedge = op2.decl_map(&edges, &nodes, 2, idx, "pedge");
            let acc = op2.decl_dat(&nodes, 1, "acc", vec![0.0f64; n]);
            op2.loop_("ring_inc", &edges)
                .arg(arg_inc_via(&acc, &pedge, 0))
                .arg(arg_inc_via(&acc, &pedge, 1))
                .run(|a: &mut [f64], b: &mut [f64]| {
                    a[0] += 1.0;
                    b[0] += 1.0;
                })
                .wait();
            assert_eq!(acc.snapshot().iter().sum::<f64>(), 2.0 * n as f64);
        };
        ring_inc(None);
        ring_inc(None);
        let (built, hits) = op2.plan_cache_stats();
        assert_eq!(built, 1, "the second declare recoloured the same shape");
        assert!(hits >= 1);
        ring_inc(Some(57));
        assert_eq!(
            op2.plan_cache_stats().0,
            2,
            "one index differs: a second plan"
        );
    }

    #[test]
    fn gbl_reduction_matches_closed_form() {
        for op2 in each_backend() {
            let cells = op2.decl_set(5000, "cells");
            let vals = op2.decl_dat(&cells, 1, "v", (0..5000).map(|i| i as f64).collect());
            let total = Global::<f64>::sum(1, "total");
            let h = crate::par_loop!(
                op2,
                "sum",
                &cells,
                [arg_read(&vals), arg_gbl_inc(&total)],
                |v: &[f64], acc: &mut [f64]| {
                    acc[0] += v[0];
                }
            );
            h.wait();
            assert_eq!(total.get_scalar(), 4999.0 * 5000.0 / 2.0);
        }
    }

    #[test]
    fn dataflow_chains_dependent_loops() {
        let op2 = Op2::new(Op2Config::dataflow(2));
        let cells = op2.decl_set(2000, "cells");
        let a = op2.decl_dat(&cells, 1, "a", vec![1.0f64; 2000]);
        let b = op2.decl_dat(&cells, 1, "b", vec![0.0f64; 2000]);
        // b = a * 2; then a = b + 1  (WAR + RAW chain), repeated.
        for _ in 0..10 {
            op2.loop_("double", &cells)
                .arg(arg_read(&a))
                .arg(arg_write(&b))
                .run(|a: &[f64], b: &mut [f64]| b[0] = a[0] * 2.0);
            op2.loop_("incr", &cells)
                .arg(arg_read(&b))
                .arg(arg_write(&a))
                .run(|b: &[f64], a: &mut [f64]| a[0] = b[0] + 1.0);
        }
        op2.fence();
        // x -> 2x+1 applied 10 times from 1.0: x_{k+1} = 2 x_k + 1 -> 2^10*1 + (2^10 - 1) = 2047.
        assert!(a.snapshot().iter().all(|&v| v == 2047.0));
        let stats = op2.loop_stats();
        assert_eq!(stats.iter().map(|(_, s)| s.invocations).sum::<u64>(), 20);
        // Identical (name, set, signature, chunk) submissions hit the
        // loop-spec cache after the first build of each shape — except
        // where real-clock feedback moved the resolved granularity in
        // between, which re-plans instead (the default policy measures).
        let (built, hits) = op2.spec_cache_stats();
        assert_eq!(built, 2, "one live schedule per loop shape");
        assert_eq!(
            hits + op2.spec_cache_replans(),
            18,
            "9 re-submissions per shape"
        );
    }

    #[test]
    fn independent_loops_can_interleave_without_fence() {
        let op2 = Op2::new(Op2Config::dataflow(2));
        let cells = op2.decl_set(5000, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; 5000]);
        let y = op2.decl_dat(&cells, 1, "y", vec![2.0f64; 5000]);
        let hx = op2
            .loop_("scale_x", &cells)
            .arg(arg_rw(&x))
            .run(|x: &mut [f64]| {
                x[0] *= 3.0;
            });
        let hy = op2
            .loop_("scale_y", &cells)
            .arg(arg_rw(&y))
            .run(|y: &mut [f64]| {
                y[0] *= 5.0;
            });
        hx.wait();
        hy.wait();
        assert!(x.snapshot().iter().all(|&v| v == 3.0));
        assert!(y.snapshot().iter().all(|&v| v == 10.0));
    }

    #[test]
    #[should_panic(expected = "kernel blew up")]
    fn kernel_panic_propagates_through_wait() {
        let op2 = Op2::new(Op2Config::dataflow(2));
        let cells = op2.decl_set(100, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 100]);
        let h = op2
            .loop_("boom", &cells)
            .arg(arg_write(&x))
            .run(|_x: &mut [f64]| {
                panic!("kernel blew up");
            });
        h.wait();
    }

    #[test]
    #[should_panic(expected = "mutable loop argument while a user guard is live")]
    fn live_guard_blocks_mutable_submission() {
        let op2 = Op2::new(Op2Config::dataflow(2));
        let cells = op2.decl_set(10, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 10]);
        let _guard = x.read();
        let _ = op2
            .loop_("w", &cells)
            .arg(arg_write(&x))
            .run(|_: &mut [f64]| {});
    }

    #[test]
    fn empty_set_loop_completes() {
        for op2 in each_backend() {
            let empty = op2.decl_set(0, "empty");
            let x = op2.decl_dat(&empty, 1, "x", Vec::<f64>::new());
            let g = Global::<f64>::sum(1, "g");
            let h = op2
                .loop_("noop", &empty)
                .arg(arg_write(&x))
                .arg(arg_gbl_inc(&g))
                .run(|_: &mut [f64], _: &mut [f64]| unreachable!());
            h.wait();
            assert_eq!(g.get_scalar(), 0.0);
        }
    }

    #[test]
    fn indirect_read_does_not_force_colors() {
        let op2 = Op2::new(Op2Config::fork_join(2));
        let edges = op2.decl_set(100, "edges");
        let nodes = op2.decl_set(101, "nodes");
        let mut idx = Vec::new();
        for e in 0..100u32 {
            idx.push(e);
            idx.push(e + 1);
        }
        let m = op2.decl_map(&edges, &nodes, 2, idx, "pedge");
        let xn = op2.decl_dat(&nodes, 1, "xn", (0..101).map(|i| i as f64).collect());
        let xe = op2.decl_dat(&edges, 1, "xe", vec![0.0f64; 100]);
        let h = op2
            .loop_("gather", &edges)
            .arg(arg_read_via(&xn, &m, 0))
            .arg(arg_read_via(&xn, &m, 1))
            .arg(arg_write(&xe))
            .run(|a: &[f64], b: &[f64], out: &mut [f64]| out[0] = 0.5 * (a[0] + b[0]));
        h.wait();
        let (built, _) = op2.plan_cache_stats();
        assert_eq!(built, 0, "gather loops are direct for planning purposes");
        let snap = xe.snapshot();
        assert_eq!(snap[10], 10.5);
        let _ = Access::Read; // silence unused import in cfg permutations
    }
}
