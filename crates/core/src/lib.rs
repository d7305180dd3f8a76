//! # op2-core — the OP2 unstructured-mesh loop framework on hpx-rt
//!
//! Reproduction of the system described in *"Redesigning OP2 Compiler to
//! Use HPX Runtime Asynchronous Techniques"* (Khatami, Kaiser, Ramanujam;
//! IPDPSW 2017): the OP2 "active library" data model (sets, maps, dats,
//! access-described loop arguments), OP2's shared-memory execution plans
//! (mini-partition blocks + greedy coloring for indirect increments), and
//! two parallel backends —
//!
//! * [`Backend::ForkJoin`]: the `#pragma omp parallel for` baseline with a
//!   global barrier after every loop, and
//! * [`Backend::Dataflow`]: the paper's redesign at *block granularity* —
//!   every `op_par_loop` becomes one dataflow node per mini-partition
//!   block, wired through per-dat access records (see [`crate::Dat`]) to
//!   only the predecessor blocks it touches, so independent loops
//!   interleave and dependent loops *pipeline*: a successor's blocks start
//!   while its RAW predecessor is still finishing.
//!
//! ```
//! use op2_core::args::{read, write};
//! use op2_core::{Op2, Op2Config};
//!
//! let op2 = Op2::new(Op2Config::dataflow(2));
//! let cells = op2.decl_set(100, "cells");
//! let q = op2.decl_dat(&cells, 4, "q", vec![1.0f64; 400]);
//! let qold = op2.decl_dat(&cells, 4, "qold", vec![0.0f64; 400]);
//!
//! // op_par_loop_save_soln (paper Fig 3) through the arity-free builder:
//! // returns a future-backed handle.
//! let h = op2.loop_("save_soln", &cells)
//!     .arg(read(&q))
//!     .arg(write(&qold))
//!     .run(|q: &[f64], qold: &mut [f64]| qold.copy_from_slice(q));
//! h.wait();
//! assert_eq!(qold.snapshot(), vec![1.0; 400]);
//! ```
//!
//! At distributed scale the access descriptors also drive **implicit halo
//! exchange**: [`locality::LocalityGroup::link_halo`] ties the per-rank
//! shards of one logical dat together with per-peer dirty bits, after which
//! loop submission alone schedules every needed gather/send/scatter — see
//! the dirty-bit protocol in [`locality`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arg;
mod config;
pub mod convergence;
mod dat;
pub mod diag;
mod driver;
mod gbl;
mod granularity;
pub mod locality;
mod map;
mod par_loop;
pub mod plan;
pub mod rebalance;
mod set;
pub mod transport;
mod types;
mod world;

pub use arg::{
    arg_gbl_inc, arg_gbl_read, arg_inc, arg_inc_via, arg_read, arg_read_via, arg_rw, arg_rw_via,
    arg_write, arg_write_via, AccessTag, ArgInfo, ArgKind, ArgSpec, DatArg, DatBound, Dyn,
    GblIncArg, GblReadArg, IncTag, ReadTag, Row, RwTag, Shape, Via, WriteTag,
};
pub use config::{Backend, ChunkPolicy, Op2Config};
pub use convergence::{Convergence, ResidualMap};
pub use dat::testing;
pub use dat::{Dat, DatReadGuard, DatWriteGuard};
pub use driver::{dataflow_resolved_block_size, plan_for, LoopHandle, SubmitStats};
pub use gbl::{Global, ReduceOp, ReducedFuture, Reducible};
pub use granularity::{GranularityFeedback, KernelCost};
pub use map::Map;
pub use par_loop::ParLoop;
pub use plan::{validate_coloring, Plan};
pub use set::Set;
pub use types::{Access, OpType};
pub use world::{LoopStat, Op2};

/// Short argument-constructor names for v2 builder call-sites:
/// `op2.loop_("res_calc", &edges).arg(read_via(&x, &m, 0))…`. Aliases of
/// the `arg_*` constructors (`op_arg_dat` / `op_arg_gbl`).
pub mod args {
    pub use crate::arg::{
        arg_gbl_inc as gbl_inc, arg_gbl_read as gbl_read, arg_inc as inc, arg_inc_via as inc_via,
        arg_read as read, arg_read_via as read_via, arg_rw as rw, arg_rw_via as rw_via,
        arg_write as write, arg_write_via as write_via,
    };
}

// Downstream crates (airfoil, benches) need the runtime types.
pub use hpx_rt;
