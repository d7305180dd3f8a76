//! # op2-app — the application layer
//!
//! Everything an unstructured-mesh application shares, factored out of
//! the Airfoil solver so new workloads are declaration + kernels only:
//!
//! * [`AppInstance`] / [`App`] — the two-level application contract: an
//!   *instance* submits one time-loop iteration ([`AppInstance::step`])
//!   and hands back the iteration's residual future and gate handles; an
//!   *app* is the factory that declares instances on a fresh world
//!   (plain or sharded) and carries the `.op2` spec it was generated
//!   from;
//! * [`run`] — the generic time loop: backpressure window, chained
//!   residual printing, the convergence-driven exit on the asynchronous
//!   reduction path, the rebalance hook, one final fence. Loop-for-loop
//!   identical to the original Airfoil driver — a 1-rank Seq airfoil run
//!   through this harness is bitwise the pre-refactor run;
//! * [`Worlds`] — a bare world is the one-part case of a locality group:
//!   an app declares and steps its parts once, over
//!   `worlds().iter().zip(parts)`, and the residual fan-in, the fence,
//!   who prints and the owned-row state gather are answered here rather
//!   than once per plain and once per sharded instance;
//! * [`shard::plan_shards`] — the app-agnostic half of mesh sharding
//!   (owned-first local numbering, per-peer import ranges, export rows,
//!   interior-first execute-halo split), reused by the Airfoil shards and
//!   the node-graph apps here;
//! * [`heat`] / [`jac`] — two translator-generated applications (specs
//!   in `crates/translator/specs/`): explicit heat diffusion with a
//!   max-change exit, and Jacobi iteration whose loop count is
//!   data-dependent through the `converge` construct.

#![warn(missing_docs)]

pub mod harness;
pub mod heat;
pub mod jac;
pub mod shard;

pub use harness::{
    run, App, AppInstance, ExitPolicy, RebalanceReport, RunConfig, RunOutcome, StepOutput, Worlds,
};
pub use heat::HeatApp;
pub use jac::JacApp;
pub use shard::{plan_shards, RankShard, ShardPlan};
