//! # airfoil-cfd — the Airfoil benchmark on op2-core
//!
//! The paper's evaluation application (§II-B, §VI): a non-linear 2-D
//! inviscid finite-volume code with five parallel loops per inner step —
//! `save_soln`, `adt_calc`, `res_calc`, `bres_calc`, `update` — ported
//! kernel-for-kernel from the OP2 distribution and driven through
//! `op2-core`'s fork-join (OpenMP-equivalent) or dataflow (HPX-equivalent)
//! backend.
//!
//! ```
//! use airfoil_cfd::{solver, Problem, SolverConfig};
//! use op2_core::{Op2, Op2Config};
//! use op2_mesh::channel_with_bump;
//!
//! let op2 = Op2::new(Op2Config::dataflow(2));
//! let mesh = channel_with_bump(24, 12);
//! let problem = Problem::declare(&op2, &mesh);
//! let result = solver::run(&op2, &problem, &SolverConfig {
//!     niter: 5, window: 4, ..Default::default()
//! });
//! assert_eq!(result.rms_history.len(), 5);
//! assert!(result.rms_history.iter().all(|r| r.is_finite()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod constants;
pub mod kernels;
pub mod setup;
pub mod shard;
pub mod simd;
pub mod solver;
pub mod verify;

pub use app::{AirfoilApp, AirfoilInstance, PlainAirfoil, ShardedAirfoil};
pub use setup::Problem;
pub use shard::{run_sharded, RebalanceReport, ShardedProblem};
pub use solver::{run, solve, RunResult, SolverConfig};
