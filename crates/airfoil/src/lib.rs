//! # airfoil-cfd — the Airfoil benchmark on op2-core
//!
//! The paper's evaluation application (§II-B, §VI): a non-linear 2-D
//! inviscid finite-volume code with five parallel loops per inner step —
//! `save_soln`, `adt_calc`, `res_calc`, `bres_calc`, `update` — ported
//! kernel-for-kernel from the OP2 distribution and driven through
//! `op2-core`'s fork-join (OpenMP-equivalent) or dataflow (HPX-equivalent)
//! backend.
//!
//! The time loop is the app-generic [`op2_app::run`]: a declared
//! [`Problem`] runs under it as a [`PlainAirfoil`], a [`ShardedProblem`]
//! as a [`ShardedAirfoil`].
//!
//! ```
//! use airfoil_cfd::{PlainAirfoil, Problem};
//! use op2_app::RunConfig;
//! use op2_core::{Op2, Op2Config};
//! use op2_mesh::channel_with_bump;
//!
//! let op2 = Op2::new(Op2Config::dataflow(2));
//! let mesh = channel_with_bump(24, 12);
//! let problem = Problem::declare(&op2, &mesh);
//! let out = op2_app::run(
//!     &mut PlainAirfoil::new(&op2, &problem),
//!     RunConfig::iterations(5, 4),
//! );
//! assert_eq!(out.residuals.len(), 5);
//! assert!(out.residuals.iter().all(|r| r.is_finite()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod constants;
pub mod kernels;
pub mod setup;
pub mod shard;
pub mod simd;
pub mod verify;

pub use app::{AirfoilApp, AirfoilInstance, PlainAirfoil, ShardedAirfoil};
pub use setup::Problem;
pub use shard::ShardedProblem;
