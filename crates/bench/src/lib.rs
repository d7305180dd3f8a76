//! # op2-bench — the figure-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (§VI):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig15_exec_time` | Fig 15: Airfoil execution time, OpenMP vs dataflow |
//! | `fig16_strong_scaling` | Fig 16: strong-scaling speedup comparison |
//! | `chunk_adapt` | Fig 17: static chunk-size sweep vs the adaptive policy |
//! | `all_figures` | runs the fig15/fig16 binaries, writing CSVs to `results/` |
//!
//! Figs 18-20 (the §V prefetching iterator) have no binary: prefetching lost
//! or tied on every workload measured here and was deleted (`README.md`
//! § Prefetching).
//!
//! Every binary accepts `--cells`, `--iters`, `--threads a,b,c`, `--reps`,
//! `--csv PATH` and `--paper-scale` (see [`sweep::parse_sweep_args`]).

pub mod harness;
pub mod sweep;
pub mod tables;

pub use harness::{run_airfoil, Measurement, Variant};
pub use sweep::{parse_sweep_args, SweepArgs};
pub use tables::Table;
