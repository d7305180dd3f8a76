//! # op2-bench — the figure-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (§VI):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig15_exec_time` | Fig 15: Airfoil execution time, OpenMP vs dataflow |
//! | `fig16_strong_scaling` | Fig 16: strong-scaling speedup comparison |
//! | `chunk_adapt` | Fig 17: static chunk-size sweep vs the adaptive policy |
//! | `fig18_prefetch` | Fig 18: ± prefetching iterator |
//! | `fig19_bandwidth` | Fig 19: transfer rate, standard vs prefetch iterator |
//! | `fig20_prefetch_distance` | Fig 20: transfer rate vs prefetch distance |
//! | `all_figures` | runs everything, writing CSVs to `results/` |
//!
//! Every binary accepts `--cells`, `--iters`, `--threads a,b,c`, `--reps`,
//! `--csv PATH` and `--paper-scale` (see [`sweep::parse_sweep_args`]).

pub mod harness;
pub mod sweep;
pub mod tables;

pub use harness::{bandwidth_run, run_airfoil, Measurement, Variant};
pub use sweep::{parse_sweep_args, SweepArgs};
pub use tables::Table;
