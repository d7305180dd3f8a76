//! # op2-bench — the figure-regeneration harness
//!
//! One binary per question of the paper's evaluation (§VI):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig15_16` | Figs 15 and 16 from one thread sweep: Airfoil execution time and strong-scaling speedup, OpenMP vs dataflow |
//! | `chunk_adapt` | Fig 17: static chunk-size sweep vs the adaptive policy |
//!
//! Figs 18-20 (the §V prefetching iterator) have no binary: prefetching lost
//! or tied on every workload measured here and was deleted (`README.md`
//! § Prefetching). `chunk_adapt` is the one perf gate CI runs. Overlap of
//! communication with compute has no binary: the held-link tests in
//! `tests/transport.rs` hold halo and reduction messages in flight and
//! assert exactly what runs meanwhile. Dynamic rebalancing has no binary
//! either: CI races the `airfoil` binary itself, as 2 processes, with and
//! without `--rebalance`. Nor do the hand-vectorized plane kernels: the
//! benchmark rig reports them per element beside the scalar kernels.
//!
//! `fig15_16` accepts `--cells`, `--iters`, `--threads a,b,c`, `--reps`,
//! `--csv PATH` and `--paper-scale` (see [`sweep::parse_sweep_args`]).

pub mod harness;
pub mod sweep;
pub mod tables;

pub use harness::{run_airfoil, Measurement, Variant};
pub use sweep::parse_sweep_args;
pub use tables::Table;
