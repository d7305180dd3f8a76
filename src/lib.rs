//! # op2-hpx — umbrella crate
//!
//! Re-exports the whole reproduction of *"Redesigning OP2 Compiler to Use
//! HPX Runtime Asynchronous Techniques"* (Khatami, Kaiser, Ramanujam;
//! IPDPSW 2017) under one roof:
//!
//! * [`hpx`] — the HPX-style task runtime (futures, dataflow, the chunked
//!   `par` loop and its chunkers);
//! * [`op2`] — the OP2 loop framework (sets/maps/dats, plans & coloring,
//!   fork-join and dataflow backends);
//! * [`mesh`] — unstructured-mesh generators and utilities;
//! * [`app`] — the app-agnostic harness (the [`app::App`] /
//!   [`app::AppInstance`] traits, the generic time loop with
//!   convergence-driven exit, the shard planner) plus the
//!   translator-generated heat and Jacobi applications;
//! * [`airfoil`] — the Airfoil CFD evaluation application;
//! * [`translator`] — the `op2c` source-to-source translator.
//!
//! See `README.md` for a guided tour: the crate map, the block-granular
//! dependency-engine design, and how to run the Airfoil application and
//! the figure benches.

#![warn(missing_docs)]

pub use airfoil_cfd as airfoil;
pub use hpx_rt as hpx;
pub use op2_app as app;
pub use op2_core as op2;
pub use op2_mesh as mesh;
pub use op2_translator as translator;
