//! # op2-mesh — unstructured-mesh substrate
//!
//! Mesh generators and utilities for the OP2/HPX reproduction. The paper's
//! Airfoil evaluation reads a structured-as-unstructured NACA0012 grid
//! (`new_grid.dat`, ~720K nodes / ~1.5M edges); [`quad::channel_with_bump`]
//! synthesizes an equivalent mesh (same table layout, same indirection
//! structure, same boundary-flag scheme) at any scale, and
//! [`quad::QuadMesh::paper_scale`] matches the paper's element counts.
//!
//! Also provided: a triangle mesh generator for the secondary example
//! applications, CSR neighbour graphs, deterministic k-way partitioning
//! with halo-list derivation for the multi-locality execution layer, and
//! structural validation.
//!
//! A mesh's connectivity tables, coordinates and boundary flags are
//! shared immutable arrays (`Arc<Vec<_>>`): cloning a mesh shares them,
//! and a map or read-only dat declared from one on any number of OP2
//! worlds reads the same buffer, as OP2's `op_decl_map` and `op_decl_dat`
//! keep their caller's array.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod partition;
pub mod quad;
pub mod tri;
pub mod validate;

pub use csr::{neighbors_from_pairs, Csr};
pub use partition::{
    build_halo, partition_greedy_bfs, partition_greedy_bfs_weighted, HaloPlan, Partition,
};
pub use quad::{channel_with_bump, QuadMesh, BOUND_FARFIELD, BOUND_WALL};
pub use tri::{unit_square, TriMesh};
pub use validate::{quad_stats, validate_quad, MeshStats};
