//! # op2-translator — the `op2c` source-to-source translator
//!
//! The paper's deliverable is a retargeted OP2 code generator: "its Python
//! source-to-source code translator is modified to automatically generate
//! the parallel loops using HPX library calls" (§II-B). This crate is that
//! translator for the Rust reproduction: it parses a small declarative
//! `.op2` language (programme = sets, maps, dats, globals, loops with
//! access descriptors), runs the same shape/access checks OP2 performs,
//! and emits Rust loop wrappers in either of two styles:
//!
//! * **openmp** — blocking wrappers with an implicit global barrier after
//!   every loop (stock OP2, paper Fig 4);
//! * **hpx** — future-returning wrappers whose loops chain through the
//!   dataflow dependency graph (the paper's redesign, Fig 8).
//!
//! ```
//! let src = r#"
//!     program demo;
//!     set cells;
//!     dat q : cells, dim 4, f64;
//!     dat qold : cells, dim 4, f64;
//!     loop save_soln over cells {
//!         arg q : read;
//!         arg qold : write;
//!     }
//! "#;
//! let code = op2_translator::translate(src, op2_translator::CodegenBackend::Hpx).unwrap();
//! assert!(code.contains("pub fn op_par_loop_save_soln<K>"));
//! assert!(code.contains("-> LoopHandle"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod token;

pub use ast::Program;
pub use codegen::CodegenBackend;
pub use token::TranslateError;

/// One-shot translation: source text → generated Rust, or every diagnostic
/// found on the way.
pub fn translate(src: &str, backend: CodegenBackend) -> Result<String, Vec<TranslateError>> {
    let program = parser::parse(src).map_err(|e| vec![e])?;
    codegen::generate(&program, backend)
}

/// Generates kernel-skeleton stubs (the `op2c --emit-kernels` mode).
pub fn emit_kernel_skeletons(src: &str) -> Result<String, Vec<TranslateError>> {
    let program = parser::parse(src).map_err(|e| vec![e])?;
    codegen::generate_kernel_skeletons(&program)
}

/// Parses and checks without generating (the `op2c --check` mode).
pub fn check_source(src: &str) -> Result<Program, Vec<TranslateError>> {
    let program = parser::parse(src).map_err(|e| vec![e])?;
    let errors = sema::check(&program);
    if errors.is_empty() {
        Ok(program)
    } else {
        Err(errors)
    }
}
