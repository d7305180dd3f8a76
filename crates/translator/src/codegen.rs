//! Code generation: `.op2` declarations → Rust loop wrappers.
//!
//! Two backends mirror the paper:
//!
//! * [`CodegenBackend::OpenMp`] — the stock OP2 style (paper Fig 4): each
//!   generated `op_par_loop_*` blocks until the loop completes, i.e. an
//!   implicit global barrier after every loop.
//! * [`CodegenBackend::Hpx`] — the paper's redesign (Fig 8): each
//!   generated function returns the loop's [`LoopHandle`] future
//!   immediately, so the calling program interleaves loops through the
//!   dataflow dependency graph.
//!
//! The emitted file is a plain Rust item list intended to be `include!`d
//! into a module or written next to the application (the way OP2 writes
//! `*_kernel.cpp` files beside the user code).
//!
//! Like OP2's generated loops (paper §III: `arg0.map_data[n * 4 + 0]`,
//! `&data[2 * idx]`), the wrappers carry what the spec declares as
//! **constants**: every argument is emitted with its shape —
//! `arg_read(p_q).row::<4>()` for `dat p_q : cells, dim 4`,
//! `arg_inc_via(p_res, pecell, 1).via::<4, 2>()` for that dat through
//! `map pecell : edges -> cells, dim 2`, `arg_gbl_inc(rms).row::<1>()` —
//! for both backends and both layouts. `op2-core` compiles the element
//! loop against those literals and checks them, when a loop is submitted,
//! against the dats and maps the wrapper was handed (a mismatch is a panic
//! naming the loop, the dat, the map and both numbers). `sema` has
//! already rejected a slot beyond its map's `dim`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::ast::*;
use crate::sema;
use crate::token::TranslateError;

/// Which runtime style to emit (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenBackend {
    /// Blocking loops, global barrier after each (stock OP2 / OpenMP).
    OpenMp,
    /// Future-returning loops (the paper's HPX redesign).
    Hpx,
}

impl CodegenBackend {
    /// CLI spelling.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "openmp" | "omp" => Some(CodegenBackend::OpenMp),
            "hpx" | "dataflow" => Some(CodegenBackend::Hpx),
            _ => None,
        }
    }
}

/// Physical dat layout the generated code targets (`op2_core::Layout`).
///
/// The loop *wrappers* are layout-oblivious — `op2-core` stages row views
/// over SoA planes transparently — so AoS and SoA wrappers differ only in
/// documentation. The kernel *skeletons* differ structurally: SoA
/// skeletons are block-level and stride-aware (whole component planes plus
/// a plane stride per dat, an explicit element range), the shape that
/// hand-vectorized kernels like `airfoil_cfd::simd` fill in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodegenLayout {
    /// Array-of-structures: `dim` adjacent scalars per element (OP2's
    /// stock layout). The default; output is byte-identical to the
    /// pre-layout translator.
    #[default]
    AoS,
    /// Structure-of-arrays: one contiguous plane per component.
    SoA,
}

impl CodegenLayout {
    /// CLI spelling.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "aos" => Some(CodegenLayout::AoS),
            "soa" => Some(CodegenLayout::SoA),
            _ => None,
        }
    }
}

/// Runs semantic checks, then generates Rust source for every loop of the
/// programme (AoS layout — byte-identical to the pre-layout translator).
pub fn generate(program: &Program, backend: CodegenBackend) -> Result<String, Vec<TranslateError>> {
    generate_layout(program, backend, CodegenLayout::AoS)
}

/// [`generate`] with an explicit target [`CodegenLayout`].
pub fn generate_layout(
    program: &Program,
    backend: CodegenBackend,
    layout: CodegenLayout,
) -> Result<String, Vec<TranslateError>> {
    let errors = sema::check(program);
    if !errors.is_empty() {
        return Err(errors);
    }

    let mut used_items: BTreeSet<&'static str> = BTreeSet::new();
    used_items.extend(["Op2", "Set"]);
    let mut uses_dat = false;
    let mut uses_gbl = false;
    let mut body = String::new();

    for l in &program.loops {
        emit_loop(
            program,
            l,
            backend,
            layout,
            &mut body,
            &mut used_items,
            &mut uses_dat,
            &mut uses_gbl,
        );
    }

    for c in &program.converges {
        emit_converge(c, &mut body, &mut used_items);
    }

    if uses_dat {
        used_items.insert("Dat");
    }
    if uses_gbl {
        used_items.insert("Global");
    }
    if backend == CodegenBackend::Hpx {
        used_items.insert("LoopHandle");
    }

    let mut out = String::new();
    let style = match backend {
        CodegenBackend::OpenMp => "openmp (blocking loops, implicit global barriers)",
        CodegenBackend::Hpx => "hpx (dataflow loops returning futures)",
    };
    // The AoS header is byte-identical to the pre-layout translator so the
    // default path produces zero golden diffs.
    let (style_layout, flag_layout) = match layout {
        CodegenLayout::AoS => ("", ""),
        CodegenLayout::SoA => (", layout: soa (component planes)", " --layout soa"),
    };
    let _ = writeln!(
        out,
        "// Generated by op2c from programme `{}` — backend: {style}{style_layout}.\n\
         // DO NOT EDIT: regenerate with `op2c --backend {}{flag_layout} {}.op2`.\n",
        program.name,
        match backend {
            CodegenBackend::OpenMp => "openmp",
            CodegenBackend::Hpx => "hpx",
        },
        program.name
    );
    let items: Vec<&str> = used_items.into_iter().collect();
    let _ = writeln!(out, "use op2_core::{{{}}};", items.join(", "));
    let _ = writeln!(out, "#[allow(unused_imports)]");
    let _ = writeln!(out, "use op2_core::{{{}}};\n", ARG_FNS.join(", "));
    out.push_str(&body);
    Ok(out)
}

/// Generates a kernel-skeleton module: one `todo!()` function per loop
/// with the exact slice signature the generated wrappers expect — the
/// counterpart of the `*.h` user-kernel stubs OP2 scaffolds. Runs the
/// same semantic checks as [`generate`]. AoS layout.
pub fn generate_kernel_skeletons(program: &Program) -> Result<String, Vec<TranslateError>> {
    generate_kernel_skeletons_layout(program, CodegenLayout::AoS)
}

/// [`generate_kernel_skeletons`] with an explicit target layout.
///
/// AoS emits the classic per-element row-view stubs. SoA emits
/// **block-level stride-aware** stubs: each dat argument arrives as its
/// whole component-plane slice plus a plane stride (`plane[c * stride +
/// e]` addresses component `c` of element `e`), indirect arguments come
/// with their map's index table, and the function processes an explicit
/// element range — the shape hand-vectorized kernels fill in.
pub fn generate_kernel_skeletons_layout(
    program: &Program,
    layout: CodegenLayout,
) -> Result<String, Vec<TranslateError>> {
    let errors = sema::check(program);
    if !errors.is_empty() {
        return Err(errors);
    }
    if layout == CodegenLayout::SoA {
        return Ok(soa_kernel_skeletons(program));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Kernel skeletons for programme `{}` — fill in the bodies.\n\
         // Generated by `op2c --emit-kernels`.\n",
        program.name
    );
    for l in &program.loops {
        let params: Vec<String> = l
            .args
            .iter()
            .enumerate()
            .map(|(i, arg)| {
                let (name, access, ty) = match arg {
                    LoopArg::Dat { dat, access, .. } => {
                        (dat.clone(), *access, program.dat(dat).expect("sema").ty)
                    }
                    LoopArg::Gbl { gbl, access, .. } => {
                        (gbl.clone(), *access, program.gbl(gbl).expect("sema").ty)
                    }
                };
                let mutability = if access.is_mut() { "&mut " } else { "&" };
                format!("arg{i}_{name}: {mutability}[{}]", ty.rust_name())
            })
            .collect();
        let _ = writeln!(
            out,
            "/// User kernel for loop `{}` over `{}`.",
            l.kernel, l.set
        );
        let _ = writeln!(out, "#[allow(unused_variables)]");
        let _ = writeln!(out, "pub fn {}({}) {{", l.kernel, params.join(", "));
        let _ = writeln!(out, "    todo!(\"implement the {} kernel\")", l.kernel);
        let _ = writeln!(out, "}}\n");
    }
    Ok(out)
}

/// The SoA block-level skeleton emitter (see
/// [`generate_kernel_skeletons_layout`]).
fn soa_kernel_skeletons(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// SoA block-level kernel skeletons for programme `{}` — fill in the\n\
         // bodies. Generated by `op2c --emit-kernels --layout soa`.\n\
         //\n\
         // Every dat argument is its whole component-plane slice plus the\n\
         // plane stride: component `c` of element `e` is `plane[c * stride + e]`.\n\
         // Indirect arguments gather through their map's index table\n\
         // (`map[e * map_dim + slot]`). Each function processes the element\n\
         // range it is given — one mini-partition block per call.\n",
        program.name
    );
    for l in &program.loops {
        let mut params: Vec<String> = Vec::new();
        let mut maps: Vec<&MapDecl> = Vec::new();
        for (i, arg) in l.args.iter().enumerate() {
            match arg {
                LoopArg::Dat {
                    dat, via, access, ..
                } => {
                    let d = program.dat(dat).expect("sema");
                    let mutability = if access.is_mut() { "&mut " } else { "&" };
                    params.push(format!("arg{i}_{dat}: {mutability}[{}]", d.ty.rust_name()));
                    params.push(format!("arg{i}_{dat}_stride: usize"));
                    if let Some((map, _)) = via {
                        let m = program.map(map).expect("sema");
                        if !maps.iter().any(|p| p.name == m.name) {
                            maps.push(m);
                        }
                    }
                }
                LoopArg::Gbl { gbl, access, .. } => {
                    let g = program.gbl(gbl).expect("sema");
                    let mutability = if access.is_mut() { "&mut " } else { "&" };
                    params.push(format!("arg{i}_{gbl}: {mutability}[{}]", g.ty.rust_name()));
                }
            }
        }
        for m in &maps {
            params.push(format!("{}: &[u32]", m.name));
        }
        params.push("range: std::ops::Range<usize>".to_owned());

        let _ = writeln!(
            out,
            "/// Block-level SoA user kernel for loop `{}` over `{}`.",
            l.kernel, l.set
        );
        for m in &maps {
            let _ = writeln!(
                out,
                "/// `{}` has {} slot(s) per element: slot `s` of element `e` is `{}[e * {} + s]`.",
                m.name, m.dim, m.name, m.dim
            );
        }
        let _ = writeln!(out, "#[allow(unused_variables)]");
        if params.len() > 7 {
            let _ = writeln!(out, "#[allow(clippy::too_many_arguments)]");
        }
        let _ = writeln!(out, "pub fn {}_soa({}) {{", l.kernel, params.join(", "));
        let _ = writeln!(out, "    for e in range {{");
        let _ = writeln!(
            out,
            "        todo!(\"implement the {} kernel (stride-aware SoA block body)\")",
            l.kernel
        );
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "}}\n");
    }
    out
}

const ARG_FNS: [&str; 10] = [
    "arg_read",
    "arg_write",
    "arg_rw",
    "arg_inc",
    "arg_read_via",
    "arg_write_via",
    "arg_rw_via",
    "arg_inc_via",
    "arg_gbl_inc",
    "arg_gbl_read",
];

fn view_type(access: AccessKind, ty: ScalarType) -> String {
    if access.is_mut() {
        format!("&'e mut [{}]", ty.rust_name())
    } else {
        format!("&'e [{}]", ty.rust_name())
    }
}

/// The builder argument for one `arg` line, its shape written as
/// constants (see the module docs): `dim` of the dat or global and, for an
/// indirect argument, the arity of its map. `op2-core` checks them against
/// the dat and map it is handed when the loop is submitted.
fn arg_ctor(program: &Program, arg: &LoopArg) -> String {
    match arg {
        LoopArg::Dat {
            dat, via, access, ..
        } => {
            let f = match access {
                AccessKind::Read => "arg_read",
                AccessKind::Write => "arg_write",
                AccessKind::Rw => "arg_rw",
                AccessKind::Inc => "arg_inc",
            };
            let dim = program.dat(dat).expect("checked by sema").dim;
            match via {
                None => format!("{f}({dat}).row::<{dim}>()"),
                Some((map, idx)) => {
                    let arity = program.map(map).expect("checked by sema").dim;
                    format!("{f}_via({dat}, {map}, {idx}).via::<{dim}, {arity}>()")
                }
            }
        }
        LoopArg::Gbl {
            gbl,
            access: AccessKind::Inc,
            ..
        } => {
            let dim = program.gbl(gbl).expect("checked by sema").dim;
            format!("arg_gbl_inc({gbl}).row::<{dim}>()")
        }
        // A broadcast read binds the value slice once per block; it has no
        // per-element addressing to specialise.
        LoopArg::Gbl { gbl, .. } => format!("arg_gbl_read({gbl})"),
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_loop(
    program: &Program,
    l: &LoopDecl,
    backend: CodegenBackend,
    layout: CodegenLayout,
    out: &mut String,
    used: &mut BTreeSet<&'static str>,
    uses_dat: &mut bool,
    uses_gbl: &mut bool,
) {
    // Deduplicated parameters in first-use order.
    let mut dat_params: Vec<&DatDecl> = Vec::new();
    let mut map_params: Vec<&MapDecl> = Vec::new();
    let mut gbl_params: Vec<&GblDecl> = Vec::new();
    for arg in &l.args {
        match arg {
            LoopArg::Dat { dat, via, .. } => {
                let d = program.dat(dat).expect("checked by sema");
                if !dat_params.iter().any(|p| p.name == d.name) {
                    dat_params.push(d);
                }
                if let Some((map, _)) = via {
                    let m = program.map(map).expect("checked by sema");
                    if !map_params.iter().any(|p| p.name == m.name) {
                        map_params.push(m);
                    }
                }
            }
            LoopArg::Gbl { gbl, .. } => {
                let g = program.gbl(gbl).expect("checked by sema");
                if !gbl_params.iter().any(|p| p.name == g.name) {
                    gbl_params.push(g);
                }
            }
        }
    }
    *uses_dat |= !dat_params.is_empty();
    *uses_gbl |= !gbl_params.is_empty();
    if !map_params.is_empty() {
        used.insert("Map");
    }

    // Kernel signature: one view per argument, in declaration order.
    let views: Vec<String> = l
        .args
        .iter()
        .map(|arg| match arg {
            LoopArg::Dat { dat, access, .. } => {
                view_type(*access, program.dat(dat).expect("sema").ty)
            }
            LoopArg::Gbl { gbl, access, .. } => {
                view_type(*access, program.gbl(gbl).expect("sema").ty)
            }
        })
        .collect();

    let mut params = String::from("op2: &Op2, ");
    let _ = write!(params, "{}: &Set", l.set);
    for d in &dat_params {
        let _ = write!(params, ", {}: &Dat<{}>", d.name, d.ty.rust_name());
    }
    for m in &map_params {
        let _ = write!(params, ", {}: &Map", m.name);
    }
    for g in &gbl_params {
        let _ = write!(params, ", {}: &Global<{}>", g.name, g.ty.rust_name());
    }

    let ctors: Vec<String> = l.args.iter().map(|a| arg_ctor(program, a)).collect();

    let doc_access: Vec<String> = l
        .args
        .iter()
        .map(|a| match a {
            LoopArg::Dat {
                dat,
                via: None,
                access,
                ..
            } => format!("{dat} (direct, {access:?})"),
            LoopArg::Dat {
                dat,
                via: Some((m, i)),
                access,
                ..
            } => {
                format!("{dat} (via {m}[{i}], {access:?})")
            }
            LoopArg::Gbl { gbl, access, .. } => format!("{gbl} (global, {access:?})"),
        })
        .collect();

    let _ = writeln!(out, "/// `op_par_loop_{}` over set `{}`.", l.kernel, l.set);
    let _ = writeln!(out, "///");
    let _ = writeln!(out, "/// Arguments: {}.", doc_access.join(", "));
    match backend {
        CodegenBackend::OpenMp => {
            let _ = writeln!(
                out,
                "/// Blocks until complete — implicit global barrier (stock OP2 semantics)."
            );
        }
        CodegenBackend::Hpx => {
            let _ = writeln!(
                out,
                "/// Returns the loop's completion future immediately; dependent loops\n\
                 /// chain through the dats' dataflow state (paper Figs 8-11)."
            );
        }
    }
    if layout == CodegenLayout::SoA {
        let _ = writeln!(
            out,
            "/// Dats are expected in SoA layout (`op2_core::Layout::SoA`): the\n\
             /// kernel's row views are staged from the component planes per\n\
             /// element; block-level stride-aware kernels can replace this\n\
             /// wrapper where vectorization matters."
        );
    }
    let ret = match backend {
        CodegenBackend::OpenMp => "",
        CodegenBackend::Hpx => " -> LoopHandle",
    };
    // op_par_loop wrappers legitimately take one parameter per distinct
    // dat/map/global; silence the arity lint like OP2's generated C does.
    let nparams = 2 + dat_params.len() + map_params.len() + gbl_params.len() + 1;
    if nparams > 7 {
        let _ = writeln!(out, "#[allow(clippy::too_many_arguments)]");
    }
    let _ = writeln!(
        out,
        "pub fn op_par_loop_{}<K>({params}, kernel: K){ret}",
        l.kernel
    );
    let _ = writeln!(out, "where");
    let _ = writeln!(
        out,
        "    K: for<'e> Fn({}) + Send + Sync + 'static,",
        views.join(", ")
    );
    let _ = writeln!(out, "{{");
    // The arity-free v2 builder: one `.arg` per access descriptor.
    match backend {
        CodegenBackend::OpenMp => {
            let _ = writeln!(out, "    let handle = op2");
            let _ = writeln!(out, "        .loop_(\"{}\", {})", l.kernel, l.set);
            for c in &ctors {
                let _ = writeln!(out, "        .arg({c})");
            }
            let _ = writeln!(out, "        .run(kernel);");
            let _ = writeln!(
                out,
                "    // #pragma omp parallel for equivalent: join before returning."
            );
            let _ = writeln!(out, "    handle.wait();");
        }
        CodegenBackend::Hpx => {
            let _ = writeln!(out, "    op2.loop_(\"{}\", {})", l.kernel, l.set);
            for c in &ctors {
                let _ = writeln!(out, "        .arg({c})");
            }
            let _ = writeln!(out, "        .run(kernel)");
        }
    }
    let _ = writeln!(out, "}}\n");
}

/// Emits the constructor for one `converge` declaration: a
/// [`op2_core::Convergence`] policy lowered onto the asynchronous
/// reduction path — the time loop observes each iteration's
/// `ReducedFuture` and polls `should_stop`, which drains only resolved
/// futures and therefore never blocks.
fn emit_converge(c: &ConvergeDecl, out: &mut String, used: &mut BTreeSet<&'static str>) {
    used.insert("Convergence");
    let _ = writeln!(
        out,
        "/// Convergence-driven exit for global `{}`: stop once the scaled\n\
         /// residual drops below `{:?}`, checking every {} iteration(s), hard\n\
         /// cap {} iterations. Lowered onto the async-reduction path: feed each\n\
         /// iteration's `ReducedFuture` to `Convergence::observe` and poll\n\
         /// `Convergence::should_stop` — the residual check never blocks the\n\
         /// time loop.",
        c.gbl, c.tol, c.every, c.max
    );
    let _ = writeln!(out, "pub fn {}_convergence() -> Convergence {{", c.gbl);
    let _ = writeln!(
        out,
        "    Convergence::new({:?}, {}, {})",
        c.tol, c.every, c.max
    );
    let _ = writeln!(out, "}}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const DEMO: &str = r#"
        program demo;
        set cells; set nodes;
        map pcell : cells -> nodes, dim 4;
        dat q : cells, dim 4, f64;
        dat xn : nodes, dim 2, f64;
        dat flag : cells, dim 1, i32;
        gbl rms : dim 1, f64;
        loop work over cells {
            arg q : rw;
            arg xn via pcell[0] : read;
            arg flag : read;
            arg rms gbl : inc;
        }
    "#;

    #[test]
    fn openmp_backend_blocks() {
        let p = parse(DEMO).unwrap();
        let code = generate(&p, CodegenBackend::OpenMp).unwrap();
        assert!(code.contains("pub fn op_par_loop_work<K>"));
        assert!(code.contains("handle.wait();"), "openmp must barrier");
        assert!(!code.contains("-> LoopHandle"));
        assert!(code.contains(".loop_(\"work\", cells)"));
        assert!(code.contains(".run(kernel);"));
    }

    #[test]
    fn hpx_backend_returns_future() {
        let p = parse(DEMO).unwrap();
        let code = generate(&p, CodegenBackend::Hpx).unwrap();
        assert!(code.contains("-> LoopHandle"));
        assert!(!code.contains("handle.wait();"), "hpx must not barrier");
        // Dims and arities from the declarations, as constants.
        assert!(code.contains(".arg(arg_rw(q).row::<4>())"));
        assert!(code.contains(".arg(arg_read_via(xn, pcell, 0).via::<2, 4>())"));
        assert!(code.contains(".arg(arg_read(flag).row::<1>())"));
        assert!(code.contains(".arg(arg_gbl_inc(rms).row::<1>())"));
        assert!(code.contains(".run(kernel)"));
    }

    #[test]
    fn kernel_bound_reflects_access_and_types() {
        let p = parse(DEMO).unwrap();
        let code = generate(&p, CodegenBackend::Hpx).unwrap();
        assert!(code.contains(
            "K: for<'e> Fn(&'e mut [f64], &'e [f64], &'e [i32], &'e mut [f64]) + Send + Sync + 'static"
        ));
    }

    #[test]
    fn parameters_are_deduplicated() {
        let src = r#"
            program p; set e; set n;
            map m : e -> n, dim 2;
            dat d : n, dim 1, f64;
            loop l over e {
                arg d via m[0] : inc;
                arg d via m[1] : inc;
            }
        "#;
        let p = parse(src).unwrap();
        let code = generate(&p, CodegenBackend::Hpx).unwrap();
        // `d` and `m` appear once each in the signature.
        let sig_line = code
            .lines()
            .find(|l| l.contains("pub fn op_par_loop_l"))
            .unwrap();
        assert_eq!(sig_line.matches("d: &Dat<f64>").count(), 1);
        assert_eq!(sig_line.matches("m: &Map").count(), 1);
    }

    #[test]
    fn converge_emits_a_convergence_constructor() {
        let src = r#"
            program p; set s;
            dat d : s, dim 1, f64;
            gbl resid : dim 1, f64;
            loop l over s { arg d : rw; arg resid gbl : inc; }
            converge resid : tol 1e-12, every 1, max 2000;
        "#;
        let p = parse(src).unwrap();
        let code = generate(&p, CodegenBackend::Hpx).unwrap();
        assert!(code.contains("pub fn resid_convergence() -> Convergence"));
        assert!(code.contains("Convergence::new(1e-12, 1, 2000)"));
        // The use-header imports the type.
        assert!(code.contains("Convergence"));
        let use_line = code
            .lines()
            .find(|l| l.starts_with("use op2_core::{"))
            .unwrap();
        assert!(use_line.contains("Convergence"));
    }

    #[test]
    fn semantic_errors_abort_generation() {
        let p = parse("program p; set s; loop l over s { arg nope : read; }").unwrap();
        let errs = generate(&p, CodegenBackend::Hpx).unwrap_err();
        assert!(!errs.is_empty());
    }
}
