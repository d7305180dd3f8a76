//! `op2c` — the OP2 source-to-source translator CLI.
//!
//! ```text
//! op2c [--backend openmp|hpx] [--check] [--emit-kernels] [-o OUT.rs] INPUT.op2
//! ```

use op2_translator::{check_source, emit_kernel_skeletons, translate, CodegenBackend};

fn main() {
    let mut backend = CodegenBackend::Hpx;
    let mut check_only = false;
    let mut kernels_only = false;
    let mut output: Option<String> = None;
    let mut input: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--backend" => {
                let name = args.next().expect("missing value for --backend");
                backend = CodegenBackend::parse(&name)
                    .unwrap_or_else(|| panic!("unknown backend `{name}` (openmp|hpx)"));
            }
            "--check" => check_only = true,
            "--emit-kernels" => kernels_only = true,
            "-o" | "--output" => output = Some(args.next().expect("missing value for -o")),
            "--help" | "-h" => {
                println!(
                    "op2c: OP2 source-to-source translator\n\
                     usage: op2c [--backend openmp|hpx] [--check] [--emit-kernels] [-o OUT.rs] INPUT.op2"
                );
                return;
            }
            other if !other.starts_with('-') => input = Some(other.to_owned()),
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let Some(input) = input else {
        eprintln!("op2c: no input file (try --help)");
        std::process::exit(2);
    };
    let src =
        std::fs::read_to_string(&input).unwrap_or_else(|e| panic!("cannot read {input}: {e}"));

    if check_only {
        match check_source(&src) {
            Ok(p) => {
                println!(
                    "{input}: ok — programme `{}`: {} sets, {} maps, {} dats, {} globals, {} loops",
                    p.name,
                    p.sets.len(),
                    p.maps.len(),
                    p.dats.len(),
                    p.gbls.len(),
                    p.loops.len()
                );
            }
            Err(errors) => {
                for e in &errors {
                    eprintln!("{input}:{e}");
                }
                std::process::exit(1);
            }
        }
        return;
    }

    let result = if kernels_only {
        emit_kernel_skeletons(&src)
    } else {
        translate(&src, backend)
    };
    match result {
        Ok(code) => match output {
            Some(path) => {
                std::fs::write(&path, code).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("wrote {path}");
            }
            None => print!("{code}"),
        },
        Err(errors) => {
            for e in &errors {
                eprintln!("{input}:{e}");
            }
            std::process::exit(1);
        }
    }
}
