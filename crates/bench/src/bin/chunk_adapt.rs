//! Adaptive-chunking benchmark (paper §IV-B, Figs 12/17 re-imagined for
//! the Dataflow backend): static chunk-size sweep vs feedback-driven
//! granularity on the airfoil-shaped workload.
//!
//! The static sweep hand-tunes the Dataflow node granularity
//! (`ChunkPolicy::Static`) across a power-of-two range; the adaptive
//! policy (`Auto`, the Dataflow default) starts from the conservative
//! probe default and lets measured per-element cost resolve the
//! granularity at runtime. The claim under test: **adaptive lands within ~10% of the best
//! static sweep point without hand-tuning**.
//!
//! Emits `BENCH_chunk.json`. Options: `--cells`, `--iters`, `--threads N`
//! (single value — this bench compares chunkers, not scaling), `--reps`,
//! `--json PATH`, and `--max-ratio R` (exit non-zero if the adaptive
//! policy is more than `R`x the best static time — the CI gate).

use std::time::Duration;

use airfoil_cfd::{PlainAirfoil, Problem};
use op2_app::RunConfig;
use op2_bench::Table;
use op2_core::hpx_rt::ChunkPolicy;
use op2_core::{Op2, Op2Config};
use op2_mesh::QuadMesh;

struct Args {
    cells: usize,
    iters: usize,
    threads: usize,
    reps: usize,
    json_path: String,
    max_ratio: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cells: 8_000,
        iters: 30,
        threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        reps: 2,
        json_path: "BENCH_chunk.json".to_owned(),
        max_ratio: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--cells" => args.cells = value("--cells").parse().expect("--cells"),
            "--iters" => args.iters = value("--iters").parse().expect("--iters"),
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps"),
            "--json" => args.json_path = value("--json"),
            "--max-ratio" => {
                args.max_ratio = Some(value("--max-ratio").parse().expect("--max-ratio"))
            }
            "--help" | "-h" => {
                println!(
                    "chunk_adapt options:\n\
                     --cells N       mesh size in cells (default 8000)\n\
                     --iters N       solver iterations (default 30)\n\
                     --threads N     worker threads (default min(host, 4))\n\
                     --reps N        repetitions, min-of (default 2)\n\
                     --json PATH     JSON baseline (default BENCH_chunk.json)\n\
                     --max-ratio R   fail if adaptive > R x best static (CI gate)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

/// One timed airfoil run under `config`; returns best wall time over reps.
fn run_airfoil(config: &Op2Config, mesh: &QuadMesh, iters: usize, reps: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let op2 = Op2::new(config.clone());
        let problem = Problem::declare(&op2, mesh);
        let result = op2_app::run(
            &mut PlainAirfoil::new(&op2, &problem),
            RunConfig::iterations(iters, 16),
        );
        assert!(
            result.final_residual().is_finite(),
            "diverged under {:?}",
            config.chunk
        );
        best = best.min(result.elapsed);
    }
    best
}

fn main() {
    let args = parse_args();
    let mesh = QuadMesh::with_cells(args.cells);
    println!(
        "chunk_adapt: static granularity sweep vs feedback-driven adaptive (Dataflow)\n\
         cells={} iters={} threads={} reps={}",
        mesh.ncell, args.iters, args.threads, args.reps
    );

    // Deltas over this process's runs, not absolute process-wide values —
    // robust to any warm-up work that already ticked the counters.
    let stats_before = op2_core::hpx_rt::stats::snapshot();

    let mut table = Table::new(vec!["variant", "best_seconds", "vs_best_static"]);

    // Static sweep: hand-tuned node granularity.
    let sweep: Vec<usize> = vec![32, 64, 128, 256, 512, 1024];
    let mut static_rows: Vec<(usize, f64)> = Vec::new();
    for &block in &sweep {
        let config =
            Op2Config::dataflow(args.threads).with_chunk(ChunkPolicy::Static { size: block });
        let secs = run_airfoil(&config, &mesh, args.iters, args.reps).as_secs_f64();
        static_rows.push((block, secs));
    }
    let &(best_block, best_static) = static_rows
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");

    for &(block, secs) in &static_rows {
        table.row(vec![
            format!("static{block}"),
            format!("{secs:.4}"),
            format!("{:.3}x", secs / best_static),
        ]);
    }

    // Adaptive: no hand-tuning — the probe default plus measured feedback.
    let config = Op2Config::dataflow(args.threads);
    let auto_secs = run_airfoil(&config, &mesh, args.iters, args.reps).as_secs_f64();
    let ratio = auto_secs / best_static;
    table.row(vec![
        "auto".to_owned(),
        format!("{auto_secs:.4}"),
        format!("{ratio:.3}x"),
    ]);
    println!("{}", table.render());
    println!("best static point: block={best_block} ({best_static:.4}s)");

    let (hits, misses, replans) = (
        stats_before.delta("op2.spec_cache.hits"),
        stats_before.delta("op2.spec_cache.misses"),
        stats_before.delta("op2.spec_cache.replans"),
    );
    println!("loop-spec cache: {hits} hits / {misses} misses / {replans} re-plans (this bench)");

    // Hand-rolled JSON (offline build: no serde).
    let mut json = String::from("{\n  \"bench\": \"chunk_adapt\",\n");
    json.push_str(&format!(
        "  \"cells\": {}, \"iters\": {}, \"threads\": {}, \"reps\": {}, \"host_threads\": {},\n",
        mesh.ncell,
        args.iters,
        args.threads,
        args.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str("  \"static_sweep\": [\n");
    for (i, (block, secs)) in static_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"block\": {block}, \"best_seconds\": {secs:.6}}}{}\n",
            if i + 1 < static_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"best_static\": {{\"block\": {best_block}, \"best_seconds\": {best_static:.6}}},\n"
    ));
    json.push_str(&format!(
        "  \"adaptive\": [\n    {{\"policy\": \"auto\", \"best_seconds\": {auto_secs:.6}, \
         \"ratio_vs_best_static\": {ratio:.4}}}\n"
    ));
    json.push_str(&format!(
        "  ],\n  \"spec_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \
         \"replans\": {replans}}}\n}}\n"
    ));
    std::fs::write(&args.json_path, json).expect("write JSON baseline");
    println!("wrote {}", args.json_path);

    if let Some(max_ratio) = args.max_ratio {
        if ratio > max_ratio {
            eprintln!(
                "FAIL: adaptive 'auto' is {ratio:.3}x the best static point \
                 (gate: {max_ratio}x)"
            );
            std::process::exit(1);
        }
        println!("gate passed: auto within {max_ratio}x of best static");
    }
}
