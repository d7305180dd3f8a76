//! Dynamic load balancing benchmark: feedback-driven live repartitioning
//! vs the static greedy-BFS decomposition on a skewed Airfoil workload.
//!
//! The skew models the paper's motivating imbalance: per-cell cost in
//! `adt_calc` grows where the flow field is disturbed (near the bump), so
//! the rank that owns the disturbed region becomes the straggler. The
//! adaptive variant re-runs the partitioner with cost-weighted quotas
//! between iterations and migrates rows live; the static variant keeps
//! the seed decomposition.
//!
//! Metric: **makespan** — the maximum per-rank busy time accumulated by
//! the granularity-feedback tables over the measured iterations. On an
//! oversubscribed (single-core) host, wall clock cannot see load balance;
//! per-rank busy time is exactly what a distributed run's critical path
//! would be, so the gate compares `max_r busy[r]` instead.
//!
//! Protocol per variant: warm-up iterations (the adaptive variant
//! rebalances during warm-up and converges), reset the busy counters,
//! then run the measured iterations with the decomposition frozen so both
//! variants pay zero rebalancing overhead inside the measured window.
//!
//! Emits `BENCH_rebalance.json`. Options: `--cells`, `--ranks`, `--skew`,
//! `--warmup`, `--iters`, `--every N` (rebalance cadence during warm-up),
//! `--json PATH`, and `--min-speedup S` (exit non-zero unless
//! `makespan_static / makespan_adaptive >= S` — the CI gate).

use airfoil_cfd::{ShardedAirfoil, ShardedProblem};
use op2_app::RunConfig;
use op2_bench::Table;
use op2_core::rebalance::{agree_rank_busy, imbalance_ratio};
use op2_core::Op2Config;
use op2_mesh::QuadMesh;

struct Args {
    cells: usize,
    ranks: usize,
    skew: f64,
    warmup: usize,
    iters: usize,
    every: usize,
    json_path: String,
    min_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cells: 2_000,
        ranks: 4,
        skew: 100_000.0,
        warmup: 30,
        iters: 30,
        every: 5,
        json_path: "BENCH_rebalance.json".to_owned(),
        min_speedup: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--cells" => args.cells = value("--cells").parse().expect("--cells"),
            "--ranks" => args.ranks = value("--ranks").parse().expect("--ranks"),
            "--skew" => args.skew = value("--skew").parse().expect("--skew"),
            "--warmup" => args.warmup = value("--warmup").parse().expect("--warmup"),
            "--iters" => args.iters = value("--iters").parse().expect("--iters"),
            "--every" => args.every = value("--every").parse().expect("--every"),
            "--json" => args.json_path = value("--json"),
            "--min-speedup" => {
                args.min_speedup = Some(value("--min-speedup").parse().expect("--min-speedup"))
            }
            "--help" | "-h" => {
                println!(
                    "rebalance options:\n\
                     --cells N        mesh size in cells (default 2000)\n\
                     --ranks N        localities (default 4)\n\
                     --skew S         spin units per unit of state deviation (default 100000)\n\
                     --warmup N       warm-up iterations (default 30)\n\
                     --iters N        measured iterations (default 30)\n\
                     --every N        warm-up rebalance cadence (default 5)\n\
                     --json PATH      JSON baseline (default BENCH_rebalance.json)\n\
                     --min-speedup S  fail unless adaptive makespan speedup >= S (CI gate)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

struct VariantResult {
    busy: Vec<u64>,
    makespan_ns: u64,
    total_ns: u64,
    imbalance: f64,
    final_rms: f64,
}

/// Warm up (optionally rebalancing), reset the busy counters, then run the
/// measured window with the decomposition frozen.
fn run_variant(args: &Args, mesh: &QuadMesh, rebalance_every: usize) -> VariantResult {
    let mut shp = ShardedProblem::declare(Op2Config::seq(), mesh, args.ranks);
    op2_app::run(
        &mut ShardedAirfoil::new(&mut shp, args.skew),
        RunConfig {
            rebalance_every,
            ..RunConfig::iterations(args.warmup, 4)
        },
    );
    for world in shp.group.ranks() {
        world.granularity_feedback().reset_busy();
    }
    let r = op2_app::run(
        &mut ShardedAirfoil::new(&mut shp, args.skew),
        RunConfig::iterations(args.iters, 4),
    );
    let busy = agree_rank_busy(&shp.group);
    let makespan_ns = busy.iter().copied().max().unwrap_or(0);
    let total_ns: u64 = busy.iter().sum();
    VariantResult {
        imbalance: imbalance_ratio(&busy).unwrap_or(f64::NAN),
        busy,
        makespan_ns,
        total_ns,
        final_rms: r.final_residual(),
    }
}

fn main() {
    let args = parse_args();
    let mesh = QuadMesh::with_cells(args.cells);
    println!(
        "rebalance: static decomposition vs live feedback-driven repartitioning\n\
         cells={} ranks={} skew={} warmup={} iters={} every={}",
        mesh.ncell, args.ranks, args.skew, args.warmup, args.iters, args.every
    );

    let stats_before = op2_core::hpx_rt::stats::snapshot();
    let adaptive = run_variant(&args, &mesh, args.every);
    let rows_moved = stats_before.delta("op2.rebalance.rows_moved");
    let stat = run_variant(&args, &mesh, 0);

    let d_rms = (adaptive.final_rms - stat.final_rms).abs() / stat.final_rms.abs().max(1e-30);
    assert!(
        d_rms < 1e-6,
        "adaptive and static runs diverged: relative rms diff {d_rms:e}"
    );

    let speedup = stat.makespan_ns as f64 / adaptive.makespan_ns.max(1) as f64;
    let mut table = Table::new(vec!["variant", "makespan_ms", "total_busy_ms", "imbalance"]);
    for (name, v) in [("static", &stat), ("adaptive", &adaptive)] {
        table.row(vec![
            name.to_owned(),
            format!("{:.2}", v.makespan_ns as f64 / 1e6),
            format!("{:.2}", v.total_ns as f64 / 1e6),
            format!("{:.3}x", v.imbalance),
        ]);
    }
    println!("{}", table.render());
    println!(
        "makespan speedup (static/adaptive): {speedup:.3}x; {rows_moved} rows migrated \
         during adaptive warm-up"
    );

    // Hand-rolled JSON (offline build: no serde).
    let busy_json = |b: &[u64]| {
        let items: Vec<String> = b.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let mut json = String::from("{\n  \"bench\": \"rebalance\",\n");
    json.push_str(&format!(
        "  \"cells\": {}, \"ranks\": {}, \"skew\": {}, \"warmup\": {}, \"iters\": {}, \
         \"every\": {},\n",
        mesh.ncell, args.ranks, args.skew, args.warmup, args.iters, args.every
    ));
    json.push_str("  \"metric\": \"max per-rank busy ns over the measured window\",\n");
    for (name, v) in [("static", &stat), ("adaptive", &adaptive)] {
        json.push_str(&format!(
            "  \"{name}\": {{\"makespan_ns\": {}, \"total_busy_ns\": {}, \
             \"imbalance\": {:.4}, \"busy_ns\": {}}},\n",
            v.makespan_ns,
            v.total_ns,
            v.imbalance,
            busy_json(&v.busy)
        ));
    }
    json.push_str(&format!(
        "  \"rows_moved\": {rows_moved},\n  \"makespan_speedup\": {speedup:.4}\n}}\n"
    ));
    std::fs::write(&args.json_path, json).expect("write JSON baseline");
    println!("wrote {}", args.json_path);

    if let Some(min) = args.min_speedup {
        assert!(
            rows_moved > 0,
            "adaptive variant never migrated — no load detected"
        );
        if speedup < min {
            eprintln!(
                "FAIL: adaptive makespan speedup {speedup:.3}x below the {min}x gate \
                 (static imbalance {:.3}x, adaptive {:.3}x)",
                stat.imbalance, adaptive.imbalance
            );
            std::process::exit(1);
        }
        println!("gate passed: adaptive beats static by >= {min}x on makespan");
    }
}
