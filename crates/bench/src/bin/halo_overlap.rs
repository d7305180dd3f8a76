//! Halo-exchange overlap micro-benchmark: communication hidden behind
//! interior compute vs a bulk-synchronous exchange.
//!
//! A ring of simulated ranks runs a producer/exchange/consumer chain per
//! iteration: every rank writes its owned rows, exports a slice to its
//! successor, and a consumer loop gathers owned + halo rows through an
//! identity map. An injected per-message link delay models interconnect
//! latency. Two schedules are compared:
//!
//! * **overlapped** — the sharded driver's schedule: the exchange and the
//!   consumer are submitted back to back; the consumer's interior blocks
//!   run while the messages (and their delay) are in flight, and only the
//!   boundary blocks gate on the receives;
//! * **bulk-sync** — the MPI-style baseline: every receive future is
//!   waited on before the consumer loop is even submitted, so the link
//!   delay lands squarely on the critical path of every iteration.
//!
//! Emits a JSON baseline (default `BENCH_halo.json`) for the perf
//! trajectory. Options: `--cells` (per rank), `--iters`, `--ranks`,
//! `--threads a,b,c`, `--reps`, `--latency-us`, `--csv`, `--json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_bench::{SweepArgs, Table};
use op2_core::args::{read_via, write};
use op2_core::locality::{exchange, HaloSpec, LocalityGroup};
use op2_core::transport::InProcessTransport;
use op2_core::{Dat, Map, Op2Config, Set};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    Overlapped,
    BulkSync,
}

impl Schedule {
    fn label(self) -> &'static str {
        match self {
            Schedule::Overlapped => "overlapped",
            Schedule::BulkSync => "bulk-sync",
        }
    }
}

fn spin(units: usize) {
    let mut acc = 1.0f64;
    for _ in 0..units {
        acc = (acc * 1.000001 + 1.0).sqrt();
    }
    std::hint::black_box(acc);
}

struct RankState {
    cells: Set,
    edges: Set,
    ident: Map,
    q: Dat<f64>,
    out: Dat<f64>,
}

fn run_ring(
    schedule: Schedule,
    threads: usize,
    ranks: usize,
    n: usize,
    iters: usize,
    latency: Duration,
) -> Duration {
    let halo = (n / 8).max(1);
    let link = InProcessTransport::with_delay(ranks, Some(latency));
    let group = LocalityGroup::with_transport(Op2Config::dataflow(threads), Arc::new(link));
    let mut spec = HaloSpec::empty(ranks);
    let states: Vec<RankState> = (0..ranks)
        .map(|r| {
            let op2 = group.rank(r);
            let cells = op2.decl_set(n, "cells");
            let q = op2.decl_dat_halo(&cells, 1, "q", vec![0.0f64; n + halo], halo);
            let edges = op2.decl_set(n + halo, "edges");
            let ident = op2.decl_map_halo(
                &edges,
                &cells,
                1,
                (0..(n + halo) as u32).collect(),
                "ident",
                halo,
            );
            let out = op2.decl_dat(&edges, 1, "out", vec![0.0f64; n + halo]);
            // Ring topology: rank r exports its first `halo` rows to r+1.
            let next = (r + 1) % ranks;
            spec.export_rows[r][next] = (0..halo as u32).collect();
            spec.import_range[(r + 1) % ranks][r] = n..n + halo;
            RankState {
                cells,
                edges,
                ident,
                q,
                out,
            }
        })
        .collect();
    spec.validate().expect("ring spec");
    let qs: Vec<Dat<f64>> = states.iter().map(|s| s.q.clone()).collect();

    let t0 = Instant::now();
    for it in 0..iters {
        // The q write-after-read edge against the previous consumer chains
        // the iterations without any explicit wait.
        for (r, s) in states.iter().enumerate() {
            let v = (it * ranks + r) as f64;
            group
                .rank(r)
                .loop_("produce", &s.cells)
                .arg(write(&s.q))
                .run(move |q: &mut [f64]| {
                    spin(40);
                    q[0] = v;
                });
        }
        let recvs = exchange(&group, &qs, &spec);
        if schedule == Schedule::BulkSync {
            for row in &recvs {
                for f in row {
                    f.wait();
                }
            }
        }
        for (r, s) in states.iter().enumerate() {
            group
                .rank(r)
                .loop_("consume", &s.edges)
                .arg(read_via(&s.q, &s.ident, 0))
                .arg(write(&s.out))
                .run(|q: &[f64], o: &mut [f64]| {
                    spin(40);
                    o[0] = q[0];
                });
        }
    }
    group.fence();
    t0.elapsed()
}

struct Args {
    sweep: SweepArgs,
    ranks: usize,
    latency_us: u64,
    json_path: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        sweep: SweepArgs {
            cells: 20_000,
            iters: 20,
            ..SweepArgs::default()
        },
        ranks: 4,
        latency_us: 200,
        json_path: "BENCH_halo.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--cells" => args.sweep.cells = value("--cells").parse().expect("--cells"),
            "--iters" => args.sweep.iters = value("--iters").parse().expect("--iters"),
            "--reps" => args.sweep.reps = value("--reps").parse().expect("--reps"),
            "--ranks" => args.ranks = value("--ranks").parse().expect("--ranks"),
            "--latency-us" => {
                args.latency_us = value("--latency-us").parse().expect("--latency-us")
            }
            "--threads" => {
                args.sweep.threads = value("--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            "--csv" => args.sweep.csv = Some(value("--csv").into()),
            "--json" => args.json_path = value("--json"),
            "--help" | "-h" => {
                println!(
                    "halo_overlap options:\n\
                     --cells N       owned cells per rank (default 20000)\n\
                     --iters N       producer/exchange/consumer rounds (default 20)\n\
                     --ranks N       simulated localities in the ring (default 4)\n\
                     --latency-us N  injected per-message link delay (default 200)\n\
                     --threads LIST  e.g. 1,2,4\n\
                     --reps N        repetitions, min-of (default 2)\n\
                     --csv PATH      also write CSV\n\
                     --json PATH     JSON baseline (default BENCH_halo.json)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    assert!(
        args.ranks >= 2,
        "--ranks must be at least 2: a 1-rank ring has no peer to exchange with"
    );
    let latency = Duration::from_micros(args.latency_us);

    println!("halo_overlap: exchange hidden behind interior compute vs bulk-synchronous");
    println!(
        "cells/rank={} ranks={} iters={} latency={}us reps={}",
        args.sweep.cells, args.ranks, args.sweep.iters, args.latency_us, args.sweep.reps
    );
    let mut table = Table::new(vec![
        "schedule",
        "threads",
        "best_seconds",
        "speedup_vs_bulk_sync",
    ]);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();

    for &threads in &args.sweep.threads {
        let mut bulk_best = f64::NAN;
        for schedule in [Schedule::BulkSync, Schedule::Overlapped] {
            let mut best = Duration::MAX;
            for _ in 0..args.sweep.reps.max(1) {
                best = best.min(run_ring(
                    schedule,
                    threads,
                    args.ranks,
                    args.sweep.cells,
                    args.sweep.iters,
                    latency,
                ));
            }
            let secs = best.as_secs_f64();
            if schedule == Schedule::BulkSync {
                bulk_best = secs;
            }
            let speedup = bulk_best / secs;
            rows.push((schedule.label().to_owned(), threads, secs, speedup));
            table.row(vec![
                schedule.label().to_owned(),
                threads.to_string(),
                format!("{secs:.4}"),
                format!("{speedup:.3}x"),
            ]);
        }
    }
    println!("{}", table.render());
    if let Some(csv) = &args.sweep.csv {
        table.write_csv(csv).expect("write CSV");
    }

    // Hand-rolled JSON (offline build: no serde).
    let mut json = String::from("{\n  \"bench\": \"halo_overlap\",\n");
    json.push_str(&format!(
        "  \"cells_per_rank\": {}, \"ranks\": {}, \"iters\": {}, \"latency_us\": {}, \
         \"reps\": {}, \"host_threads\": {},\n  \"results\": [\n",
        args.sweep.cells,
        args.ranks,
        args.sweep.iters,
        args.latency_us,
        args.sweep.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    for (i, (schedule, threads, secs, speedup)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"schedule\": \"{schedule}\", \"threads\": {threads}, \
             \"best_seconds\": {secs:.6}, \"speedup_vs_bulk_sync\": {speedup:.4}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.json_path, json).expect("write JSON baseline");
    println!("wrote {}", args.json_path);
}
