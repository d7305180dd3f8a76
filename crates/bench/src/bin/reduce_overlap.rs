//! Cross-rank reduction micro-benchmark: the asynchronous allreduce
//! (`LocalityGroup::allreduce`, a star of messages through rank 0) vs the
//! blocking host-side sum it replaced.
//!
//! Every simulated rank runs one compute loop per iteration that
//! increments a fresh per-rank `Global` (the Airfoil `update`/`rms`
//! pattern, with per-element spin work) and chains iterations through a
//! written dat. The per-iteration total is then consumed two ways:
//!
//! * **blocking** — the pre-redesign schedule: the host reads the reduced
//!   value inside the loop (`ReducedFuture::get_scalar` right after
//!   submission — semantically the old per-rank `get_scalar()` sum). This
//!   drains every rank's pipeline each iteration and puts the injected
//!   link delay squarely on the critical path;
//! * **async-tree** — the redesign: the allreduce result stays a future,
//!   the next iteration is submitted immediately, residual consumption
//!   chains off continuations, and the reduce (including its link delay)
//!   overlaps the following iteration's compute.
//!
//! A link delay injected by the group's transport
//! (`InProcessTransport::with_delay`) on every partial models the
//! interconnect cost of moving partials between localities. Emits a JSON baseline (default
//! `BENCH_reduce.json`). Options: `--cells` (per rank), `--iters`,
//! `--ranks`, `--threads a,b,c`, `--reps`, `--latency-us`,
//! `--min-speedup` (gate: exit non-zero if the async tree does not reach
//! this speedup over blocking at any swept thread count), `--csv`,
//! `--json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_bench::{SweepArgs, Table};
use op2_core::args::{gbl_inc, write};
use op2_core::locality::LocalityGroup;
use op2_core::transport::InProcessTransport;
use op2_core::{Dat, Global, Op2Config, ReducedFuture, Set};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    AsyncTree,
    Blocking,
}

impl Schedule {
    fn label(self) -> &'static str {
        match self {
            Schedule::AsyncTree => "async-tree",
            Schedule::Blocking => "blocking",
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
    q: Dat<f64>,
}

fn run_solve(
    schedule: Schedule,
    threads: usize,
    ranks: usize,
    n: usize,
    iters: usize,
    latency: Duration,
) -> (Duration, f64) {
    let link = InProcessTransport::with_delay(ranks, Some(latency));
    let group = LocalityGroup::with_transport(Op2Config::dataflow(threads), Arc::new(link));
    let states: Vec<RankState> = (0..ranks)
        .map(|r| {
            let op2 = group.rank(r);
            let cells = op2.decl_set(n, "cells");
            let q = op2.decl_dat(&cells, 1, "q", vec![0.0f64; n]);
            RankState { cells, q }
        })
        .collect();

    let t0 = Instant::now();
    let mut history: Vec<ReducedFuture<f64>> = Vec::with_capacity(iters);
    let mut checksum = 0.0f64;
    for it in 0..iters {
        let globals: Vec<Global<f64>> = (0..ranks).map(|_| Global::<f64>::sum(1, "rms")).collect();
        for (r, s) in states.iter().enumerate() {
            let v = (it + r) as f64;
            // The q write chains this rank's iterations (WAR/RAW through
            // the dat) like the solver's update loop.
            group
                .rank(r)
                .loop_("update", &s.cells)
                .arg(write(&s.q))
                .arg(gbl_inc(&globals[r]))
                .run(move |q: &mut [f64], acc: &mut [f64]| {
                    spin(40);
                    q[0] = v;
                    acc[0] += 1.0;
                });
        }
        let red = group.allreduce(&globals);
        match schedule {
            Schedule::Blocking => {
                // Host-side barrier: every rank's update must finalize and
                // every contribution must cross the (delayed) link before
                // the next iteration is even submitted.
                checksum += red.get_scalar();
            }
            Schedule::AsyncTree => history.push(red),
        }
    }
    group.fence();
    // Residual-history collection off the futures, outside the loop.
    checksum += history.iter().map(ReducedFuture::get_scalar).sum::<f64>();
    (t0.elapsed(), checksum)
}

struct Args {
    sweep: SweepArgs,
    ranks: usize,
    latency_us: u64,
    min_speedup: f64,
    json_path: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        sweep: SweepArgs {
            cells: 20_000,
            iters: 30,
            threads: vec![4, 8],
            ..SweepArgs::default()
        },
        ranks: 4,
        latency_us: 200,
        min_speedup: 0.0,
        json_path: "BENCH_reduce.json".to_owned(),
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
            "--min-speedup" => {
                args.min_speedup = value("--min-speedup").parse().expect("--min-speedup")
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
                    "reduce_overlap options:\n\
                     --cells N        owned cells per rank (default 20000)\n\
                     --iters N        solver iterations (default 30)\n\
                     --ranks N        simulated localities (default 4)\n\
                     --latency-us N   injected per-contribution link delay (default 200)\n\
                     --min-speedup X  fail unless async-tree reaches X vs blocking (default: no gate)\n\
                     --threads LIST   e.g. 1,2,4\n\
                     --reps N         repetitions, min-of (default 2)\n\
                     --csv PATH       also write CSV\n\
                     --json PATH      JSON baseline (default BENCH_reduce.json)"
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
        "--ranks must be at least 2: a reduction tree over one rank has nothing to combine"
    );
    let latency = Duration::from_micros(args.latency_us);

    println!("reduce_overlap: async reduction tree vs blocking host-side sum");
    println!(
        "cells/rank={} ranks={} iters={} latency={}us reps={}",
        args.sweep.cells, args.ranks, args.sweep.iters, args.latency_us, args.sweep.reps
    );
    let mut table = Table::new(vec![
        "schedule",
        "threads",
        "best_seconds",
        "speedup_vs_blocking",
    ]);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    let mut best_speedup = 0.0f64;

    for &threads in &args.sweep.threads {
        let mut blocking_best = f64::NAN;
        for schedule in [Schedule::Blocking, Schedule::AsyncTree] {
            let mut best = Duration::MAX;
            let mut checksum = 0.0;
            for _ in 0..args.sweep.reps.max(1) {
                let (elapsed, sum) = run_solve(
                    schedule,
                    threads,
                    args.ranks,
                    args.sweep.cells,
                    args.sweep.iters,
                    latency,
                );
                best = best.min(elapsed);
                checksum = sum;
            }
            // Both schedules consume identical totals — guard the workload.
            let expected = (args.ranks * args.sweep.cells * args.sweep.iters) as f64;
            assert_eq!(checksum, expected, "reduction totals diverged");
            let secs = best.as_secs_f64();
            if schedule == Schedule::Blocking {
                blocking_best = secs;
            }
            let speedup = blocking_best / secs;
            if schedule == Schedule::AsyncTree {
                best_speedup = best_speedup.max(speedup);
            }
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
    let mut json = String::from("{\n  \"bench\": \"reduce_overlap\",\n");
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
             \"best_seconds\": {secs:.6}, \"speedup_vs_blocking\": {speedup:.4}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.json_path, json).expect("write JSON baseline");
    println!("wrote {}", args.json_path);

    if args.min_speedup > 0.0 && best_speedup < args.min_speedup {
        eprintln!(
            "FAIL: async-tree best speedup {best_speedup:.3}x < required {:.3}x",
            args.min_speedup
        );
        std::process::exit(1);
    }
}
