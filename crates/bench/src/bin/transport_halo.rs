//! Transport-generic halo-exchange bench: the overlap schedule measured
//! through the [`Transport`] abstraction, over both implementations.
//!
//! The workload is a ring: rank r exports its first `halo` owned rows to
//! rank r+1 (mod ranks). Every iteration a producer loop writes each
//! rank's owned rows, [`exchange`] moves the halo rows, and a consumer
//! loop reads owned and halo rows through an identity map. *Overlapped*
//! submits the consumer right after the exchange, so only its boundary
//! blocks gate on the receives; *bulk-sync* waits for every receive first.
//! The same ring runs over:
//!
//! * **inproc** — all ranks on one [`LocalityGroup`] over an
//!   [`InProcessTransport`] with an injected per-message link delay
//!   (deferred delivery on the timer thread). The overlapped-vs-bulk-sync
//!   speedup here is the regression-gated number: it collapses to ~1x if
//!   the delay ever blocks a worker again or the boundary/interior split
//!   stops hiding the latency.
//! * **socket** — one OS thread per rank, each driving its own single-rank
//!   [`LocalityGroup`] over a [`ProcessTransport`] rendezvoused on
//!   Unix-domain sockets (the SPMD shape and wire protocol of the real
//!   multi-process launcher). Real serialization + kernel round-trips
//!   instead of an injected delay; reported for trajectory, not gated
//!   (wire latency is the host's, not ours).
//!
//! Emits `BENCH_transport.json`. `--min-speedup X` exits nonzero when the
//! in-process overlapped schedule fails to beat bulk-sync by at least `X`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_bench::Table;
use op2_core::args::{read_via, write};
use op2_core::locality::{exchange, HaloSpec, LocalityGroup};
use op2_core::transport::{InProcessTransport, ProcessTransport, Transport};
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

/// The ring's halo spec: rank r exports its first `halo` owned rows to
/// rank r+1 (mod ranks), landing in the importer's halo region.
fn ring_spec(ranks: usize, n: usize, halo: usize) -> HaloSpec {
    let mut spec = HaloSpec::empty(ranks);
    for r in 0..ranks {
        let next = (r + 1) % ranks;
        spec.export_rows[r][next] = (0..halo as u32).collect();
        spec.import_range[next][r] = n..n + halo;
    }
    spec.validate().expect("ring spec");
    spec
}

/// One rank's per-iteration state (socket path declares exactly one of
/// these; the in-process path declares one per rank on a shared group).
struct RankState {
    cells: Set,
    edges: Set,
    ident: Map,
    q: Dat<f64>,
    out: Dat<f64>,
}

fn declare_rank(group: &LocalityGroup, rank: usize, n: usize, halo: usize) -> RankState {
    let op2 = group.rank(rank);
    let cells = op2.decl_set(n, "cells");
    let q = op2.decl_dat_halo(&cells, 1, "q", vec![0.0f64; n + halo], halo);
    let edges = op2.decl_set(n + halo, "edges");
    let ident = op2.decl_map_halo(
        &edges,
        &cells,
        1,
        (0..(n + halo) as u32).collect::<Vec<_>>(),
        "ident",
        halo,
    );
    let out = op2.decl_dat(&edges, 1, "out", vec![0.0f64; n + halo]);
    RankState {
        cells,
        edges,
        ident,
        q,
        out,
    }
}

/// Submits rank `rank`'s producer loop for iteration `it`.
fn produce(group: &LocalityGroup, s: &RankState, rank: usize, ranks: usize, it: usize) {
    let v = (it * ranks + rank) as f64;
    group
        .rank(rank)
        .loop_("produce", &s.cells)
        .arg(write(&s.q))
        .run(move |q: &mut [f64]| {
            spin(40);
            q[0] = v;
        });
}

/// Submits rank `rank`'s consumer loop (owned + halo rows through the
/// identity map — only the boundary blocks gate on the receives).
fn consume(group: &LocalityGroup, s: &RankState, rank: usize) {
    group
        .rank(rank)
        .loop_("consume", &s.edges)
        .arg(read_via(&s.q, &s.ident, 0))
        .arg(write(&s.out))
        .run(|q: &[f64], o: &mut [f64]| {
            spin(40);
            o[0] = q[0];
        });
}

/// All ranks hosted on one in-process group, the delay injected by its
/// transport on every message and hidden (or not) by the schedule — the gated configuration.
fn run_inproc(
    schedule: Schedule,
    threads: usize,
    ranks: usize,
    n: usize,
    iters: usize,
    latency: Duration,
) -> Duration {
    let halo = (n / 8).max(1);
    let spec = ring_spec(ranks, n, halo);
    let link = InProcessTransport::with_delay(ranks, Some(latency));
    let group = LocalityGroup::with_transport(Op2Config::dataflow(threads), Arc::new(link));
    let states: Vec<RankState> = (0..ranks)
        .map(|r| declare_rank(&group, r, n, halo))
        .collect();
    let qs: Vec<Dat<f64>> = states.iter().map(|s| s.q.clone()).collect();

    let t0 = Instant::now();
    for it in 0..iters {
        for (r, s) in states.iter().enumerate() {
            produce(&group, s, r, ranks, it);
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
            consume(&group, s, r);
        }
    }
    group.fence();
    t0.elapsed()
}

/// One OS thread per rank, each driving a single-rank group over its own
/// socket-backed transport — the real wire protocol, real kernel
/// round-trips instead of an injected delay. Returns the slowest rank's
/// wall time.
fn run_sockets(
    schedule: Schedule,
    threads: usize,
    ranks: usize,
    n: usize,
    iters: usize,
) -> Duration {
    let dir = std::env::temp_dir().join(format!(
        "op2-bench-transport-{}-{}",
        std::process::id(),
        schedule.label()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let halo = (n / 8).max(1);
    let elapsed = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let dir = dir.clone();
                let spec = ring_spec(ranks, n, halo);
                s.spawn(move || {
                    let t: Arc<dyn Transport> = Arc::new(
                        ProcessTransport::connect_unix(&dir, rank, ranks)
                            .expect("socket rendezvous"),
                    );
                    let group = LocalityGroup::with_transport(Op2Config::dataflow(threads), t);
                    let state = declare_rank(&group, rank, n, halo);
                    // Synchronized start so each rank times the exchange,
                    // not the peers' declaration work.
                    group.barrier();
                    let t0 = Instant::now();
                    for it in 0..iters {
                        produce(&group, &state, rank, ranks, it);
                        let recvs = exchange(&group, std::slice::from_ref(&state.q), &spec);
                        if schedule == Schedule::BulkSync {
                            for row in &recvs {
                                for f in row {
                                    f.wait();
                                }
                            }
                        }
                        consume(&group, &state, rank);
                    }
                    group.fence();
                    let elapsed = t0.elapsed();
                    group.barrier();
                    elapsed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .max()
            .expect("at least one rank")
    });
    let _ = std::fs::remove_dir_all(&dir);
    elapsed
}

struct Args {
    cells: usize,
    iters: usize,
    ranks: usize,
    threads: usize,
    reps: usize,
    latency_us: u64,
    min_speedup: Option<f64>,
    json_path: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        // Small enough per-rank that the injected latency is a real
        // fraction of an iteration — the quantity the gate protects.
        cells: 4_000,
        iters: 20,
        ranks: 4,
        threads: 2,
        reps: 2,
        latency_us: 200,
        min_speedup: None,
        json_path: PathBuf::from("BENCH_transport.json"),
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
            "--ranks" => args.ranks = value("--ranks").parse().expect("--ranks"),
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps"),
            "--latency-us" => {
                args.latency_us = value("--latency-us").parse().expect("--latency-us")
            }
            "--min-speedup" => {
                args.min_speedup = Some(value("--min-speedup").parse().expect("--min-speedup"))
            }
            "--json" => args.json_path = value("--json").into(),
            "--help" | "-h" => {
                println!(
                    "transport_halo options:\n\
                     --cells N        owned cells per rank (default 4000)\n\
                     --iters N        producer/exchange/consumer rounds (default 20)\n\
                     --ranks N        ring size (default 4)\n\
                     --threads N      worker threads per rank group (default 2)\n\
                     --reps N         repetitions, schedules alternating, min-of (default 2)\n\
                     --latency-us N   injected in-process link delay (default 200)\n\
                     --min-speedup X  exit 1 unless inproc overlap >= X (gate)\n\
                     --json PATH      JSON baseline (default BENCH_transport.json)"
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

    println!("transport_halo: overlap schedule through the Transport abstraction");
    println!(
        "cells/rank={} ranks={} iters={} latency={}us (inproc) threads={} reps={}",
        args.cells, args.ranks, args.iters, args.latency_us, args.threads, args.reps
    );
    let mut table = Table::new(vec![
        "transport",
        "schedule",
        "best_seconds",
        "speedup_vs_bulk_sync",
    ]);
    // (transport, schedule, best_seconds, speedup)
    let mut rows: Vec<(&'static str, &'static str, f64, f64)> = Vec::new();
    let mut inproc_speedup = f64::NAN;

    for transport in ["inproc", "socket"] {
        let run = |schedule| match transport {
            "inproc" => run_inproc(
                schedule,
                args.threads,
                args.ranks,
                args.cells,
                args.iters,
                latency,
            ),
            _ => run_sockets(schedule, args.threads, args.ranks, args.cells, args.iters),
        };
        // The two schedules alternate within each rep, so a burst of host
        // noise lands on both sides rather than on one side's best-of.
        let (mut bulk, mut overlapped) = (Duration::MAX, Duration::MAX);
        for _ in 0..args.reps.max(1) {
            bulk = bulk.min(run(Schedule::BulkSync));
            overlapped = overlapped.min(run(Schedule::Overlapped));
        }
        for (schedule, best) in [
            (Schedule::BulkSync, bulk),
            (Schedule::Overlapped, overlapped),
        ] {
            let secs = best.as_secs_f64();
            let speedup = bulk.as_secs_f64() / secs;
            if transport == "inproc" && schedule == Schedule::Overlapped {
                inproc_speedup = speedup;
            }
            rows.push((transport, schedule.label(), secs, speedup));
            table.row(vec![
                transport.to_owned(),
                schedule.label().to_owned(),
                format!("{secs:.4}"),
                format!("{speedup:.3}x"),
            ]);
        }
    }
    println!("{}", table.render());

    // Hand-rolled JSON (offline build: no serde).
    let mut json = String::from("{\n  \"bench\": \"transport_halo\",\n");
    json.push_str(&format!(
        "  \"cells_per_rank\": {}, \"ranks\": {}, \"iters\": {}, \"latency_us\": {}, \
         \"threads\": {}, \"reps\": {}, \"host_threads\": {},\n  \"results\": [\n",
        args.cells,
        args.ranks,
        args.iters,
        args.latency_us,
        args.threads,
        args.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    for (i, (transport, schedule, secs, speedup)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{transport}\", \"schedule\": \"{schedule}\", \
             \"best_seconds\": {secs:.6}, \"speedup_vs_bulk_sync\": {speedup:.4}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.json_path, json).expect("write JSON baseline");
    println!("wrote {}", args.json_path.display());

    if let Some(min) = args.min_speedup {
        if inproc_speedup.is_nan() || inproc_speedup < min {
            eprintln!(
                "REGRESSION: inproc overlapped speedup {inproc_speedup:.3}x < required {min:.3}x \
                 — the link delay is back on the critical path"
            );
            std::process::exit(1);
        }
        println!("gate passed: inproc overlapped speedup {inproc_speedup:.3}x >= {min:.3}x");
    }
}
