//! Airfoil CLI: run the benchmark with any backend/optimization combo.
//!
//! ```text
//! airfoil [--cells N] [--iters N] [--threads N] [--ranks N]
//!         [--backend seq|forkjoin|dataflow] [--transport inproc|process]
//!         [--print-every N] [--rms-out PATH] [--rebalance N] [--skew S]
//! ```
//!
//! `--ranks N` (N > 1) runs the multi-locality sharded path: the mesh is
//! partitioned into N shards, each driven by its own rank, with
//! asynchronous halo exchange between them. `--transport inproc` (the
//! default) hosts all ranks in this process on one worker pool;
//! `--transport process` relaunches the binary as **N real OS processes**
//! — one rank each, rendezvousing over Unix-domain sockets in a temporary
//! directory, exchanging halos and reduction partials as real wire bytes.
//! (The child invocation is the parent's own command line plus
//! `--rank-id R --rendezvous DIR`, so every flag reaches every rank.)
//!
//! `--rebalance N` and `--skew S` act on how the ranks share the load, so
//! both need `--ranks N > 1`, as does `--transport process`. `--rebalance`
//! also needs `--transport process`: it weighs each rank by its measured
//! busy time, and ranks sharing one in-process runtime measure each other's
//! contention, not their own cost. A usage error (one of these unmet, an
//! unknown flag, `--backend` or `--transport`, a flag's value missing or
//! unparsable) exits with code 2 and a one-line message naming the flag.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use airfoil_cfd::{shard, PlainAirfoil, Problem, ShardedAirfoil};
use op2_app::{ExitPolicy, RunConfig, RunOutcome};
use op2_core::locality::implicit_halo_stats;
use op2_core::transport::{ProcessTransport, Transport};
use op2_core::{Op2, Op2Config};
use op2_mesh::{quad_stats, QuadMesh};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    cells: usize,
    iters: usize,
    threads: usize,
    ranks: usize,
    backend: String,
    transport: String,
    rank_id: Option<usize>,
    rendezvous: Option<PathBuf>,
    rms_out: Option<PathBuf>,
    print_every: usize,
    rebalance: usize,
    skew: f64,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
    let mut args = Args {
        cells: 20_000,
        iters: 100,
        threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
        ranks: 1,
        backend: "dataflow".to_owned(),
        transport: "inproc".to_owned(),
        rank_id: None,
        rendezvous: None,
        rms_out: None,
        print_every: 100,
        rebalance: 0,
        skew: 0.0,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cells" => args.cells = value(&flag, it.next()),
            "--iters" => args.iters = value(&flag, it.next()),
            "--threads" => args.threads = value(&flag, it.next()),
            "--ranks" => args.ranks = value(&flag, it.next()),
            "--backend" => args.backend = value(&flag, it.next()),
            "--transport" => args.transport = value(&flag, it.next()),
            "--rank-id" => args.rank_id = Some(value(&flag, it.next())),
            "--rendezvous" => args.rendezvous = Some(value(&flag, it.next())),
            "--rms-out" => args.rms_out = Some(value(&flag, it.next())),
            "--print-every" => args.print_every = value(&flag, it.next()),
            "--rebalance" => args.rebalance = value(&flag, it.next()),
            "--skew" => args.skew = value(&flag, it.next()),
            "--paper-scale" => args.cells = 720_000,
            "--help" | "-h" => {
                println!(
                    "airfoil: OP2/HPX Airfoil benchmark\n\
                     --cells N          target cell count (default 20000)\n\
                     --paper-scale      ~720K cells (the paper's mesh size)\n\
                     --iters N          outer iterations (default 100)\n\
                     --threads N        computing threads, the calling one included\n\
                     --ranks N          localities (sharded mesh + halo exchange)\n\
                     --backend B        seq | forkjoin | dataflow\n\
                     --transport T      inproc (all ranks in-process, default) |\n    \
                                    process (one OS process per rank, Unix sockets)\n\
                     --rms-out PATH     write the residual history to PATH (rank 0)\n\
                     --print-every N    residual print period (default 100)\n\
                     --rebalance N      live-repartition check period in iterations\n    \
                                    (0 = off, the default; needs --transport process)\n\
                     --skew S           artificial per-cell cost skew units for the\n    \
                                    load-balancing study (0 = off, the default;\n    \
                                    needs --ranks N > 1; see ShardedAirfoil::new)"
                );
                std::process::exit(0);
            }
            other => usage_error(format!("unknown flag {other} (try --help)")),
        }
    }
    args
}

/// The value given after `flag`, parsed; a usage error if it is missing or
/// does not parse.
fn value<T: std::str::FromStr>(flag: &str, given: Option<String>) -> T {
    let given = given.unwrap_or_else(|| usage_error(format!("{flag} needs a value")));
    let bad = || usage_error(format!("{flag}: bad value {given:?}"));
    given.parse().unwrap_or_else(|_| bad())
}

/// The command line of rank `rank`'s process: the parent's own, plus the
/// child-only flags. Forwarding the line whole is what guarantees a rank
/// process never runs with a solver flag silently dropped.
fn child_argv(parent: &[String], rank: usize, rendezvous: &Path) -> Vec<String> {
    let mut argv = parent.to_vec();
    argv.extend([
        "--rank-id".to_owned(),
        rank.to_string(),
        "--rendezvous".to_owned(),
        rendezvous.display().to_string(),
    ]);
    argv
}

/// Parent-mode `--transport process`: relaunch this binary as one child
/// process per rank, rendezvousing in a fresh temporary directory, and
/// propagate any child failure as a nonzero exit. Stdout is inherited, so
/// rank 0's residual lines stream through as usual.
fn launch_processes(argv: &[String], ranks: usize) -> i32 {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = std::env::temp_dir().join(format!("airfoil-rdv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create rendezvous dir");
    println!(
        "spawning {ranks} rank processes (rendezvous {})",
        dir.display()
    );
    let children: Vec<_> = (0..ranks)
        .map(|r| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(child_argv(argv, r, &dir));
            (r, cmd.spawn().expect("spawn rank process"))
        })
        .collect();
    let mut code = 0;
    for (r, mut child) in children {
        let status = child.wait().expect("wait for rank process");
        if !status.success() {
            eprintln!("rank {r} process failed: {status}");
            code = 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// Rank 0's end-of-run report: the summary line and the `--rms-out` file.
fn report(args: &Args, result: &RunOutcome) {
    println!(
        "completed {} iters on {} rank(s) in {:.3}s  ({:.2} ms/iter), final rms = {:.6e}",
        args.iters,
        args.ranks,
        result.elapsed.as_secs_f64(),
        result.elapsed.as_secs_f64() * 1e3 / args.iters as f64,
        result.final_residual()
    );
    if let Some(path) = &args.rms_out {
        let mut f = std::fs::File::create(path).expect("create --rms-out file");
        for v in &result.residuals {
            writeln!(f, "{v:.17e}").expect("write --rms-out file");
        }
    }
}

/// Stops on a usage error: one line on stderr naming the flag, exit code 2.
fn usage_error(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(argv.iter().cloned());
    // Each of these acts between ranks; `also` is what else it needs.
    for (given, flag, also) in [
        (args.rebalance > 0, "--rebalance", " --transport process"),
        (args.skew != 0.0, "--skew", ""),
        (args.transport == "process", "--transport process", ""),
    ] {
        if given && (args.ranks < 2 || !also.is_empty() && args.transport != "process") {
            usage_error(format!("{flag} needs --ranks N > 1{also}"));
        }
    }
    let config = match args.backend.as_str() {
        "seq" => Op2Config::seq(),
        "forkjoin" => Op2Config::fork_join(args.threads),
        "dataflow" => Op2Config::dataflow(args.threads),
        other => usage_error(format!("unknown --backend {other} (seq|forkjoin|dataflow)")),
    };
    match args.transport.as_str() {
        "inproc" | "process" => {}
        other => usage_error(format!("unknown --transport {other} (inproc | process)")),
    }
    if args.transport == "process" && args.rank_id.is_none() {
        std::process::exit(launch_processes(&argv, args.ranks));
    }

    let is_rank0 = args.rank_id.is_none_or(|r| r == 0);
    let mesh = QuadMesh::with_cells(args.cells);
    if is_rank0 {
        println!("mesh: {}", quad_stats(&mesh));
        println!(
            "backend: {} threads={} ranks={} transport={}",
            config.backend, config.threads, args.ranks, args.transport,
        );
    }

    let run_cfg = RunConfig {
        exit: ExitPolicy::Iterations(args.iters),
        window: 16,
        print_every: args.print_every,
        rebalance_every: args.rebalance,
    };

    if args.ranks > 1 {
        let mut shp = match args.rank_id {
            // Child of the process launcher: this process hosts exactly
            // one rank and exchanges real bytes with its peers.
            Some(rank) => {
                let dir = args
                    .rendezvous
                    .as_ref()
                    .expect("--rank-id needs --rendezvous");
                let t: Arc<dyn Transport> = Arc::new(
                    ProcessTransport::connect_unix(dir, rank, args.ranks)
                        .expect("rendezvous with peer rank processes"),
                );
                shard::ShardedProblem::declare_with_transport(config, &mesh, t)
            }
            None => shard::ShardedProblem::declare(config, &mesh, args.ranks),
        };
        let result = op2_app::run(&mut ShardedAirfoil::new(&mut shp, args.skew), run_cfg);
        if is_rank0 {
            report(&args, &result);
        }
        let first = shp.group.local_ranks().start;
        for (i, part) in shp.parts.iter().enumerate() {
            println!(
                "  rank {}: {} owned cells, {} halo rows, {} edges ({} interior)",
                first + i,
                part.cells.size(),
                part.n_halo_cells,
                part.edges.size(),
                part.n_interior_edges
            );
        }
        if is_rank0 {
            for (name, dat) in [("q", &shp.parts[0].p_q), ("adt", &shp.parts[0].p_adt)] {
                if let Some(st) = implicit_halo_stats(dat) {
                    println!(
                        "  implicit halo [{name}]: {} pair exchanges, {} refresh checks, {} skipped clean",
                        st.pair_exchanges, st.refresh_calls, st.skipped_clean
                    );
                }
            }
        }
        // Whole-job rendezvous before teardown so no process unlinks its
        // socket while a peer is still draining.
        shp.group.barrier();
        return;
    }

    let op2 = Op2::new(config);
    let problem = Problem::declare(&op2, &mesh);
    let result = op2_app::run(&mut PlainAirfoil::new(&op2, &problem), run_cfg);
    report(&args, &result);
    println!("-- per-loop stats --");
    for (name, stat) in op2.loop_stats() {
        println!(
            "  {name:12} x{:6}  total {:8.3}s",
            stat.invocations,
            stat.total.as_secs_f64()
        );
    }
    let (plans, hits) = op2.plan_cache_stats();
    println!("plans built: {plans}, cache hits: {hits}");
    let (spec_built, spec_hits) = op2.spec_cache_stats();
    println!(
        "loop-spec cache: {spec_built} schedules, {spec_hits} hits, {} granularity re-plans",
        op2.spec_cache_replans()
    );
    let submit = op2.submit_stats();
    if submit.nodes > 0 {
        println!(
            "dataflow submission: {} nodes, {} edges collected / {} wired, {} access records, \
             {:.1} us/iter building graphs",
            submit.nodes,
            submit.edges_collected,
            submit.edges_wired,
            submit.records_pushed,
            submit.submit_ns as f64 / 1e3 / args.iters.max(1) as f64
        );
    }
    // Adaptive chunking demonstration: what the feedback measured and
    // what granularity each kernel converged to.
    let measured = op2.granularity_feedback().snapshot();
    if !measured.is_empty() {
        println!("-- adaptive granularity (measured feedback) --");
        for (kernel, set, cost) in measured {
            let sets = [&problem.cells, &problem.edges, &problem.bedges];
            match sets.into_iter().find(|s| s.signature() == set) {
                Some(s) => println!(
                    "  {kernel:12} {:8.0} ns/elem  ({} samples) -> {} elems/node",
                    cost.ewma_ns_per_elem,
                    cost.samples,
                    op2_core::dataflow_resolved_block_size(&op2, &kernel, s)
                ),
                None => println!(
                    "  {kernel:12} {:8.0} ns/elem  ({} samples)",
                    cost.ewma_ns_per_elem, cost.samples
                ),
            }
        }
    }
    println!(
        "runtime: {} (workers counts the calling thread)",
        op2.runtime().stats()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// `--transport process` used to rebuild the child command line flag
    /// by flag and dropped `--skew` and `--rebalance` on the way, so the
    /// rank processes silently ran unskewed and never repartitioned.
    #[test]
    fn rank_processes_inherit_every_flag_of_the_parent() {
        let parent = argv(
            "--cells 3000 --iters 7 --threads 3 --ranks 4 --backend forkjoin \
             --transport process --print-every 5 \
             --rms-out /tmp/rms.txt --rebalance 2 --skew 400",
        );
        let given = parse_args(parent.clone());
        // Every flag above took effect, so the comparison below is not
        // between two sets of defaults.
        let defaults = parse_args(Vec::new());
        assert_ne!(given.cells, defaults.cells);
        assert_ne!(given.iters, defaults.iters);
        assert_eq!(given.threads, 3);
        assert_ne!(given.ranks, defaults.ranks);
        assert_ne!(given.backend, defaults.backend);
        assert_ne!(given.transport, defaults.transport);
        assert_ne!(given.print_every, defaults.print_every);
        assert_ne!(given.rms_out, defaults.rms_out);
        assert_ne!(given.rebalance, defaults.rebalance);
        assert_ne!(given.skew, defaults.skew);

        let child = parse_args(child_argv(&parent, 2, Path::new("/tmp/rdv")));
        assert_eq!(
            child,
            Args {
                rank_id: Some(2),
                rendezvous: Some(PathBuf::from("/tmp/rdv")),
                ..given
            }
        );
    }
}
