//! The repo benchmark: a solve-time rig over four workloads, each timed
//! under `seq`, `forkjoin` and `dataflow`, with per-layer attribution
//! from a separate traced pass. See `benchmark/README.md`.
//!
//! ```text
//! op2-benchmark [--seed N] [--seconds S]                 every workload, both passes
//! op2-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S]
//!                                                        one pass of one workload
//! op2-benchmark --selfcheck [--seed N] [--seconds S]     the suite twice (A/A) against its bounds
//! ```
//!
//! The measuring is done in worker processes — the traced pass in one, the
//! untraced pass one per set-up — so `peak_rss_mb` is the workload's own
//! and a crash of the program under test costs one set-up (`run_worker`).

mod envinfo;
mod json;
mod layers;
mod report;
mod rig;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use report::{Report, END_TO_END, EXACT_COUNTS};
use workload::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: what a pass measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Exit code of a run on a host with fewer hardware threads than workers:
/// the numbers are printed, flagged, and must not be used.
const EXIT_OVERSUBSCRIBED: u8 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    /// Set by the supervisor on a process that does the measuring.
    worker: bool,
    /// Which set-up of the untraced pass a worker runs.
    setup: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
        worker: false,
        setup: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--worker" => args.worker = true,
            "--setup" => args.setup = value()?.parse().map_err(|e| format!("--setup: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Prints the table, writes the result file and ends standard output
/// with the contract line. Returns the pass's exit code.
fn finish(w: &Workload, report: &Report) -> u8 {
    println!("== {}: {}", w.name, w.why);
    report.print_table();
    match report.write_file() {
        Ok(path) => println!("   wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write the result file: {e}");
            return 1;
        }
    }
    println!("{}", report.contract_json().write());
    if envinfo::oversubscribed() {
        eprintln!(
            "OVERSUBSCRIBED: {} hardware thread(s) for {} workers; these numbers are scheduling artifacts",
            envinfo::nproc(),
            envinfo::THREADS
        );
        EXIT_OVERSUBSCRIBED
    } else {
        u8::from(!report.correct())
    }
}

/// What a worker process does: the whole traced pass, or one set-up of
/// the untraced pass (its outcome is the last line of standard output).
fn work(w: &'static Workload, args: &Args) -> ExitCode {
    if args.trace {
        return ExitCode::from(finish(w, &layers::traced_pass(w, args.seed, args.seconds)));
    }
    let share = args.seconds / w.setups as f64;
    let outcome = rig::one_setup(w, args.seed, args.setup, share);
    println!("{}", outcome.to_json().write());
    ExitCode::SUCCESS
}

/// Attempts the supervisor makes at one worker's job.
const MAX_ATTEMPTS: usize = 6;

/// Runs this executable with `args`, and afresh if it dies from a signal
/// or hangs. Returns its exit code and standard output.
///
/// This is here because of a defect in the program under test, found with
/// this rig: `hpx_rt`'s stack-allocated `Latch` is counted down outside
/// its lock, so the thread in `Latch::wait` can return — and pop the
/// latch's stack frame — while the last worker is still about to lock
/// and notify it. The worker then writes into a dead frame. Every
/// fork-join loop crosses that window; when this host is busy almost half
/// of the 20 s `airfoil_small` passes die of SIGSEGV, none when it is
/// quiet. The fix belongs to `hpx-rt` (a change of its own); until then a
/// crashed worker says nothing about speed, so it is reported on standard
/// error and its job done again — one set-up at a time, so a crash costs
/// seconds. Wrong *results* are not excused: they fail verification in
/// the worker like any others.
fn run_worker(args: &[String], limit: Duration) -> Result<(u8, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    for attempt in 1..=MAX_ATTEMPTS {
        let mut child = Command::new(&exe)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the worker: {e}"))?;
        let mut stdout = child.stdout.take().expect("piped stdout");
        let started = Instant::now();
        let (status, output) = std::thread::scope(|scope| {
            // Drained while waiting, so a full pipe never blocks the worker.
            let reader = scope.spawn(move || {
                let mut text = String::new();
                stdout.read_to_string(&mut text).map(|_| text)
            });
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if started.elapsed() < limit => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Ok(None) | Err(_) => {
                        // Stopped and waited for: nothing outlives this run.
                        let _ = child.kill();
                        let _ = child.wait();
                        break None;
                    }
                }
            };
            (status, reader.join().expect("the reader does not panic"))
        });
        match status.map(|s| (s, s.code())) {
            Some((_, Some(code))) => {
                let output = output.map_err(|e| format!("cannot read the worker: {e}"))?;
                return Ok((code as u8, output));
            }
            Some((status, None)) => {
                eprintln!("attempt {attempt}: the worker died ({status}): measuring again")
            }
            None => eprintln!("attempt {attempt}: the worker hung: measuring again"),
        }
    }
    Err(format!("{MAX_ATTEMPTS} attempts crashed or hung"))
}

/// One pass of one workload, its work done in worker processes. Prints
/// what the pass prints; returns its exit code and its contract line.
fn supervise(w: &'static Workload, trace: bool, args: &Args) -> Result<(u8, Json), String> {
    let worker_args: Vec<String> = ["--worker", "--workload", w.name]
        .into_iter()
        .map(str::to_owned)
        .chain(["--trace".to_owned(), u8::from(trace).to_string()])
        .chain(["--seed".to_owned(), args.seed.to_string()])
        .chain(["--seconds".to_owned(), args.seconds.to_string()])
        .collect();
    // Generous: the contract allows a run 180 s in all.
    let limit = Duration::from_secs_f64(40.0 + 2.0 * args.seconds);
    if trace {
        let (code, output) = run_worker(&worker_args, limit)?;
        print!("{output}");
        return Ok((code, Json::parse(output.lines().last().unwrap_or(""))?));
    }
    let mut setups = Vec::new();
    for k in 0..w.setups {
        let mut setup_args = worker_args.clone();
        setup_args.extend(["--setup".to_owned(), k.to_string()]);
        let (code, output) = run_worker(&setup_args, limit)?;
        if code != 0 {
            return Err(format!("set-up {k} exited with code {code}"));
        }
        let line = output.lines().last().unwrap_or("");
        setups.push(rig::SetupOutcome::from_json(&Json::parse(line)?)?);
    }
    let report = rig::pool(w, args.seed, &setups);
    Ok((finish(w, &report), report.contract_json()))
}

/// `workload -> metric -> value` of one run of the whole suite.
type Suite = Vec<(&'static str, Vec<(String, f64)>)>;

/// Every workload, untraced then traced.
fn run_suite(args: &Args) -> Result<Suite, String> {
    let mut suite = Vec::new();
    for w in &WORKLOADS {
        let mut values = Vec::new();
        for trace in [false, true] {
            let (code, line) = supervise(w, trace, args)?;
            if code != 0 {
                return Err(format!("{} (trace {trace}) exited with {code}", w.name));
            }
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.push((name.clone(), v));
            }
        }
        suite.push((w.name, values));
    }
    Ok(suite)
}

fn lookup(values: &[(String, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// A/A: the suite twice, back to back. The second run may be worse than
/// the first by at most each end-to-end metric's bound, and the exact
/// counts must repeat to the last digit.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_suite(args)?;
    let second = run_suite(args)?;
    let mut ok = true;
    println!(
        "== selfcheck (seed {}): second run against first",
        args.seed
    );
    println!(
        "   {:<18} {:<32} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (lookup(a, m.name), lookup(b, m.name));
            // All end-to-end metrics are lower-is-better.
            let worse = (y - x) / x;
            let pass = worse <= m.bound;
            ok &= pass;
            println!(
                "   {:<18} {:<32} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                name,
                m.name,
                x,
                y,
                100.0 * worse,
                100.0 * m.bound,
                if pass { "ok" } else { "BREACH" }
            );
        }
        for m in EXACT_COUNTS {
            let (x, y) = (lookup(a, m), lookup(b, m));
            let pass = x == y;
            ok &= pass;
            println!(
                "   {:<18} {:<32} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                name,
                m,
                x,
                y,
                "-",
                "exact",
                if pass { "ok" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: op2-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--selfcheck]");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        let Some(w) = workload::find(name) else {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("unknown workload {name}; known: {}", known.join(", "));
            return ExitCode::from(2);
        };
        if args.worker {
            return work(w, &args);
        }
        return match supervise(w, args.trace, &args) {
            Ok((code, _)) => ExitCode::from(code),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else {
        run_suite(&args).map(|_| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
