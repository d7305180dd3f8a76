//! Shared CLI parsing for the figure binaries.

/// Common figure-harness options.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Target cell count for the Airfoil mesh.
    pub cells: usize,
    /// Outer iterations per measurement.
    pub iters: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Repetitions (min-of) per point.
    pub reps: usize,
    /// Optional CSV output path.
    pub csv: Option<std::path::PathBuf>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
        SweepArgs {
            cells: 60_000,
            iters: 30,
            // The paper sweeps 1..32 on a 16-core/32-thread box; default
            // here stops at 2x the available cores (oversubscription is
            // reported, not hidden).
            threads: default_thread_sweep(hw),
            reps: 2,
            csv: None,
        }
    }
}

/// 1, 2, 4, ... up to `2 * hw` (the paper's hyperthreaded tail).
fn default_thread_sweep(hw: usize) -> Vec<usize> {
    let mut v = vec![1usize];
    while *v.last().unwrap() < 2 * hw {
        v.push(v.last().unwrap() * 2);
    }
    v
}

/// Parses `--cells`, `--iters`, `--threads a,b,c`, `--reps`, `--csv PATH`;
/// panics with a readable message on bad input.
pub fn parse_sweep_args() -> SweepArgs {
    let mut args = SweepArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--cells" => args.cells = value("--cells").parse().expect("--cells"),
            "--iters" => args.iters = value("--iters").parse().expect("--iters"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps"),
            "--threads" => {
                args.threads = value("--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            "--csv" => args.csv = Some(value("--csv").into()),
            "--paper-scale" => {
                args.cells = 720_000;
                args.iters = 100;
            }
            "--help" | "-h" => {
                println!(
                    "figure harness options:\n\
                     --cells N       Airfoil mesh size (default 60000)\n\
                     --iters N       iterations per measurement (default 30)\n\
                     --threads LIST  e.g. 1,2,4,8,16,32\n\
                     --reps N        repetitions, min-of (default 2)\n\
                     --csv PATH      also write CSV\n\
                     --paper-scale   ~720K cells, 100 iters"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    assert!(!args.threads.is_empty(), "--threads must not be empty");
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_powers_of_two_to_double_hw() {
        assert_eq!(default_thread_sweep(2), vec![1, 2, 4]);
        assert_eq!(default_thread_sweep(16), vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn defaults_are_sane() {
        let a = SweepArgs::default();
        assert!(a.cells > 0 && a.iters > 0 && !a.threads.is_empty());
    }
}
