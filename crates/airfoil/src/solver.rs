//! The Airfoil time loop (paper Fig 2): five parallel loops per
//! inner step, two inner steps per iteration.
//!
//! Under the dataflow backend no loop blocks the submitting thread: every
//! `par_loop` returns a future-backed handle and the per-dat dependency
//! chains order the work, so `save_soln` of iteration *i+1* can overlap
//! the tail of iteration *i* — the paper's loop interleaving. The `rms`
//! reduction uses a fresh [`Global`](op2_core::Global) per step, read through
//! [`Global::reduce_async`](op2_core::Global::reduce_async) futures: residual printing chains off a
//! continuation and the history is collected after the final fence, so
//! the time loop contains **zero blocking reduction reads**.

use std::time::Duration;

use op2_app::{ExitPolicy, RunConfig};
use op2_core::Op2;

use crate::app::AirfoilInstance;
use crate::setup::Problem;

/// Solver parameters.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Outer iterations (the original default is 1000).
    pub niter: usize,
    /// Backpressure window: how many outer iterations may be in flight
    /// before the submitter waits on an old one. Keeps the task graph
    /// bounded without serializing (0 = fully synchronous).
    pub window: usize,
    /// Print `rms` every so many iterations (0 = never), mirroring the
    /// original's `iter % 100` report.
    pub print_every: usize,
    /// Artificial per-cell cost skew for load-balancing studies: each
    /// cell burns `skew * |q - q_inf|` extra spin-work units in
    /// `adt_calc` (values are bitwise untouched), so cost tracks the
    /// flow field and concentrates around the bump's disturbed region —
    /// which no uniform static partition can balance. 0.0 (the default)
    /// disables the skew entirely.
    pub skew: f64,
    /// Check for rank imbalance and live-repartition every so many
    /// iterations (0 = never); see
    /// [`crate::shard::ShardedProblem::rebalance`]. A single-part problem
    /// has nothing to repartition, so there the check never fires.
    pub rebalance_every: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            niter: 1000,
            window: 16,
            print_every: 0,
            skew: 0.0,
            rebalance_every: 0,
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `sqrt(rms / ncell)` after the second inner step of each iteration.
    pub rms_history: Vec<f64>,
    /// Wall time of the whole time loop (submission to fence).
    pub elapsed: Duration,
    /// Cells in the mesh.
    pub ncell: usize,
}

impl RunResult {
    /// Final residual.
    pub fn final_rms(&self) -> f64 {
        *self.rms_history.last().expect("at least one iteration")
    }
}

/// Runs `cfg.niter` iterations of the Airfoil pseudo-timestepping loop on
/// an already-declared problem. May be called repeatedly; continues from
/// the current flow state.
///
/// The iteration body lives in [`crate::app`] ([`AirfoilInstance`]) and
/// the time loop is the generic [`op2_app::run`] harness — a
/// fixed-iteration run through it is statement-for-statement the
/// pre-refactor loop, so the output is bitwise unchanged.
pub fn run(op2: &Op2, p: &Problem, cfg: &SolverConfig) -> RunResult {
    drive(AirfoilInstance::plain(op2, p, cfg.skew), cfg)
}

/// Drives `inst` through the harness under the solver parameters — the
/// shared tail of [`run`] and [`crate::shard::run_sharded`].
pub(crate) fn drive(mut inst: AirfoilInstance<'_>, cfg: &SolverConfig) -> RunResult {
    let out = op2_app::run(
        &mut inst,
        RunConfig {
            exit: ExitPolicy::Iterations(cfg.niter),
            window: cfg.window,
            print_every: cfg.print_every,
            rebalance_every: cfg.rebalance_every,
        },
    );
    RunResult {
        rms_history: out.residuals,
        elapsed: out.elapsed,
        ncell: inst.ncell(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{max_rel_diff, max_scaled_diff};
    use op2_core::Op2Config;
    use op2_mesh::channel_with_bump;

    fn simulate(config: Op2Config, niter: usize) -> (RunResult, Vec<f64>) {
        let op2 = Op2::new(config);
        let mesh = channel_with_bump(40, 20);
        let p = Problem::declare(&op2, &mesh);
        let r = run(
            &op2,
            &p,
            &SolverConfig {
                niter,
                window: 4,
                print_every: 0,
                ..SolverConfig::default()
            },
        );
        let q = p.p_q.snapshot();
        (r, q)
    }

    #[test]
    fn seq_run_is_finite_and_produces_rms() {
        let (r, q) = simulate(Op2Config::seq(), 30);
        assert_eq!(r.rms_history.len(), 30);
        assert!(r.rms_history.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(q.iter().all(|v| v.is_finite()));
        assert!(r.final_rms() > 0.0, "bump must perturb the flow");
    }

    #[test]
    fn backends_agree_on_physics() {
        let (r_seq, q_seq) = simulate(Op2Config::seq(), 20);
        let (r_fj, q_fj) = simulate(Op2Config::fork_join(2), 20);
        let (r_df, q_df) = simulate(Op2Config::dataflow(2), 20);

        // Indirect increments are applied in a different order per
        // backend (edge order vs color rounds), so results agree to
        // accumulated-rounding precision, not bitwise.
        let d_rms_fj = max_rel_diff(&r_seq.rms_history, &r_fj.rms_history);
        let d_rms_df = max_rel_diff(&r_seq.rms_history, &r_df.rms_history);
        let d_q_fj = max_scaled_diff(&q_seq, &q_fj, 1.0);
        let d_q_df = max_scaled_diff(&q_seq, &q_df, 1.0);
        assert!(d_rms_fj < 1e-7, "fork-join rms deviates: {d_rms_fj:e}");
        assert!(d_rms_df < 1e-7, "dataflow rms deviates: {d_rms_df:e}");
        assert!(d_q_fj < 1e-9, "fork-join q deviates: {d_q_fj:e}");
        assert!(d_q_df < 1e-9, "dataflow q deviates: {d_q_df:e}");
    }

    #[test]
    fn fully_synchronous_window_matches_pipelined() {
        let op2 = Op2::new(Op2Config::dataflow(2));
        let mesh = channel_with_bump(24, 12);
        let p = Problem::declare(&op2, &mesh);
        let r1 = run(
            &op2,
            &p,
            &SolverConfig {
                niter: 5,
                window: 0,
                print_every: 0,
                ..SolverConfig::default()
            },
        );
        // Continue with a large window on the same state.
        let r2 = run(
            &op2,
            &p,
            &SolverConfig {
                niter: 5,
                window: 64,
                print_every: 0,
                ..SolverConfig::default()
            },
        );
        assert!(r1
            .rms_history
            .iter()
            .chain(&r2.rms_history)
            .all(|v| v.is_finite()));
    }
}
