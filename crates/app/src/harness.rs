//! The app-agnostic time loop.
//!
//! [`run`] drives any [`AppInstance`] the way the original Airfoil
//! driver drove its five loops: per iteration it asks the instance to
//! submit one step, chains the residual print behind the previous line's
//! print node, applies the backpressure window, checks the
//! data-dependent exit, optionally live-rebalances, and fences exactly
//! once at the end. Nothing in the loop blocks on a reduction: residual
//! values are consumed through [`ReducedFuture`]s — printing via
//! continuations, the history after the final fence, and the exit of a
//! [`Convergence`] policy on the *resolved prefix* of the residuals
//! (every one on the policy's grid up to the window's trailing edge,
//! plus any later ones already resolved). The exit stops at the first
//! prefix residual below the tolerance; while the decay rate of the last
//! two prefix residuals predicts the crossing at or before the last
//! submitted iteration, the loop waits for the next residual's
//! completion instead of submitting more. Where every residual resolves
//! as it is submitted (Seq, fork-join) nothing is ever waited for; on
//! Dataflow the run stops at the crossing instead of a window past it.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_core::hpx_rt::SharedFuture;
use op2_core::locality::{HaloSpec, LocalityGroup};
use op2_core::{Convergence, Dat, Global, LoopHandle, Op2, Op2Config, ReducedFuture, ResidualMap};

/// What one [`AppInstance::step`] submitted: the iteration's residual as
/// an asynchronous-reduction future and the handles the backpressure
/// window should retain (one per rank — waiting on them bounds the
/// in-flight task graph).
pub struct StepOutput {
    /// The step's residual reduction (raw, unscaled — see
    /// [`AppInstance::residual_map`]).
    pub residual: ReducedFuture<f64>,
    /// Handles gating this iteration for the backpressure window.
    pub gates: Vec<LoopHandle>,
}

/// The world(s) an instance's parts are declared on, one part per world
/// in rank order. A bare [`Op2`] is the one-part case of a
/// [`LocalityGroup`], so an app writes its declaration and its step once,
/// over `worlds().iter().zip(parts)`, and everything that differs between
/// a plain and a sharded run is answered here. `G` lets an instance own
/// its group (the default) or borrow one its problem owns.
pub enum Worlds<'a, G = LocalityGroup> {
    /// A single part on a borrowed world: no partition, no halo.
    One(&'a Op2),
    /// One part per locally hosted rank of a locality group.
    Group(G),
}

impl<G: Borrow<LocalityGroup>> Worlds<'_, G> {
    /// The worlds the parts live on: part `i` runs on `worlds()[i]`.
    pub fn worlds(&self) -> &[Op2] {
        match self {
            Worlds::One(op2) => std::slice::from_ref(op2),
            Worlds::Group(group) => group.borrow().ranks(),
        }
    }

    /// Ties the parts' shards of one logical dat into a halo ring, so
    /// loops reading stale import rows refresh them implicitly. A single
    /// part has no peers to link.
    pub fn link_halo(&self, shards: &[Dat<f64>], spec: &HaloSpec) {
        if let Worlds::Group(group) = self {
            group.borrow().link_halo(shards, spec);
        }
    }

    /// Fans the parts' partial reductions (`partials[i]` was incremented
    /// by part `i`'s loop) into the step's residual future: the single
    /// part's asynchronous read, or the cross-rank allreduce tree.
    /// Neither blocks.
    pub fn residual(&self, partials: &[Global<f64>]) -> ReducedFuture<f64> {
        match self {
            Worlds::One(op2) => partials[0].reduce_async(op2),
            Worlds::Group(group) => group.borrow().allreduce(partials),
        }
    }

    /// [`AppInstance::prints_here`]: under a distributed transport only
    /// the process hosting rank 0 prints.
    pub fn prints_here(&self) -> bool {
        match self {
            Worlds::One(_) => true,
            Worlds::Group(group) => group.borrow().local_ranks().contains(&0),
        }
    }

    /// [`AppInstance::fence`]: waits for everything submitted on any part.
    pub fn fence(&self) {
        for world in self.worlds() {
            world.fence();
        }
    }

    /// [`AppInstance::state`]: assembles a logical dat of `nrows` global
    /// rows of `dim` scalars from the parts' shards, each given with the
    /// global row of every row it owns (local owned row `i` is global row
    /// `owned[i]`), or with `None` for a shard that is the whole dat in
    /// global order. Waits for pending writers.
    ///
    /// # Panics
    ///
    /// If the group spans processes: each holds only its own shards.
    pub fn gather<'p>(
        &self,
        nrows: usize,
        dim: usize,
        shards: impl IntoIterator<Item = (&'p Dat<f64>, Option<&'p [u32]>)>,
    ) -> Vec<f64> {
        if let Worlds::Group(group) = self {
            let group = group.borrow();
            assert!(
                group.local_ranks().len() == group.nranks(),
                "gathering state needs every rank's rows in this process"
            );
        }
        let mut out = vec![0.0; nrows * dim];
        for (dat, owned) in shards {
            let local = dat.read();
            let Some(owned) = owned else {
                out.copy_from_slice(&local);
                continue;
            };
            for (i, &g) in owned.iter().enumerate() {
                out[g as usize * dim..][..dim].copy_from_slice(local.row(i));
            }
        }
        out
    }
}

/// What one successful rebalance did (moved here from the Airfoil shards
/// so the harness can report it app-agnostically).
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// The agreed per-rank busy nanoseconds the decision was taken from.
    pub busy_ns: Vec<u64>,
    /// Quantized per-element cost level of each rank's old shard.
    pub levels: Vec<u64>,
    /// Rows that changed owner rank.
    pub rows_crossing: usize,
    /// Cached loop schedules retired with the old shards.
    pub specs_dropped: usize,
}

/// A declared application ready to iterate: one object per world (plain)
/// or locality group (sharded), owning or borrowing its sets, maps and
/// dats. [`run`] is generic over this trait, so instances may borrow
/// (`PlainAirfoil<'a>`) or own (`Box<dyn AppInstance>`) their problem.
pub trait AppInstance {
    /// Submits one time-loop iteration (`iter` counts from 1) and
    /// returns its residual future and window gates. Must not block.
    fn step(&mut self, iter: usize) -> StepOutput;

    /// Maps the raw reduced residual to the reported one (e.g. the
    /// Airfoil `sqrt(rms / ncell)`). Applied to printed lines, the
    /// convergence check and the collected history alike.
    fn residual_map(&self) -> ResidualMap;

    /// Whether this process prints residual lines (under a distributed
    /// transport only the process hosting rank 0 does).
    fn prints_here(&self) -> bool {
        true
    }

    /// Waits for everything submitted so far (the run's single fence).
    fn fence(&self);

    /// Checks for imbalance and live-repartitions; `None` means nothing
    /// changed. Plain (single-world) instances keep the default.
    fn rebalance(&mut self) -> Option<RebalanceReport> {
        None
    }

    /// The evolving primary state, flattened for cross-backend
    /// comparison (sharded instances gather owned rows into global
    /// numbering). Call after [`run`] — it does not fence.
    fn state(&self) -> Vec<f64>;
}

/// An application: the factory for [`AppInstance`]s plus its `.op2`
/// source. One value per workload (airfoil, heat, jac), reusable across
/// worlds — the app-matrix tests iterate `&[&dyn App]`.
pub trait App {
    /// Short name (also the generated programme name).
    fn name(&self) -> &'static str;

    /// The `.op2` spec this app's wrappers were generated from.
    fn spec(&self) -> &'static str;

    /// Declares the app on an existing world; declaring it again on the
    /// same world reuses that world's warm schedules by shape. The
    /// instance borrows the world, so it lives no longer than `op2`.
    fn declare<'a>(&self, op2: &'a Op2) -> Box<dyn AppInstance + 'a>;

    /// Declares the app sharded over `nranks` simulated localities.
    fn declare_sharded(&self, config: Op2Config, nranks: usize) -> Box<dyn AppInstance>;

    /// The run configuration the app's spec asks for (apps with a
    /// `converge` declaration exit on it).
    fn default_run(&self) -> RunConfig;
}

/// When the time loop ends.
pub enum ExitPolicy {
    /// Exactly this many iterations.
    Iterations(usize),
    /// Data-dependent: stop at the first iteration on the policy's grid
    /// whose scaled residual is below tolerance (read through resolved
    /// futures only — see the module docs), with the policy's cap as the
    /// iteration bound.
    Converge(Convergence),
}

/// Harness parameters: when the run ends, how far submission runs ahead,
/// what it prints and how often it rebalances. Every app, Airfoil
/// included, is run with these and nothing else.
pub struct RunConfig {
    /// Exit policy (iteration count or convergence).
    pub exit: ExitPolicy,
    /// Backpressure window: in-flight iterations before the submitter
    /// waits on the oldest (0 = unbounded). It bounds how far submission
    /// runs ahead, not where an [`ExitPolicy::Converge`] run stops: the
    /// exit waits for a residual as soon as the measured decay predicts
    /// the crossing among the submitted iterations, so the run stops at
    /// the crossing, with any window, unbounded included, as long as the
    /// residual does not decay faster than the prefix predicts (a run
    /// that does may pass the crossing, never by more than the window
    /// when it is bounded).
    pub window: usize,
    /// Print the scaled residual every so many iterations (0 = never).
    pub print_every: usize,
    /// Call [`AppInstance::rebalance`] every so many iterations (0 =
    /// never; skipped after the final iteration).
    pub rebalance_every: usize,
}

impl RunConfig {
    /// A fixed-length run with the given window, nothing printed.
    pub fn iterations(niter: usize, window: usize) -> RunConfig {
        RunConfig {
            exit: ExitPolicy::Iterations(niter),
            window,
            print_every: 0,
            rebalance_every: 0,
        }
    }

    /// A convergence-driven run with the given window, nothing printed.
    pub fn converge(conv: Convergence, window: usize) -> RunConfig {
        RunConfig {
            exit: ExitPolicy::Converge(conv),
            window,
            print_every: 0,
            rebalance_every: 0,
        }
    }
}

/// Result of a [`run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The scaled residual of every completed iteration.
    pub residuals: Vec<f64>,
    /// Wall time of the whole time loop (submission to fence).
    pub elapsed: Duration,
    /// Iterations actually run (`< max` iff the exit converged early).
    pub iterations: usize,
    /// `(iteration, scaled residual)` of the observation that crossed
    /// the tolerance, if the run exited on convergence.
    pub converged: Option<(usize, f64)>,
}

impl RunOutcome {
    /// Final scaled residual.
    pub fn final_residual(&self) -> f64 {
        *self.residuals.last().expect("at least one iteration")
    }
}

/// A convergence-driven run's exit: the policy plus the resolved prefix
/// of the residuals on its grid (see the module docs).
struct Exit {
    conv: Convergence,
    /// The first grid iteration past the prefix.
    next: usize,
    /// The last two prefix residuals (scaled), the older first.
    last: [Option<f64>; 2],
    /// The first prefix `(iteration, scaled residual)` below tolerance.
    converged: Option<(usize, f64)>,
}

impl Exit {
    fn new(conv: Convergence) -> Exit {
        Exit {
            next: conv.every(),
            conv,
            last: [None; 2],
            converged: None,
        }
    }

    /// Extends the prefix after iteration `iter` was submitted (`futs`
    /// holds every residual so far) and returns whether the loop stops.
    /// A residual is waited for (its completion, never a blocking read)
    /// only if it is at or behind the window's trailing edge, whose
    /// gates were just waited for, or if the crossing is predicted among
    /// the submitted iterations.
    fn stops_after(&mut self, iter: usize, window: usize, futs: &[ReducedFuture<f64>]) -> bool {
        while self.converged.is_none() && self.next <= iter {
            let fut = &futs[self.next - 1];
            if !fut.is_ready() {
                let behind = window > 0 && self.next + window <= iter;
                if !behind && !self.predicts_crossing_by(iter) {
                    break;
                }
                fut.done().wait();
            }
            let r = self.conv.scaled(fut.get_scalar());
            self.last = [self.last[1], Some(r)];
            if r < self.conv.tol() {
                self.converged = Some((self.next, r));
            }
            self.next += self.conv.every();
        }
        self.converged.is_some() || iter >= self.conv.max_iters()
    }

    /// Whether the geometric decay of the last two prefix residuals puts
    /// the crossing at or before the last grid iteration up to `iter`.
    /// With fewer than two the rate is unknown, and the crossing may be
    /// anywhere.
    fn predicts_crossing_by(&self, iter: usize) -> bool {
        let [Some(older), Some(newer)] = self.last else {
            return true;
        };
        let rate = newer / older;
        let steps = (iter + self.conv.every() - self.next) / self.conv.every();
        rate < 1.0 && newer * rate.powi(i32::try_from(steps).unwrap_or(i32::MAX)) < self.conv.tol()
    }
}

/// Runs the time loop over `inst` (see module docs for the loop shape).
///
/// With `ExitPolicy::Iterations` the control flow is statement-for-
/// statement the pre-harness Airfoil driver: same submission order, same
/// print chaining, same window drain, same single fence — which is what
/// keeps a 1-rank Seq airfoil run bitwise identical to the old code.
pub fn run<I: AppInstance + ?Sized>(inst: &mut I, cfg: RunConfig) -> RunOutcome {
    let scale = inst.residual_map();
    let prints_here = inst.prints_here();
    let (max_iters, mut exit) = match cfg.exit {
        ExitPolicy::Iterations(n) => (n, None),
        ExitPolicy::Converge(mut c) => {
            // The policy compares what the app reports: inject the app's
            // scaling unless the caller already set one.
            c.ensure_scale(Arc::clone(&scale));
            (c.max_iters(), Some(Exit::new(c)))
        }
    };
    let t0 = Instant::now();

    let mut futs: Vec<ReducedFuture<f64>> = Vec::with_capacity(max_iters);
    // Backpressure window: the waited prefix is drained, so handle
    // memory is O(window * nranks), not O(niter * nranks).
    let mut window_gates: VecDeque<Vec<LoopHandle>> = VecDeque::with_capacity(cfg.window + 1);
    // Print nodes chain linearly so residual lines stay ordered without
    // a blocking read in the loop.
    let mut last_print: Option<SharedFuture<()>> = None;
    let mut iterations = 0;

    for iter in 1..=max_iters {
        let StepOutput { residual, gates } = inst.step(iter);

        if prints_here && cfg.print_every > 0 && iter % cfg.print_every == 0 {
            let after: Vec<SharedFuture<()>> = last_print.iter().cloned().collect();
            let scale = Arc::clone(&scale);
            last_print = Some(residual.then_after(&after, move |v| {
                println!(" {iter:6} {:10.5e}", scale(v[0]));
            }));
        }
        futs.push(residual);
        window_gates.push_back(gates);

        // Backpressure: bound in-flight iterations across all ranks,
        // draining the waited handles out of the window. A
        // convergence-driven run also waits for the leaving iteration's
        // residual, inside the exit check below.
        if cfg.window > 0 && window_gates.len() > cfg.window {
            for h in window_gates.pop_front().expect("window is non-empty") {
                h.wait();
            }
        }
        iterations = iter;

        if let Some(exit) = exit.as_mut() {
            if exit.stops_after(iter, cfg.window, &futs) {
                break;
            }
        }

        // Feedback-driven live repartitioning: between iterations, never
        // after the last one.
        if cfg.rebalance_every > 0 && iter % cfg.rebalance_every == 0 && iter < max_iters {
            if let Some(rep) = inst.rebalance() {
                if prints_here {
                    eprintln!(
                        " rebalance @ iter {iter}: levels {:?}, {} rows changed rank, \
                         {} cached schedules retired",
                        rep.levels, rep.rows_crossing, rep.specs_dropped
                    );
                }
            }
        }
    }

    // One fence at the end — the only global synchronization of the run
    // (it also covers the tracked reduce and print nodes).
    inst.fence();
    let elapsed = t0.elapsed();

    let residuals: Vec<f64> = futs.iter().map(|r| scale(r.get_scalar())).collect();
    let converged = exit.and_then(|e| e.converged);

    RunOutcome {
        residuals,
        elapsed,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::args::{gbl_inc, rw};
    use op2_core::hpx_rt::stats;
    use op2_core::{Dat, Global, Set};

    /// A scalar toy app: one dat halves itself each step (down to
    /// `floor`), the residual is the sum of its values — so the scaled
    /// residual sequence is exactly `1/2, 1/4, ...` and convergence
    /// behavior is analytic.
    struct Halver {
        op2: Op2,
        cells: Set,
        x: Dat<f64>,
        floor: f64,
    }

    impl Halver {
        fn new(n: usize) -> Halver {
            Halver::on(Op2Config::seq(), n, 0.0)
        }

        fn on(config: Op2Config, n: usize, floor: f64) -> Halver {
            let op2 = Op2::new(config);
            let cells = op2.decl_set(n, "cells");
            let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; n]);
            Halver {
                op2,
                cells,
                x,
                floor,
            }
        }
    }

    impl AppInstance for Halver {
        fn step(&mut self, _iter: usize) -> StepOutput {
            let g = Global::<f64>::sum(1, "total");
            let floor = self.floor;
            let h = self
                .op2
                .loop_("halve", &self.cells)
                .arg(rw(&self.x))
                .arg(gbl_inc(&g))
                .run(move |x: &mut [f64], t: &mut [f64]| {
                    x[0] = (x[0] * 0.5).max(floor);
                    t[0] += x[0];
                });
            StepOutput {
                residual: g.reduce_async(&self.op2),
                gates: vec![h],
            }
        }

        fn residual_map(&self) -> ResidualMap {
            let n = self.cells.size() as f64;
            Arc::new(move |v| v / n)
        }

        fn fence(&self) {
            self.op2.fence();
        }

        fn state(&self) -> Vec<f64> {
            self.x.snapshot()
        }
    }

    /// Runs a Dataflow Halver of 8 cells and checks that the exit never
    /// blocked on a residual. No other test in this crate reads an
    /// unresolved reduction, so the process-wide counter is this run's.
    fn run_dataflow(floor: f64, cfg: RunConfig) -> RunOutcome {
        let before = stats::snapshot();
        let out = run(&mut Halver::on(Op2Config::dataflow(2), 8, floor), cfg);
        assert_eq!(before.delta("op2.reduce.blocking_reads"), 0);
        out
    }

    #[test]
    fn fixed_iterations_run_to_the_count() {
        let mut app = Halver::new(8);
        let out = run(&mut app, RunConfig::iterations(5, 2));
        assert_eq!(out.iterations, 5);
        assert_eq!(out.residuals.len(), 5);
        assert!(out.converged.is_none());
        // Scaled residual of iteration k is 2^-k.
        for (k, r) in out.residuals.iter().enumerate() {
            assert_eq!(*r, 0.5f64.powi(k as i32 + 1));
        }
        assert!(app.state().iter().all(|&v| v == 0.5f64.powi(5)));
    }

    #[test]
    fn convergence_exit_stops_early() {
        let mut app = Halver::new(4);
        // 2^-k < 1e-3 first at k = 10; Seq resolves each residual as it
        // is submitted, so the exit lands exactly there.
        let out = run(
            &mut app,
            RunConfig::converge(Convergence::new(1e-3, 1, 100), 2),
        );
        assert_eq!(out.iterations, 10);
        let (at, value) = out.converged.expect("must converge");
        assert_eq!(at, 10);
        assert!(value < 1e-3);
        assert_eq!(out.residuals.len(), 10);
    }

    #[test]
    fn dataflow_exit_lands_exactly_at_the_crossing() {
        // 2^-k < 1e-12 first at k = 40, well past the window of 16: the
        // submitter could run 16 iterations past the crossing, but the
        // prefix's exact rate of 1/2 predicts it, and the loop waits there.
        for window in [16, 0] {
            let out = run_dataflow(
                0.0,
                RunConfig::converge(Convergence::new(1e-12, 1, 100), window),
            );
            assert_eq!(out.iterations, 40, "window {window}");
            assert_eq!(
                out.converged,
                Some((40, 0.5f64.powi(40))),
                "window {window}"
            );
        }
    }

    #[test]
    fn a_residual_that_stops_decaying_runs_to_the_cap() {
        // The residual settles at 2^-20 > tol: the rate reads 1, no
        // crossing is ever predicted, and the cap ends the run.
        let out = run_dataflow(
            0.5f64.powi(20),
            RunConfig::converge(Convergence::new(1e-12, 1, 60), 4),
        );
        assert_eq!(out.iterations, 60);
        assert!(out.converged.is_none());
        assert_eq!(out.final_residual(), 0.5f64.powi(20));
    }

    #[test]
    fn the_exit_lands_on_the_every_grid() {
        // Checked every 3 iterations (heat's `every 50` shape): 2^-39 on
        // the grid is still above 1e-12, so the exit is 42, not 40.
        let out = run_dataflow(
            0.0,
            RunConfig::converge(Convergence::new(1e-12, 3, 100), 16),
        );
        assert_eq!(out.iterations, 42);
        assert_eq!(out.converged, Some((42, 0.5f64.powi(42))));
    }

    #[test]
    fn convergence_cap_bounds_a_non_converging_run() {
        let mut app = Halver::new(4);
        let out = run(
            &mut app,
            RunConfig::converge(Convergence::new(1e-300, 1, 7), 0),
        );
        assert_eq!(out.iterations, 7);
        assert!(out.converged.is_none());
    }
}
