//! Data-dependent loop exit lowered onto the asynchronous-reduction path.
//!
//! A convergence-driven time loop ("iterate until the residual drops
//! below `tol`") naively reads the residual every iteration — a blocking
//! [`crate::Global::get`] that drains the whole pipeline at every check.
//! [`Convergence`] is the non-blocking alternative the `op2c` translator
//! lowers its `converge` construct onto: each iteration's residual is an
//! in-flight [`ReducedFuture`] (from [`crate::Global::reduce_async`] or
//! `LocalityGroup::allreduce`); the policy *observes* the future and the
//! loop *polls* [`Convergence::should_stop`], which drains only the
//! futures that are already resolved. The decision therefore lags the
//! pipeline by however many iterations are still in flight (bounded by
//! the solver's backpressure window) — the loop may overshoot the
//! crossing iteration by up to that window, but it never blocks on a
//! residual read. `op2.reduce.blocking_reads` stays at zero for the whole
//! loop; the translator-generated constructor plus this invariant is what
//! the `jac` app's tests assert.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::gbl::ReducedFuture;

/// Maps a raw reduced residual to the scaled value compared against the
/// tolerance (and printed) — e.g. Airfoil's `|v| (v / ncell).sqrt()`.
pub type ResidualMap = Arc<dyn Fn(f64) -> f64 + Send + Sync>;

/// A non-blocking convergence policy over asynchronous residual
/// reductions. Construct with [`Convergence::new`] (what generated
/// `*_convergence()` functions return), feed each iteration's
/// [`ReducedFuture`] to [`Convergence::observe`], and poll
/// [`Convergence::should_stop`] — which never blocks: it inspects only
/// futures whose reductions already completed.
pub struct Convergence {
    tol: f64,
    every: usize,
    max: usize,
    scale: Option<ResidualMap>,
    /// Observed-but-unresolved residual futures, oldest first.
    queue: VecDeque<(usize, ReducedFuture<f64>)>,
    /// Most recent resolved `(iter, scaled residual)`.
    latest: Option<(usize, f64)>,
    /// First resolved `(iter, scaled residual)` below `tol`.
    converged: Option<(usize, f64)>,
}

impl Convergence {
    /// A policy that stops once the scaled residual drops below `tol`,
    /// checking every `every` iteration(s), with a hard cap of `max`
    /// iterations.
    pub fn new(tol: f64, every: usize, max: usize) -> Self {
        assert!(tol > 0.0, "convergence tolerance must be positive");
        assert!(every >= 1, "check interval must be at least 1");
        assert!(max >= 1, "iteration cap must be at least 1");
        Convergence {
            tol,
            every,
            max,
            scale: None,
            queue: VecDeque::new(),
            latest: None,
            converged: None,
        }
    }

    /// Sets the raw-to-scaled residual map (see [`ResidualMap`]) unless
    /// one is already set — the harness hook that injects the app's
    /// residual scaling into a translator-generated (scale-free) policy.
    /// The tolerance is compared against the *scaled* value, so it lives
    /// in the same units the solver prints.
    pub fn ensure_scale(&mut self, scale: ResidualMap) {
        if self.scale.is_none() {
            self.scale = Some(scale);
        }
    }

    /// The convergence tolerance (in scaled units).
    pub fn tol(&self) -> f64 {
        self.tol
    }

    /// The check interval in iterations.
    pub fn every(&self) -> usize {
        self.every
    }

    /// The hard iteration cap.
    pub fn max_iters(&self) -> usize {
        self.max
    }

    /// Observes iteration `iter`'s residual future. Iterations off the
    /// `every` grid are ignored; nothing blocks.
    pub fn observe(&mut self, iter: usize, residual: &ReducedFuture<f64>) {
        if iter.is_multiple_of(self.every) {
            self.queue.push_back((iter, residual.clone()));
        }
    }

    /// Drains every *already-resolved* observed future in order and
    /// returns whether the loop should exit: the scaled residual crossed
    /// below the tolerance, or `iter` reached the cap. **Never blocks** —
    /// a still-in-flight reduction is simply not consulted yet, so the
    /// exit may lag the crossing by the solver's in-flight window.
    pub fn should_stop(&mut self, iter: usize) -> bool {
        while let Some((it, fut)) = self.queue.front() {
            if !fut.is_ready() {
                break;
            }
            let raw = fut.get_scalar();
            let scaled = match &self.scale {
                Some(f) => f(raw),
                None => raw,
            };
            self.latest = Some((*it, scaled));
            if self.converged.is_none() && scaled < self.tol {
                self.converged = Some((*it, scaled));
            }
            self.queue.pop_front();
        }
        self.converged.is_some() || iter >= self.max
    }

    /// The first `(iteration, scaled residual)` observed below the
    /// tolerance, if any.
    pub fn converged(&self) -> Option<(usize, f64)> {
        self.converged
    }

    /// The most recent resolved `(iteration, scaled residual)`.
    pub fn latest(&self) -> Option<(usize, f64)> {
        self.latest
    }
}

impl std::fmt::Debug for Convergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Convergence")
            .field("tol", &self.tol)
            .field("every", &self.every)
            .field("max", &self.max)
            .field("pending", &self.queue.len())
            .field("converged", &self.converged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::gbl_inc;
    use crate::{Global, Op2, Op2Config};

    fn residual_future(op2: &Op2, set: &crate::Set, value: f64) -> ReducedFuture<f64> {
        let g = Global::<f64>::sum(1, "r");
        let per_elem = value / set.size() as f64;
        op2.loop_("contrib", set)
            .arg(gbl_inc(&g))
            .run(move |r: &mut [f64]| r[0] += per_elem);
        g.reduce_async(op2)
    }

    #[test]
    fn stops_at_first_residual_below_tol() {
        let op2 = Op2::new(Op2Config::seq());
        let set = op2.decl_set(4, "s");
        let mut c = Convergence::new(0.5, 1, 100);
        for (iter, v) in [(1, 2.0), (2, 1.0), (3, 0.25)] {
            let fut = residual_future(&op2, &set, v);
            op2.fence();
            c.observe(iter, &fut);
            let stop = c.should_stop(iter);
            assert_eq!(stop, iter == 3, "iteration {iter}");
        }
        let (it, r) = c.converged().expect("converged");
        assert_eq!(it, 3);
        assert!((r - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unresolved_futures_are_not_consulted_and_nothing_blocks() {
        // A future that never resolves must leave should_stop false (below
        // the cap) rather than blocking — the whole point of the design.
        let op2 = Op2::new(Op2Config::seq());
        let set = op2.decl_set(2, "s");
        let fut = residual_future(&op2, &set, 1e-30);
        op2.fence();
        let mut c = Convergence::new(1e-6, 1, 10);
        // Not observed yet: only the cap can stop the loop.
        assert!(!c.should_stop(9));
        assert!(c.should_stop(10), "cap must fire at max");
        assert!(c.converged().is_none());
        c.observe(11, &fut);
        assert!(c.should_stop(11));
        assert_eq!(c.converged().map(|(i, _)| i), Some(11));
    }

    #[test]
    fn every_grid_filters_observations() {
        let op2 = Op2::new(Op2Config::seq());
        let set = op2.decl_set(2, "s");
        let mut c = Convergence::new(1e-9, 5, 100);
        let fut = residual_future(&op2, &set, 1e-30);
        op2.fence();
        c.observe(3, &fut); // off-grid: ignored
        assert!(!c.should_stop(3));
        c.observe(5, &fut);
        assert!(c.should_stop(5));
    }

    #[test]
    fn scale_is_applied_before_the_tolerance() {
        let op2 = Op2::new(Op2Config::seq());
        let set = op2.decl_set(2, "s");
        // Raw residual 4.0, scale sqrt(raw)/4 => 0.5 < tol 0.6.
        let mut c = Convergence::new(0.6, 1, 10);
        c.ensure_scale(Arc::new(|raw: f64| raw.sqrt() / 4.0));
        // A map already set is kept.
        c.ensure_scale(Arc::new(|raw: f64| raw));
        let fut = residual_future(&op2, &set, 4.0);
        op2.fence();
        c.observe(1, &fut);
        assert!(c.should_stop(1));
        let (_, r) = c.converged().expect("converged");
        assert!((r - 0.5).abs() < 1e-12);
    }
}
