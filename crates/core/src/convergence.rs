//! Data-dependent loop exit lowered onto the asynchronous-reduction path.
//!
//! A convergence-driven time loop ("iterate until the residual drops
//! below `tol`") naively reads the residual every iteration — a blocking
//! [`crate::Global::get`] that drains the whole pipeline at every check.
//! [`Convergence`] is the policy the `op2c` translator lowers its
//! `converge` construct onto: tolerance, check interval, iteration cap
//! and the residual's scaling. The time loop that applies it
//! (`op2_app::run`) keeps each iteration's residual as an in-flight
//! [`crate::ReducedFuture`] (from [`crate::Global::reduce_async`] or
//! `LocalityGroup::allreduce`) and decides on the *resolved prefix* of
//! them: it stops at the first one below the tolerance, and once the
//! prefix's decay rate predicts that the crossing is already submitted it
//! waits for the next residual's completion instead of submitting more.
//! So a run stops at the crossing iteration whatever the backend, and it
//! never reads a residual that has not resolved: `op2.reduce.blocking_reads`
//! stays at zero for the whole loop; the translator-generated constructor
//! plus this invariant is what the `jac` app's tests assert.

use std::sync::Arc;

/// Maps a raw reduced residual to the scaled value compared against the
/// tolerance (and printed) — e.g. Airfoil's `|v| (v / ncell).sqrt()`.
pub type ResidualMap = Arc<dyn Fn(f64) -> f64 + Send + Sync>;

/// A convergence policy over asynchronous residual reductions: stop once
/// the scaled residual drops below [`Convergence::tol`], checking the
/// iterations on the [`Convergence::every`] grid, by
/// [`Convergence::max_iters`] at the latest. Construct with
/// [`Convergence::new`] (what generated `*_convergence()` functions
/// return) and hand it to the time loop.
pub struct Convergence {
    tol: f64,
    every: usize,
    max: usize,
    scale: Option<ResidualMap>,
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

    /// The scaled value of a raw residual: what is compared against the
    /// tolerance.
    pub fn scaled(&self, raw: f64) -> f64 {
        match &self.scale {
            Some(f) => f(raw),
            None => raw,
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
}

impl std::fmt::Debug for Convergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Convergence")
            .field("tol", &self.tol)
            .field("every", &self.every)
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_applied_before_the_tolerance() {
        let mut c = Convergence::new(0.6, 1, 10);
        assert_eq!(c.scaled(4.0), 4.0, "no map: the raw value");
        // Raw residual 4.0, scale sqrt(raw)/4 => 0.5 < tol 0.6.
        c.ensure_scale(Arc::new(|raw: f64| raw.sqrt() / 4.0));
        // A map already set is kept.
        c.ensure_scale(Arc::new(|raw: f64| raw));
        assert_eq!(c.scaled(4.0), 0.5);
        assert!(c.scaled(4.0) < c.tol());
    }
}
