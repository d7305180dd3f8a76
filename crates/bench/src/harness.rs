//! Workload runners shared by the figure binaries.

use std::time::Duration;

use airfoil_cfd::{PlainAirfoil, Problem};
use op2_app::RunConfig;
use op2_core::{Op2, Op2Config};
use op2_mesh::QuadMesh;

/// Which Airfoil configuration a figure compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `#pragma omp parallel for` equivalent (fork-join, global barriers).
    OpenMp,
    /// Dataflow backend with its default `Auto` chunking (the paper's
    /// `persistent_auto_chunk_size`, §IV-B).
    Dataflow,
}

impl Variant {
    /// Builds the corresponding [`Op2Config`].
    pub fn config(&self, threads: usize) -> Op2Config {
        match self {
            Variant::OpenMp => Op2Config::fork_join(threads),
            Variant::Dataflow => Op2Config::dataflow(threads),
        }
    }
}

/// One timed Airfoil measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Best wall time over the repetitions.
    pub time: Duration,
    /// Final residual (correctness cross-check between variants).
    pub final_rms: f64,
}

/// Runs the Airfoil benchmark under `config` on `mesh`: `reps`
/// repetitions, each on a fresh world with a fresh `Problem::declare`,
/// returning the fastest. Panics if a repetition diverges.
pub fn run_airfoil(config: &Op2Config, mesh: &QuadMesh, iters: usize, reps: usize) -> Measurement {
    (0..reps.max(1))
        .map(|_| {
            let op2 = Op2::new(config.clone());
            let problem = Problem::declare(&op2, mesh);
            let result = op2_app::run(
                &mut PlainAirfoil::new(&op2, &problem),
                RunConfig::iterations(iters, 16),
            );
            let final_rms = result.final_residual();
            assert!(final_rms.is_finite(), "diverged under {:?}", config.chunk);
            Measurement {
                time: result.elapsed,
                final_rms,
            }
        })
        .min_by_key(|m| m.time)
        .expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airfoil_measurement_is_consistent_across_variants() {
        let mesh = QuadMesh::with_cells(2000);
        let a = run_airfoil(&Variant::OpenMp.config(2), &mesh, 5, 1);
        let b = run_airfoil(&Variant::Dataflow.config(2), &mesh, 5, 1);
        assert!(a.time > Duration::ZERO && b.time > Duration::ZERO);
        let rel = (a.final_rms - b.final_rms).abs() / a.final_rms.max(1e-12);
        assert!(rel < 1e-6, "variants disagree on physics: {rel:e}");
    }
}
