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

/// Runs the Airfoil benchmark: `reps` repetitions (fresh state each),
/// returning the minimum time. The mesh is built once per call.
pub fn run_airfoil(
    variant: Variant,
    threads: usize,
    cells: usize,
    iters: usize,
    reps: usize,
) -> Measurement {
    let mesh = QuadMesh::with_cells(cells);
    let mut best: Option<Measurement> = None;
    for _ in 0..reps.max(1) {
        let op2 = Op2::new(variant.config(threads));
        let problem = Problem::declare(&op2, &mesh);
        let result = op2_app::run(
            &mut PlainAirfoil::new(&op2, &problem),
            RunConfig::iterations(iters, 16),
        );
        let m = Measurement {
            time: result.elapsed,
            final_rms: result.final_residual(),
        };
        best = Some(match best {
            Some(prev) if prev.time <= m.time => prev,
            _ => m,
        });
    }
    best.expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airfoil_measurement_is_consistent_across_variants() {
        let a = run_airfoil(Variant::OpenMp, 2, 2000, 5, 1);
        let b = run_airfoil(Variant::Dataflow, 2, 2000, 5, 1);
        assert!(a.time > Duration::ZERO && b.time > Duration::ZERO);
        let rel = (a.final_rms - b.final_rms).abs() / a.final_rms.max(1e-12);
        assert!(rel < 1e-6, "variants disagree on physics: {rel:e}");
    }
}
