//! Workload runners shared by the figure binaries.

use std::sync::Arc;
use std::time::Duration;

use airfoil_cfd::{solver, Problem, SolverConfig};
use hpx_rt::{
    for_each_async, for_each_prefetch_async, make_prefetcher_context, ChunkPolicy, Runtime,
};
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
    /// Dataflow + prefetching iterator (§V).
    DataflowPrefetch {
        /// Prefetch distance factor (paper optimum: 15).
        distance: usize,
    },
}

impl Variant {
    /// Builds the corresponding [`Op2Config`].
    pub fn config(&self, threads: usize) -> Op2Config {
        match self {
            Variant::OpenMp => Op2Config::fork_join(threads),
            Variant::Dataflow => Op2Config::dataflow(threads),
            Variant::DataflowPrefetch { distance } => {
                Op2Config::dataflow(threads).with_prefetch(*distance)
            }
        }
    }

    /// Short label used in tables.
    pub fn label(&self) -> String {
        match self {
            Variant::OpenMp => "omp-parallel-for".into(),
            Variant::Dataflow => "dataflow".into(),
            Variant::DataflowPrefetch { distance } => format!("dataflow+prefetch(d={distance})"),
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
        let result = solver::run(
            &op2,
            &problem,
            &SolverConfig {
                niter: iters,
                window: 16,
                print_every: 0,
                ..SolverConfig::default()
            },
        );
        let m = Measurement {
            time: result.elapsed,
            final_rms: result.final_rms(),
        };
        best = Some(match best {
            Some(prev) if prev.time <= m.time => prev,
            _ => m,
        });
    }
    best.expect("reps >= 1")
}

/// The Fig 19/20 bandwidth workload: an `update`-shaped streaming loop
/// over four containers (reads q/old/adt, writes res), executed as a
/// dataflow task via `for_each`, with or without the prefetching iterator.
/// Returns the sustained data rate in GiB/s.
pub fn bandwidth_run(
    threads: usize,
    elements: usize,
    passes: usize,
    prefetch_distance: Option<usize>,
) -> f64 {
    let rt = Runtime::new(threads);
    let qold: Arc<Vec<f64>> = Arc::new((0..elements * 4).map(|i| i as f64).collect());
    let adt: Arc<Vec<f64>> = Arc::new(vec![1.5; elements]);
    let res: Arc<Vec<f64>> = Arc::new(vec![0.25; elements * 4]);
    let q: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
        (0..elements * 4)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect(),
    );

    // Bytes touched per element per pass: 4 reads qold + 1 read adt +
    // 4 reads res + 4 writes q, all f64.
    let bytes_per_pass = (elements * (4 + 1 + 4 + 4) * 8) as f64;

    let t0 = std::time::Instant::now();
    for _ in 0..passes {
        let body = {
            let (qold, adt, res, q) = (qold.clone(), adt.clone(), res.clone(), q.clone());
            move |e: usize| {
                let adti = 1.0 / adt[e];
                for n in 0..4 {
                    let del = adti * res[e * 4 + n];
                    let v = qold[e * 4 + n] - del;
                    q[e * 4 + n].store(v.to_bits(), std::sync::atomic::Ordering::Relaxed);
                }
            }
        };
        let chunk = ChunkPolicy::default();
        let fut = match prefetch_distance {
            None => for_each_async(&rt, &chunk, 0..elements, body),
            Some(d) => {
                let ctx = make_prefetcher_context(0..elements, d, (&qold[..], &adt[..], &res[..]));
                for_each_prefetch_async(&rt, &chunk, &ctx, Arc::new(body))
            }
        };
        fut.get();
    }
    let secs = t0.elapsed().as_secs_f64();
    bytes_per_pass * passes as f64 / secs / (1024.0 * 1024.0 * 1024.0)
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

    #[test]
    fn bandwidth_positive_with_and_without_prefetch() {
        let plain = bandwidth_run(2, 50_000, 2, None);
        let pf = bandwidth_run(2, 50_000, 2, Some(15));
        assert!(plain > 0.0);
        assert!(pf > 0.0);
    }

    #[test]
    fn variant_labels_are_distinct() {
        let labels = [
            Variant::OpenMp.label(),
            Variant::Dataflow.label(),
            Variant::DataflowPrefetch { distance: 15 }.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
