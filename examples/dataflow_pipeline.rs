//! Tour of the hpx-rt primitives the OP2 backend is built from: futures,
//! `dataflow` graphs, `when_all`, and chunked loops under the default
//! `auto_chunk_size` policy — shown on a two-stage pipeline of dependent
//! parallel loops with *different* per-element costs.
//!
//! ```text
//! cargo run --release --example dataflow_pipeline
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use op2_hpx::hpx::timing::time;
use op2_hpx::hpx::{dataflow, for_each_chunk, ChunkPolicy, Runtime, Val};

fn main() {
    // Shared, so the async loop below can name its runtime from a task.
    let rt = Arc::new(Runtime::new(2));

    // --- Futures and dataflow -------------------------------------------
    let a = rt.spawn_future(|| 6u64);
    let b = rt.spawn_future(|| 7u64);
    let product = dataflow(&rt, |(a, b, c)| a * b * c, (a, b, Val(1u64)));
    println!("dataflow(6, 7, Val(1)) = {}", product.get());

    // A diamond: one producer, two independent consumers, one join.
    let src = rt.spawn_future(|| (0..1000u64).sum::<u64>()).share();
    let left = src.then(&rt, |s| s / 2);
    let right = src.then(&rt, |s| s % 97);
    let joined = dataflow(&rt, |(l, r)| (l, r), (left, right));
    println!("diamond -> {:?}", joined.get());

    // --- A pipeline of dependent loops with auto chunking ---------------
    // Stage 1 is cheap per element, stage 2 is ~8x costlier. `Auto` times
    // a probe of each loop and sizes its chunks to the same target
    // duration, so the costlier stage picks smaller chunks (paper Fig 12b).
    let n = 2_000_000usize;
    let policy = ChunkPolicy::default();

    let data: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i % 1000) as f64).collect());
    let stage1 = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let stage2 = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());

    // Stage 1: cheap transform.
    let ((), t1) = time(|| {
        let (d, s1) = (Arc::clone(&data), Arc::clone(&stage1));
        for_each_chunk(&rt, &policy, 0..n, move |r| {
            for i in r {
                s1[i].store((d[i] * 2.0).to_bits(), Ordering::Relaxed);
            }
        });
    });

    // Stage 2: costlier per element (same chunk duration, smaller chunks).
    let ((), t2) = time(|| {
        let (s1, s2) = (Arc::clone(&stage1), Arc::clone(&stage2));
        for_each_chunk(&rt, &policy, 0..n, move |r| {
            for i in r {
                let x = f64::from_bits(s1[i].load(Ordering::Relaxed));
                let mut acc = x;
                for _ in 0..8 {
                    acc = (acc * 1.0001 + 1.0).sqrt();
                }
                s2[i].store(acc.to_bits(), Ordering::Relaxed);
            }
        });
    });
    for (stage, t) in [(1, t1), (2, t2)] {
        let ns = t.as_nanos() as f64 / n as f64;
        println!("stage {stage}: {ns:.2} ns per element");
    }

    let total: f64 = stage2
        .iter()
        .map(|x| f64::from_bits(x.load(Ordering::Relaxed)))
        .sum();
    println!("pipeline result: {total:.3}");

    // --- Async loop: submit, keep working, then join ---------------------
    let counter = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&counter);
    let on = Arc::clone(&rt);
    let fut = rt.spawn_future(move || {
        for_each_chunk(&on, &ChunkPolicy::default(), 0..100_000, |r| {
            c.fetch_add(r.len() as u64, Ordering::Relaxed);
        })
    });
    println!("async loop submitted; doing other work...");
    let other = rt.spawn_future(|| "other work done");
    println!("{}", other.get());
    fut.get();
    println!(
        "async loop visited {} elements",
        counter.load(Ordering::Relaxed)
    );

    println!("runtime stats: {}", rt.stats());
}
