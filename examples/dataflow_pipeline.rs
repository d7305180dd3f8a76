//! Tour of the hpx-rt primitives the OP2 backend is built from: futures,
//! `dataflow` graphs and chunked loops — shown on a two-stage
//! pipeline of dependent parallel loops with *different* per-element
//! costs.
//!
//! ```text
//! cargo run --release --example dataflow_pipeline
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use op2_hpx::hpx::timing::time;
use op2_hpx::hpx::{channel, dataflow, for_each_chunk, ready, Runtime};

fn main() {
    // Shared, so the async loop below can name its runtime from a task.
    let rt = Arc::new(Runtime::new(2));

    // --- Futures and dataflow -------------------------------------------
    let a = dataflow(&rt, |()| 6u64, ());
    let (promise, b) = channel();
    let product = dataflow(&rt, |(a, b, c)| a * b * c, (a, b, ready(1u64)));
    promise.set_value(7u64);
    println!("dataflow(6, 7, ready(1)) = {}", product.get());

    // A diamond: one producer, two independent consumers, one join.
    let src = dataflow(&rt, |()| (0..1000u64).sum::<u64>(), ());
    let left = dataflow(&rt, |(s,)| s / 2, (src.clone(),));
    let right = dataflow(&rt, |(s,)| s % 97, (src,));
    let joined = dataflow(&rt, |(l, r)| (l, r), (left, right));
    println!("diamond -> {:?}", joined.get());

    // --- A pipeline of dependent loops ----------------------------------
    // Stage 1 is cheap per element, stage 2 is ~8x costlier. The loop runs
    // chunks of the length its caller passes; op2-core's chunk policies
    // are what choose it for OP2 loops.
    let n = 2_000_000usize;
    let chunk_len = 16_384;

    let data: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i % 1000) as f64).collect());
    let stage1 = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let stage2 = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());

    // Stage 1: cheap transform.
    let ((), t1) = time(|| {
        let (d, s1) = (Arc::clone(&data), Arc::clone(&stage1));
        for_each_chunk(&rt, chunk_len, 0..n, move |r| {
            for i in r {
                s1[i].store((d[i] * 2.0).to_bits(), Ordering::Relaxed);
            }
        });
    });

    // Stage 2: costlier per element.
    let ((), t2) = time(|| {
        let (s1, s2) = (Arc::clone(&stage1), Arc::clone(&stage2));
        for_each_chunk(&rt, chunk_len, 0..n, move |r| {
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
    let fut = dataflow(
        &rt,
        move |()| {
            for_each_chunk(&on, chunk_len, 0..100_000, |r| {
                c.fetch_add(r.len() as u64, Ordering::Relaxed);
            })
        },
        (),
    );
    println!("async loop submitted; doing other work...");
    let other = dataflow(&rt, |()| "other work done", ());
    println!("{}", other.get());
    fut.get();
    println!(
        "async loop visited {} elements",
        counter.load(Ordering::Relaxed)
    );

    println!("runtime stats: {}", rt.stats());
}
