//! The prefetching iterator (paper §V): a multi-container loop through
//! `make_prefetcher_context` / `for_each_prefetch`.
//!
//! ```text
//! cargo run --release --example prefetch_scan
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use op2_hpx::hpx::{for_each_prefetch, make_prefetcher_context, ChunkPolicy, Runtime};

fn main() {
    let rt = Runtime::new(2);
    let n = 1 << 21;

    // Three containers of different element types, exactly like the
    // paper's Fig 14 (`container_1[i] = …; container_2[i] = …`).
    let positions: Vec<f64> = (0..n).map(|i| (i as f64) * 0.001).collect();
    let masses: Vec<f32> = (0..n).map(|i| 1.0 + (i % 7) as f32).collect();
    let flags: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();

    // distance factor 15 — the paper's optimum for Airfoil.
    let ctx = make_prefetcher_context(0..n, 15, (&positions[..], &masses[..], &flags[..]));
    println!(
        "prefetcher context: {} containers, distance = {} elements",
        ctx.prefetch_set().len(),
        ctx.distance()
    );

    let weighted = AtomicU64::new(0);
    for_each_prefetch(&rt, &ChunkPolicy::default(), &ctx, |i| {
        if flags[i] == 1 {
            let w = positions[i] * masses[i] as f64;
            weighted.fetch_add(w as u64, Ordering::Relaxed);
        }
    });
    println!(
        "weighted sum of flagged elements: {}",
        weighted.into_inner()
    );

    let flagged = flags.iter().filter(|&&f| f == 1).count();
    println!("flagged elements: {flagged} / {n}");
    assert_eq!(flagged, n.div_ceil(3));
}
