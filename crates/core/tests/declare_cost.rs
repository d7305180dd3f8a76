//! What declaring a map costs over copying its index table, as a **ratio
//! of medians taken inside one process**.
//!
//! `decl_map` validates the table's range and hashes the whole table into
//! the map's content signature (the key of the plan, spec and feedback
//! caches). A short solve declares a fresh map every time, so both passes
//! must run at about the speed the table is read: a clone of the same
//! `Vec<u32>` is the yardstick. The word-wide hash puts the ratio near 2;
//! byte-serial FNV over the table sat near 20.
//!
//! Like `crates/airfoil/tests/loop_overhead.rs`, the two operations are
//! interleaved so that whatever mode the host is in, both see it. Timing
//! assertions do not belong in the default (debug, parallel) test run: the
//! test is `#[ignore]`d and the release CI job runs it with `--ignored`.

use std::hint::black_box;
use std::time::Instant;

use op2_core::{Op2, Op2Config};

const REPS: usize = 7;
const NODES: usize = 400_000;
const EDGES: usize = 800_000;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
#[ignore = "timing: run by the release CI job with --ignored"]
fn declaring_a_map_costs_about_what_copying_its_table_costs() {
    let op2 = Op2::new(Op2Config::seq());
    let (edges, nodes) = (op2.decl_set(EDGES, "edges"), op2.decl_set(NODES, "nodes"));
    // A scattered edge -> node table of 1.6M indices.
    let table: Vec<u32> = (0..2 * EDGES as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % NODES as u64) as u32)
        .collect();

    let (mut declare, mut clone) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS + 1 {
        let owned = table.clone();
        let t = Instant::now();
        let map = op2.decl_map(&edges, &nodes, 2, owned, "pedge");
        let d = t.elapsed().as_secs_f64();
        black_box(map.signature());
        drop(map);

        let t = Instant::now();
        let copy = black_box(table.clone());
        let c = t.elapsed().as_secs_f64();
        drop(copy);

        // The first rep warms the allocator and the caches.
        if rep > 0 {
            declare.push(d);
            clone.push(c);
        }
    }
    let (d, c) = (median(declare), median(clone));
    let ratio = d / c;
    println!(
        "decl_map {:.2} ms, clone {:.2} ms, ratio {ratio:.2}",
        d * 1e3,
        c * 1e3
    );
    assert!(ratio <= 4.0, "decl_map is {ratio:.2}x a copy of its table");
}
