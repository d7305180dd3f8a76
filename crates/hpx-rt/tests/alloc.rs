//! What a dataflow node costs the allocator, counted: one frame per node
//! and no block per edge. A counting `#[global_allocator]` sees every
//! thread of the process, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use hpx_rt::{channel, schedule_after, Runtime, SharedFuture};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// side effect that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NODES: usize = 10_000;

/// Blocks allocated (or grown) per node while `NODES` nodes are built on
/// the same `edges` pending predecessors, the predecessors complete, and
/// every node runs on a two-worker runtime.
fn blocks_per_node(rt: &Runtime, edges: usize) -> f64 {
    let (promises, deps): (Vec<_>, Vec<SharedFuture<()>>) =
        (0..edges).map(|_| channel::<()>()).unzip();
    let ran = Arc::new(AtomicUsize::new(0));
    let mut nodes: Vec<SharedFuture<()>> = Vec::with_capacity(NODES);

    BLOCKS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..NODES {
        let ran = Arc::clone(&ran);
        nodes.push(schedule_after(rt, &deps, move || {
            ran.fetch_add(1, Ordering::Relaxed);
        }));
    }
    for promise in promises {
        promise.set_value(());
    }
    for node in &nodes {
        node.wait();
    }
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(ran.load(Ordering::Relaxed), NODES);
    BLOCKS.load(Ordering::SeqCst) as f64 / NODES as f64
}

#[test]
fn a_node_is_one_frame_and_an_edge_is_no_block() {
    let rt = Runtime::new(2);
    let per_node: Vec<(usize, f64)> = [1, 4, 16]
        .into_iter()
        .map(|edges| (edges, blocks_per_node(&rt, edges)))
        .collect();
    println!("blocks per node by pending predecessors: {per_node:?}");
    let (_, one_edge) = per_node[0];
    assert!(
        one_edge >= 1.0,
        "a node is at least its frame: {per_node:?}"
    );
    // The frame, the doublings of its predecessor's waiter list and of the
    // task queues (amortised to nothing over 10 000 nodes), a batch buffer
    // per steal.
    assert!(one_edge <= 3.0, "{per_node:?}");
    // More edges grow more waiter lists (a handful of doublings each, over
    // all nodes) and nothing else: no box, no closure per edge.
    for &(edges, blocks) in &per_node[1..] {
        assert!(
            blocks <= one_edge + 0.5,
            "{edges} edges cost {blocks} blocks per node: {per_node:?}"
        );
    }
}
