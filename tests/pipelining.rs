//! Evidence that the dependency engine is *block-granular*: across a
//! read-after-write loop chain, a successor loop's block starts executing
//! before the predecessor's last block has finished — the pipelining that
//! whole-loop future chaining (a barrier in disguise) cannot do.
//!
//! The kernels are instrumented through the data itself: every dat row is
//! seeded with its element index, so a kernel can recover "which block am
//! I" from the value it reads and log a sequenced event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use op2_hpx::op2::args::{inc_via, read, rw, write};
use op2_hpx::op2::{Op2, Op2Config};

const BS: usize = 64;
const NBLOCKS: usize = 24;
const N: usize = BS * NBLOCKS;

/// One instrumentation record: which loop, which block, global sequence.
#[derive(Debug, Clone, Copy)]
struct Event {
    loop_id: u8,
    block: usize,
    seq: u64,
}

#[derive(Clone, Default)]
struct EventLog {
    seq: Arc<AtomicU64>,
    events: Arc<Mutex<Vec<Event>>>,
}

impl EventLog {
    fn record(&self, loop_id: u8, block: usize) {
        let seq = self.seq.fetch_add(1, Ordering::AcqRel);
        self.events.lock().unwrap().push(Event {
            loop_id,
            block,
            seq,
        });
    }
    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

fn spin(units: usize) {
    let mut acc = 1.0f64;
    for _ in 0..units {
        acc = (acc * 1.000001 + 1.0).sqrt();
    }
    std::hint::black_box(acc);
}

/// Runs predecessor (writes `b` from `a`) then successor (writes `c` from
/// `b`) once and returns the event log. The predecessor's **last** block
/// carries heavy extra work, so under block-granular dataflow the second
/// worker must pick up ready successor blocks long before the predecessor
/// finishes.
fn run_chain_once() -> (Vec<Event>, Vec<f64>) {
    let op2 = Op2::new(Op2Config::dataflow(2).with_block_size(BS));
    let cells = op2.decl_set(N, "cells");
    let idx: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let a = op2.decl_dat(&cells, 1, "a", idx.clone());
    let b = op2.decl_dat(&cells, 1, "b", vec![0.0; N]);
    let c = op2.decl_dat(&cells, 1, "c", vec![0.0; N]);
    let log = EventLog::default();

    let log_a = log.clone();
    op2.loop_("pred", &cells)
        .arg(read(&a))
        .arg(write(&b))
        .run(move |a: &[f64], b: &mut [f64]| {
            let e = a[0] as usize;
            if e.is_multiple_of(BS) {
                log_a.record(0, e / BS);
            }
            // The last block is a deliberate straggler.
            if e / BS == NBLOCKS - 1 {
                spin(40_000);
            }
            b[0] = a[0] + 1.0;
        });
    let log_b = log.clone();
    op2.loop_("succ", &cells)
        .arg(read(&b))
        .arg(write(&c))
        .run(move |b: &[f64], c: &mut [f64]| {
            let e = (b[0] - 1.0) as usize;
            if e.is_multiple_of(BS) {
                log_b.record(1, e / BS);
            }
            c[0] = b[0] * 2.0;
        });
    op2.fence();
    (log.take(), c.snapshot())
}

/// Core pipelining assertion: at least one successor block starts before
/// the predecessor's last block has started its heavy tail... more
/// precisely, before the predecessor's *final* event in the log.
#[test]
fn successor_blocks_start_before_predecessor_finishes() {
    // The overlap is a property of the scheduler under load; retry a few
    // times so an unlucky OS-scheduling run cannot flake the suite.
    let mut overlapped = false;
    let mut last_events = Vec::new();
    for _attempt in 0..5 {
        let (events, c) = run_chain_once();
        // Correctness first: c = (e + 1) * 2 exactly, every element.
        assert!(
            c.iter()
                .enumerate()
                .all(|(e, &v)| v == (e as f64 + 1.0) * 2.0),
            "pipelined chain corrupted the data"
        );
        let pred_last = events
            .iter()
            .filter(|ev| ev.loop_id == 0)
            .map(|ev| ev.seq)
            .max()
            .expect("predecessor ran");
        let succ_first = events
            .iter()
            .filter(|ev| ev.loop_id == 1)
            .map(|ev| ev.seq)
            .min()
            .expect("successor ran");
        last_events = events;
        if succ_first < pred_last {
            overlapped = true;
            break;
        }
    }
    let succ_started = last_events.iter().filter(|e| e.loop_id == 1).count();
    assert!(
        overlapped,
        "no successor block started before the predecessor's last block \
         finished — the engine is chaining whole loops, not blocks \
         (successor blocks seen: {succ_started}/{NBLOCKS})"
    );
}

/// Every block the successor ran must respect its *own* RAW dependency:
/// successor block i logs after predecessor block i (the per-block order
/// the dependency tables enforce), for every i.
#[test]
fn per_block_raw_order_is_respected() {
    let (events, _) = run_chain_once();
    for i in 0..NBLOCKS {
        let pred = events
            .iter()
            .find(|e| e.loop_id == 0 && e.block == i)
            .unwrap_or_else(|| panic!("predecessor block {i} missing"));
        let succ = events
            .iter()
            .find(|e| e.loop_id == 1 && e.block == i)
            .unwrap_or_else(|| panic!("successor block {i} missing"));
        assert!(
            pred.seq < succ.seq,
            "block {i}: successor (seq {}) ran before its RAW predecessor (seq {})",
            succ.seq,
            pred.seq
        );
    }
}

/// A reduction into a *shared* global must not re-introduce a whole-loop
/// barrier: block nodes commit generation-tagged partials without waiting
/// for the previous loop's finalize, so a RAW chain whose loops both
/// increment the same global still pipelines — and both reductions stay
/// exact.
#[test]
fn shared_global_reduction_does_not_block_pipelining() {
    use op2_hpx::op2::{arg_gbl_inc, Global};
    let mut overlapped = false;
    for _attempt in 0..5 {
        let op2 = Op2::new(Op2Config::dataflow(2).with_block_size(BS));
        let cells = op2.decl_set(N, "cells");
        let idx: Vec<f64> = (0..N).map(|i| i as f64).collect();
        let a = op2.decl_dat(&cells, 1, "a", idx);
        let b = op2.decl_dat(&cells, 1, "b", vec![0.0; N]);
        let c = op2.decl_dat(&cells, 1, "c", vec![0.0; N]);
        let g = Global::<f64>::sum(1, "g");
        let log = EventLog::default();

        let log_a = log.clone();
        op2.loop_("pred", &cells)
            .arg(read(&a))
            .arg(write(&b))
            .arg(arg_gbl_inc(&g))
            .run(move |a: &[f64], b: &mut [f64], g: &mut [f64]| {
                let e = a[0] as usize;
                if e.is_multiple_of(BS) {
                    log_a.record(0, e / BS);
                }
                if e / BS == NBLOCKS - 1 {
                    spin(40_000);
                }
                b[0] = a[0] + 1.0;
                g[0] += 1.0;
            });
        let log_b = log.clone();
        op2.loop_("succ", &cells)
            .arg(read(&b))
            .arg(write(&c))
            .arg(arg_gbl_inc(&g))
            .run(move |b: &[f64], c: &mut [f64], g: &mut [f64]| {
                let e = (b[0] - 1.0) as usize;
                if e.is_multiple_of(BS) {
                    log_b.record(1, e / BS);
                }
                c[0] = b[0] * 2.0;
                g[0] += 1.0;
            });
        op2.fence();
        // Both loops' increments must land exactly once per element.
        assert_eq!(g.get_scalar(), 2.0 * N as f64, "shared reduction corrupted");
        assert!(c
            .snapshot()
            .iter()
            .enumerate()
            .all(|(e, &v)| v == (e as f64 + 1.0) * 2.0));

        let events = log.take();
        let pred_last = events
            .iter()
            .filter(|e| e.loop_id == 0)
            .map(|e| e.seq)
            .max()
            .unwrap();
        let succ_first = events
            .iter()
            .filter(|e| e.loop_id == 1)
            .map(|e| e.seq)
            .min()
            .unwrap();
        if succ_first < pred_last {
            overlapped = true;
            break;
        }
    }
    assert!(
        overlapped,
        "a shared global reduction serialized the RAW chain — the \
         finalize-to-finalize edge leaked onto the block nodes"
    );
}

/// Backend equivalence of a long dependent chain mixing direct RAW/WAR
/// loops and an indirect increment: the block-granular engine must
/// produce bit-identical integer-valued results across all backends.
#[test]
fn backends_agree_on_dependent_chain_with_indirection() {
    let run = |config: Op2Config| -> (Vec<f64>, Vec<f64>) {
        let op2 = Op2::new(config);
        let n = 4000;
        let edges = op2.decl_set(n, "edges");
        let nodes = op2.decl_set(n, "nodes");
        let mut idx = Vec::with_capacity(2 * n);
        for e in 0..n {
            idx.push(e as u32);
            idx.push(((e * 7 + 1) % n) as u32);
        }
        let pedge = op2.decl_map(&edges, &nodes, 2, idx, "pedge");
        let val = op2.decl_dat(&nodes, 1, "val", vec![1.0f64; n]);
        let acc = op2.decl_dat(&nodes, 1, "acc", vec![0.0f64; n]);
        for _ in 0..8 {
            // Direct RAW: val -> val.
            op2.loop_("bump", &nodes)
                .arg(rw(&val))
                .run(|v: &mut [f64]| {
                    v[0] += 1.0;
                });
            // Indirect increments over both endpoints read nothing, so the
            // chain is val(W) -> acc(W) -> val(W) across iterations.
            op2.loop_("scatter", &edges)
                .arg(inc_via(&acc, &pedge, 0))
                .arg(inc_via(&acc, &pedge, 1))
                .run(|a: &mut [f64], b: &mut [f64]| {
                    a[0] += 1.0;
                    b[0] += 2.0;
                });
        }
        op2.fence();
        (val.snapshot(), acc.snapshot())
    };
    let (val_seq, acc_seq) = run(Op2Config::seq());
    for config in [
        Op2Config::fork_join(2),
        Op2Config::dataflow(2),
        Op2Config::dataflow(4).with_block_size(128),
        Op2Config::dataflow(2).with_block_size(17),
    ] {
        let label = format!("{config:?}");
        let (val, acc) = run(config);
        assert_eq!(val, val_seq, "{label}: val diverged");
        assert_eq!(acc, acc_seq, "{label}: acc diverged");
    }
}
