//! The out-of-process transport through the public API: socket-backed
//! locality groups must reproduce the in-process results (halo exchange,
//! implicit rings, full sharded Airfoil, allreduce), and a sender that
//! dies mid-exchange must surface its *original* panic — the receive half
//! degrades to a diagnostic no-op instead of double-panicking. Live
//! migration crosses the same transport, whatever the process layout.

use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use op2_hpx::airfoil::{ShardedAirfoil, ShardedProblem};
use op2_hpx::app::{run, RunConfig};
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::args::{gbl_inc, rw, write};
use op2_hpx::op2::locality::{exchange, HaloSpec, LocalityGroup};
use op2_hpx::op2::rebalance::{migrate_rows, MigrationSpec};
use op2_hpx::op2::transport::{Delivery, InProcessTransport, MsgKind, ProcessTransport, Transport};
use op2_hpx::op2::{Dat, Global, Op2Config};

/// A fresh rendezvous directory under the system temp dir, unique per
/// test (sockets are created inside and removed with it).
fn rendezvous_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("op2-transport-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f(rank)` on one thread per rank, each over its own socket-backed
/// transport — the threads stand in for the rank processes (the real
/// multi-process path is exercised by the airfoil binary's integration
/// test); the wire protocol is identical. Returns rank 0's result.
fn spmd<T: Send>(tag: &str, nranks: usize, f: impl Fn(usize, Arc<dyn Transport>) -> T + Sync) -> T {
    let dir = rendezvous_dir(tag);
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nranks)
            .map(|r| {
                let dir = dir.clone();
                let f = &f;
                s.spawn(move || {
                    let t: Arc<dyn Transport> = Arc::new(
                        ProcessTransport::connect_unix(&dir, r, nranks).expect("socket rendezvous"),
                    );
                    f(r, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .next()
            .expect("at least one rank")
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// An explicit `exchange` between socket-backed single-rank groups moves
/// exactly the bytes the in-process transport moves, and the futures
/// behave identically (ready for no-traffic pairs, owned rows untouched).
#[test]
fn explicit_exchange_over_sockets_matches_in_process() {
    let mut spec = HaloSpec::empty(2);
    spec.export_rows[1][0] = vec![0, 2];
    spec.import_range[0][1] = 6..8;
    spec.validate().expect("spec");

    // In-process reference.
    let expected = {
        let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
        let c0 = group.rank(0).decl_set(6, "cells");
        let c1 = group.rank(1).decl_set(4, "cells");
        let q0 = group
            .rank(0)
            .decl_dat_halo(&c0, 3, "q", vec![0.0f64; 24], 2);
        let q1 = group
            .rank(1)
            .decl_dat(&c1, 3, "q", (0..12).map(f64::from).collect::<Vec<_>>());
        let recvs = exchange(&group, &[q0.clone(), q1], &spec);
        recvs[0][1].wait();
        group.fence();
        q0.snapshot()
    };

    let spec2 = spec.clone();
    let got = spmd("exchange", 2, move |rank, t| {
        let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t);
        let out = if rank == 0 {
            let c0 = group.rank(0).decl_set(6, "cells");
            let q0 = group
                .rank(0)
                .decl_dat_halo(&c0, 3, "q", vec![0.0f64; 24], 2);
            let recvs = exchange(&group, std::slice::from_ref(&q0), &spec2);
            recvs[0][1].wait();
            Some(q0.snapshot())
        } else {
            let c1 = group.rank(1).decl_set(4, "cells");
            let q1 =
                group
                    .rank(1)
                    .decl_dat(&c1, 3, "q", (0..12).map(f64::from).collect::<Vec<_>>());
            let recvs = exchange(&group, &[q1], &spec2);
            assert!(recvs[0].iter().all(|r| r.is_ready()));
            None
        };
        group.fence();
        group.barrier();
        out
    });
    assert_eq!(got.expect("rank 0 returns its dat"), expected);
}

/// The whole sharded Airfoil solve — implicit halo rings, dirty bits,
/// distributed allreduce — over socket-backed single-rank groups matches
/// the in-process run's residual history within the sharding tolerance.
#[test]
fn sharded_airfoil_over_sockets_matches_in_process() {
    const NRANKS: usize = 3;
    let cfg = || RunConfig::iterations(4, 2);
    let mesh = channel_with_bump(12, 6);
    let reference = {
        let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, NRANKS);
        run(&mut ShardedAirfoil::new(&mut shp, 0.0), cfg())
    };

    let history = spmd("airfoil", NRANKS, |_rank, t| {
        let mesh = channel_with_bump(12, 6);
        let mut shp = ShardedProblem::declare_with_transport(Op2Config::dataflow(2), &mesh, t);
        let result = run(&mut ShardedAirfoil::new(&mut shp, 0.0), cfg());
        shp.group.barrier();
        result.residuals
    });

    assert_eq!(history.len(), reference.residuals.len());
    for (i, (a, b)) in history.iter().zip(&reference.residuals).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "iteration {i}: socket rms {a} vs in-process {b}"
        );
    }
}

/// The allreduce over sockets (partial → rank 0 → tree combine →
/// broadcast) is bitwise identical to the in-process one: both run the
/// same star with the same fixed fold order.
#[test]
fn allreduce_over_sockets_is_bitwise_the_in_process_tree() {
    const NRANKS: usize = 5;
    let contribution = |r: usize| 0.1 + r as f64 * 0.017;
    let expected = {
        let group = LocalityGroup::new(Op2Config::dataflow(2), NRANKS);
        let globals: Vec<Global<f64>> = (0..NRANKS).map(|_| Global::<f64>::sum(1, "rms")).collect();
        for (r, g) in globals.iter().enumerate() {
            let cells = group.rank(r).decl_set(64 + r, "cells");
            let w = contribution(r);
            group
                .rank(r)
                .loop_("update", &cells)
                .arg(gbl_inc(g))
                .run(move |acc: &mut [f64]| acc[0] += w);
        }
        let red = group.allreduce(&globals);
        group.fence();
        red.get_scalar()
    };

    let got = spmd("allreduce", NRANKS, move |r, t| {
        let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t);
        let g = Global::<f64>::sum(1, "rms");
        let cells = group.rank(r).decl_set(64 + r, "cells");
        let w = contribution(r);
        group
            .rank(r)
            .loop_("update", &cells)
            .arg(gbl_inc(&g))
            .run(move |acc: &mut [f64]| acc[0] += w);
        let red = group.allreduce(&[g]);
        let total = red.get_scalar();
        group.fence();
        group.barrier();
        total
    });
    assert_eq!(got, expected, "star combine must reproduce the tree shape");
}

/// Satellite regression: a halo sender whose gather is skipped by an
/// upstream kernel panic must *abandon* the exchange — the receive half
/// completes as a diagnostic no-op (counted, not panicking) and the
/// **first** panic, the kernel's own, is what the fence surfaces. The old
/// implementation's receive node called `try_recv().expect(...)`, burying
/// the root cause under a secondary panic while the process aborted.
#[test]
fn abandoned_exchange_surfaces_the_original_panic() {
    let before = op2_hpx::hpx::stats::snapshot();
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let c0 = group.rank(0).decl_set(4, "cells");
    let c1 = group.rank(1).decl_set(4, "cells");
    let q0 = group.rank(0).decl_dat_halo(&c0, 1, "q", vec![0.0f64; 8], 4);
    let q1 = group.rank(1).decl_dat(&c1, 1, "q", vec![1.0f64; 4]);

    // The exporter's pending writer dies; the exchange's gather node
    // dep-panics and is skipped.
    group
        .rank(1)
        .loop_("boom", &c1)
        .arg(write(&q1))
        .run(|_q: &mut [f64]| panic!("kernel exploded: synthetic failure"));

    let mut spec = HaloSpec::empty(2);
    spec.export_rows[1][0] = vec![0, 1, 2, 3];
    spec.import_range[0][1] = 4..8;
    let recvs = exchange(&group, &[q0.clone(), q1], &spec);

    // The receive COMPLETES (abandonment, not a hang) without panicking.
    recvs[0][1].wait();
    assert!(
        before.delta("op2.transport.sends_abandoned") >= 1,
        "the skipped gather must abandon its send"
    );
    assert!(
        before.delta("op2.transport.recvs_abandoned") >= 1,
        "the receive must degrade to a counted no-op"
    );
    assert!(
        q0.snapshot()[4..8].iter().all(|&v| v == 0.0),
        "abandoned halo rows stay stale"
    );

    // The fence surfaces the ORIGINAL kernel panic.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| group.fence()))
        .expect_err("fence must propagate the kernel panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("kernel exploded"),
        "fence panicked with a secondary error instead of the root cause: {msg:?}"
    );
}

/// Injected link delay is honored by the in-process transport without
/// blocking a runtime worker: with a single worker thread, a delayed
/// exchange still completes (sleeping *inside* the send node would wedge
/// the lone worker for the duration and serialize every delayed pair).
#[test]
fn injected_delay_does_not_occupy_the_single_worker() {
    let delay = Duration::from_millis(40);
    let link = InProcessTransport::with_delay(4, Some(delay));
    let group = LocalityGroup::with_transport(Op2Config::dataflow(1), Arc::new(link));
    let mut dats = Vec::new();
    let mut spec = HaloSpec::empty(4);
    for r in 0..4 {
        let cells = group.rank(r).decl_set(4, "cells");
        let d = group
            .rank(r)
            .decl_dat_halo(&cells, 1, "q", vec![r as f64; 7], 3);
        dats.push(d);
    }
    // All-to-all: every rank exports row 0 to every other rank; each
    // rank's three halo rows (4..7) are fed in exporter order.
    for dst in 0..4 {
        let mut off = 4;
        for src in 0..4 {
            if src == dst {
                continue;
            }
            spec.export_rows[src][dst] = vec![0];
            spec.import_range[dst][src] = off..off + 1;
            off += 1;
        }
    }
    spec.validate().expect("spec");

    let t0 = Instant::now();
    let recvs = exchange(&group, &dats, &spec);
    for per_rank in &recvs {
        for f in per_rank {
            f.wait();
        }
    }
    let elapsed = t0.elapsed();
    // 12 delayed pairs on ONE worker: worker-blocking sleeps would need
    // ≥ 12 × 40ms serialized; timer-deferred delivery needs ~one delay.
    assert!(
        elapsed < delay * 6,
        "12 pairs took {elapsed:?} — delay is blocking the worker"
    );
    for (i, d) in dats.iter().enumerate() {
        let snap = d.snapshot();
        let mut mirrored: Vec<f64> = snap[4..7].to_vec();
        mirrored.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (0..4).filter(|&r| r != i).map(|r| r as f64).collect();
        assert_eq!(mirrored, expected, "rank {i} halo rows");
    }
}

/// Payload messages sent, per `(kind, src, dst)` stream.
type Traffic = HashMap<(MsgKind, usize, usize), usize>;

/// One process's view of a job over a shared in-process match table: it
/// hosts the ranks `local` (the group over it numbers the messages, as over
/// a `ProcessTransport`) and counts the messages carrying a payload it
/// sends per stream.
struct SliceTransport {
    link: Arc<InProcessTransport>,
    local: Range<usize>,
    sent: Mutex<Traffic>,
}

impl SliceTransport {
    fn new(link: &Arc<InProcessTransport>, local: Range<usize>) -> Arc<Self> {
        Arc::new(SliceTransport {
            link: Arc::clone(link),
            local,
            sent: Mutex::default(),
        })
    }

    fn sent(&self, kind: MsgKind) -> usize {
        let sent = self.sent.lock().unwrap();
        sent.iter()
            .filter(|(k, _)| k.0 == kind)
            .map(|(_, n)| n)
            .sum()
    }
}

impl Transport for SliceTransport {
    fn nranks(&self) -> usize {
        self.link.nranks()
    }

    fn local_ranks(&self) -> Range<usize> {
        self.local.clone()
    }

    fn send(&self, kind: MsgKind, src: usize, dst: usize, seq: u64, payload: Option<Vec<u8>>) {
        if payload.is_some() {
            *self
                .sent
                .lock()
                .unwrap()
                .entry((kind, src, dst))
                .or_default() += 1;
        }
        self.link.send(kind, src, dst, seq, payload);
    }

    fn recv(&self, kind: MsgKind, src: usize, dst: usize, seq: u64) -> Delivery {
        self.link.recv(kind, src, dst, seq)
    }
}

/// Order-sensitive partials: a left fold and the pairwise tree round
/// `1e16 + 1.0` and `-1e16 + 3.0` differently.
const PARTIALS: [f64; 6] = [1e16, 1.0, -1e16, 3.0, 0.5, -7.25];

/// Declares one `gbl_inc` loop per hosted rank that adds `PARTIALS[r]` to
/// a fresh global once, and returns the allreduce of those globals.
fn allreduce_partials(group: &LocalityGroup) -> op2_hpx::op2::ReducedFuture<f64> {
    let globals: Vec<Global<f64>> = group
        .local_ranks()
        .map(|r| {
            let g = Global::<f64>::sum(1, "partial");
            let one = group.rank(r).decl_set(1, "one");
            let p = PARTIALS[r];
            group
                .rank(r)
                .loop_("contribute", &one)
                .arg(gbl_inc(&g))
                .run(move |acc: &mut [f64]| acc[0] += p);
            g
        })
        .collect();
    group.allreduce(&globals)
}

/// The pairwise fold whose shape is fixed by rank index: slot `i` joins
/// `i ^ 1`, an unpaired trailing slot passes through.
fn fixed_tree(mut level: Vec<f64>) -> f64 {
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|c| c.iter().copied().reduce(|a, b| a + b).unwrap())
            .collect();
    }
    level[0]
}

/// All-local groups run the one star too: for n = 1..=6 ranks the result
/// is bitwise the fixed tree, and exactly n − 1 partials cross the
/// transport (rank 0's own partial and the total never do).
#[test]
fn all_local_allreduce_is_the_fixed_tree_over_n_minus_1_messages() {
    let left_fold: f64 = PARTIALS[..4].iter().sum();
    assert_ne!(
        fixed_tree(PARTIALS[..4].to_vec()).to_bits(),
        left_fold.to_bits(),
        "the partials must tell the fold orders apart"
    );
    for n in 1..=6 {
        let link = Arc::new(InProcessTransport::new(n));
        let t = SliceTransport::new(&link, 0..n);
        let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t.clone());
        let red = allreduce_partials(&group);
        group.fence();
        assert_eq!(
            red.get_scalar().to_bits(),
            fixed_tree(PARTIALS[..n].to_vec()).to_bits(),
            "{n} ranks: fold order"
        );
        assert_eq!(t.sent(MsgKind::Reduce), n - 1, "{n} ranks: Reduce messages");
    }
}

/// Runs `f(rank_range)` on a thread per slice and returns the results in
/// slice order. A slice that panics re-raises its panic here; one that
/// does not finish in time fails the test instead of hanging it (its
/// thread is then left detached, since joining it would hang too).
fn run_slices_bounded<T: Send + 'static>(
    slices: Vec<Range<usize>>,
    f: impl Fn(Range<usize>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = slices
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, slice)| {
            let (f, tx) = (Arc::clone(&f), tx.clone());
            std::thread::spawn(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(slice)));
                let _ = tx.send((i, out));
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut out: Vec<Option<T>> = slices.iter().map(|_| None).collect();
    for _ in 0..slices.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let (i, v) = rx.recv_timeout(left).unwrap_or_else(|_| {
            let done: Vec<bool> = out.iter().map(Option::is_some).collect();
            panic!("slices {slices:?} did not all finish in time (finished: {done:?})")
        });
        out[i] = Some(v.unwrap_or_else(|p| std::panic::resume_unwind(p)));
    }
    for h in handles {
        h.join().expect("a slice thread that reported its result");
    }
    out.into_iter()
        .map(|v| v.expect("every slice reported"))
        .collect()
}

/// The payload messages of a 4-iteration, 3-rank sharded Airfoil run,
/// summed over its processes: one per entry of `starts`, hosting the ranks
/// from that entry up to the next one.
fn sharded_airfoil_traffic(starts: &[usize]) -> Traffic {
    const NRANKS: usize = 3;
    let ends = starts.iter().skip(1).copied().chain([NRANKS]);
    let slices = starts.iter().zip(ends).map(|(&a, b)| a..b).collect();
    let link = Arc::new(InProcessTransport::new(NRANKS));
    let per_slice = run_slices_bounded(slices, move |slice| {
        let t = SliceTransport::new(&link, slice);
        let mesh = channel_with_bump(12, 6);
        let mut shp =
            ShardedProblem::declare_with_transport(Op2Config::dataflow(2), &mesh, t.clone());
        run(
            &mut ShardedAirfoil::new(&mut shp, 0.0),
            RunConfig::iterations(4, 2),
        );
        shp.group.fence();
        let sent = t.sent.lock().unwrap().clone();
        sent
    });
    let mut total = Traffic::new();
    for (stream, n) in per_slice.into_iter().flatten() {
        *total.entry(stream).or_default() += n;
    }
    total
}

/// An all-local group sends the messages the same job sends across
/// processes: a 3-rank sharded Airfoil over one process and over the
/// processes {0} and {1, 2} sends the same `Halo` messages on every stream
/// and the same `Reduce` partials to rank 0. The only difference is the
/// allreduce's total, which goes back only to ranks outside rank 0's
/// process: once per partial that came from there.
#[test]
fn all_local_group_sends_the_messages_of_the_split_process_job() {
    let all_local = sharded_airfoil_traffic(&[0]);
    let split = sharded_airfoil_traffic(&[0, 1]);
    // `(src, dst, messages)` of the streams whose `(kind, dst)` passes `keep`.
    let streams = |traffic: &Traffic, keep: fn(MsgKind, usize) -> bool| {
        let mut s: Vec<_> = traffic
            .iter()
            .filter(|((kind, _, dst), _)| keep(*kind, *dst))
            .map(|(&(_, src, dst), &n)| (src, dst, n))
            .collect();
        s.sort_unstable();
        s
    };
    let halo = |kind, _| kind == MsgKind::Halo;
    let partial = |kind, dst| kind == MsgKind::Reduce && dst == 0;
    let total = |kind, dst| kind == MsgKind::Reduce && dst != 0;
    assert!(
        !streams(&all_local, halo).is_empty(),
        "the mesh exchanges halos"
    );
    assert_eq!(streams(&all_local, halo), streams(&split, halo), "Halo");
    let partials = streams(&all_local, partial);
    assert!(!partials.is_empty(), "every iteration allreduces the rms");
    assert_eq!(partials, streams(&split, partial), "partials");
    assert!(streams(&all_local, total).is_empty(), "all-local totals");
    let back: Vec<_> = partials.iter().map(|&(s, d, n)| (d, s, n)).collect();
    assert_eq!(streams(&split, total), back, "split totals");
}

/// A process hosting rank 0 *and* other ranks: both halves of a message
/// between two of its ranks take one sequence number, so the allreduce,
/// the barrier and the rank-busy agreement complete, and the sum is
/// bitwise the all-local one.
#[test]
fn process_hosting_rank_0_and_others_completes_collectives() {
    use op2_hpx::op2::rebalance::agree_rank_busy;

    let expected = {
        let group = LocalityGroup::new(Op2Config::dataflow(2), 3);
        let red = allreduce_partials(&group);
        group.fence();
        red.get_scalar()
    };
    let link = Arc::new(InProcessTransport::new(3));
    let results = run_slices_bounded(vec![0..2, 2..3], move |slice| {
        let t = SliceTransport::new(&link, slice);
        let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t.clone());
        let total = allreduce_partials(&group).get_scalar();
        group.fence();
        let busy = agree_rank_busy(&group);
        group.barrier();
        (total, busy)
    });
    for (total, busy) in &results {
        assert_eq!(total.to_bits(), expected.to_bits(), "slice total");
        assert_eq!(busy, &results[0].1, "every slice agrees on rank busy times");
        assert_eq!(busy.len(), 3);
    }
}

/// A barrier with a peer that never enters it: rank 2 of three
/// socket-backed ranks drops its transport instead. Ranks 0 and 1 return
/// from `barrier` (the dead link abandons rank 2's arrival, and rank 0's
/// root abandons the release) rather than hanging, and the failure
/// surfaces at each one's next fence.
#[test]
fn barrier_returns_when_a_peer_drops_its_transport() {
    const NRANKS: usize = 3;
    let dir = rendezvous_dir("barrier-dead-peer");
    let dir2 = dir.clone();
    let slices = (0..NRANKS).map(|r| r..r + 1).collect();
    let fence_failed = run_slices_bounded(slices, move |slice| {
        let r = slice.start;
        let t = ProcessTransport::connect_unix(&dir2, r, NRANKS).expect("socket rendezvous");
        if r == 2 {
            drop(t);
            return None;
        }
        let group = LocalityGroup::with_transport(Op2Config::dataflow(2), Arc::new(t));
        group.barrier();
        let fenced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| group.fence()));
        Some(fenced.is_err())
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        fence_failed,
        [Some(true), Some(true), None],
        "ranks 0 and 1 leave the barrier and fail their next fence"
    );
}

/// Satellite regression: rank 0's `gbl_inc` kernel panics, so its root
/// node is skipped. The broadcast of the total must be abandoned, not
/// forgotten: every rank's fence returns a panic (rank 0's the kernel's)
/// instead of ranks 1 and 2 waiting forever for a total that never comes.
/// No rank drops its transport before all fences returned, so a closed
/// socket cannot stand in for the abandonment.
#[test]
fn rank_0_kernel_panic_fails_every_fence_instead_of_hanging() {
    const NRANKS: usize = 3;
    let dir = rendezvous_dir("root-panic");
    let all_fenced = Arc::new(Barrier::new(NRANKS));
    let slices = (0..NRANKS).map(|r| r..r + 1).collect();
    let dir2 = dir.clone();
    let messages = run_slices_bounded(slices, move |slice| {
        let r = slice.start;
        let t: Arc<dyn Transport> =
            Arc::new(ProcessTransport::connect_unix(&dir2, r, NRANKS).expect("socket rendezvous"));
        let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t);
        let g = Global::<f64>::sum(1, "rms");
        let cells = group.rank(r).decl_set(8, "cells");
        group
            .rank(r)
            .loop_("update", &cells)
            .arg(gbl_inc(&g))
            .run(move |acc: &mut [f64]| {
                assert!(r != 0, "rank 0 kernel exploded");
                acc[0] += 1.0;
            });
        let _red = group.allreduce(&[g]);
        let fenced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| group.fence()));
        all_fenced.wait();
        fenced.err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    for (r, msg) in messages.iter().enumerate() {
        assert!(msg.is_some(), "rank {r}'s fence returned no panic");
    }
    let root = messages[0].as_deref().unwrap();
    assert!(
        root.contains("rank 0 kernel exploded"),
        "rank 0's fence panicked with {root:?}, not the kernel's message"
    );
}

/// Declares one shard per rank hosted by `group` of a dim-`dim` dat over
/// the elements `owned[r]`: element `g`'s row is `value(g, c)` per
/// component `c`, or NaN (a landing never written shows up) without a
/// `value`.
fn declare_shards(
    group: &LocalityGroup,
    owned: &[Vec<u32>],
    dim: usize,
    value: Option<fn(u32, usize) -> f64>,
) -> Vec<Dat<f64>> {
    group
        .local_ranks()
        .map(|r| {
            let set = group.rank(r).decl_set(owned[r].len(), "elems");
            let vals = owned[r]
                .iter()
                .flat_map(|&g| (0..dim).map(move |c| value.map_or(f64::NAN, |v| v(g, c))))
                .collect::<Vec<_>>();
            group.rank(r).decl_dat(&set, dim, "x", vals)
        })
        .collect()
}

fn element_value(g: u32, c: usize) -> f64 {
    (g as f64).sqrt() + c as f64 / 3.0
}

/// Same-process migration crosses the transport: an all-local
/// `migrate_rows` sends exactly one `Migrate` message per non-empty
/// (src, dst) pair, renumbering `src == dst` moves included, and every
/// landed row is bitwise its source row.
#[test]
fn all_local_migration_sends_one_migrate_message_per_move() {
    let n = 3;
    let dim = 2;
    let old_owned = vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]];
    let new_owned = vec![vec![0, 1], vec![2, 3, 4, 5, 9], vec![6, 7, 8]];
    let spec = MigrationSpec::diff(&old_owned, &new_owned);
    let pairs = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| !spec.moves[s][d].0.is_empty())
        .count();
    assert!(
        (0..n).any(|r| !spec.moves[r][r].0.is_empty()),
        "the spec renumbers rows a rank keeps"
    );
    let link = Arc::new(InProcessTransport::new(n));
    let t = SliceTransport::new(&link, 0..n);
    let group = LocalityGroup::with_transport(Op2Config::dataflow(2), t.clone());
    let old = declare_shards(&group, &old_owned, dim, Some(element_value));
    let new = declare_shards(&group, &new_owned, dim, None);
    migrate_rows(&group, &old, &new, &spec);
    group.fence();
    assert_eq!(t.sent(MsgKind::Migrate), pairs, "Migrate messages");
    for (r, d) in new.iter().enumerate() {
        let got = d.snapshot();
        for (i, &g) in new_owned[r].iter().enumerate() {
            for c in 0..dim {
                assert_eq!(
                    got[i * dim + c].to_bits(),
                    element_value(g, c).to_bits(),
                    "rank {r} element {g} component {c}"
                );
            }
        }
    }
}

/// Random ownership of `n` elements over `nranks` ranks from `seed`
/// (xorshift64*); every rank gets at least one element.
fn random_ownership(seed: &mut u64, n: usize, nranks: usize) -> Vec<Vec<u32>> {
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    for e in 0..n {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let pick = (seed.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % nranks;
        owned[if e < nranks { e } else { pick }].push(e as u32);
    }
    owned
}

/// Migrates `old_owned` to `new_owned` on the ranks `group` hosts, with
/// loops in flight on the old shards before and on the new shards after
/// (no fence in between), and returns the new shards' values.
fn migrate_in_flight(
    group: &LocalityGroup,
    old_owned: &[Vec<u32>],
    new_owned: &[Vec<u32>],
    dim: usize,
) -> Vec<Vec<f64>> {
    let step = |dats: &[Dat<f64>], mul: f64, add: f64| {
        for (d, r) in dats.iter().zip(group.local_ranks()) {
            group
                .rank(r)
                .loop_("step", d.set())
                .arg(rw(d))
                .run(move |x: &mut [f64]| {
                    for v in x {
                        *v = *v * mul + add;
                    }
                });
        }
    };
    let old = declare_shards(group, old_owned, dim, Some(element_value));
    let new = declare_shards(group, new_owned, dim, None);
    step(&old, 0.5, 1.0);
    step(&old, 0.75, -2.0);
    migrate_rows(
        group,
        &old,
        &new,
        &MigrationSpec::diff(old_owned, new_owned),
    );
    step(&new, 0.25, 2.0);
    group.fence();
    new.iter().map(Dat::snapshot).collect()
}

/// Migration over a split-process layout: one process hosts ranks {0, 1},
/// another rank {2}, so one `migrate_rows` call carries both same-process
/// and cross-process moves. For random ownership changes the landed values
/// are bitwise those of the all-local run.
#[test]
fn split_process_migration_matches_all_local_bitwise() {
    let mut seed = 0x9E3779B97F4A7C15u64;
    for case in 0..6 {
        let n = 24 + case * 17;
        let dim = [1, 3, 4][case % 3];
        let old_owned = random_ownership(&mut seed, n, 3);
        let new_owned = random_ownership(&mut seed, n, 3);
        let config = if case % 2 == 0 {
            Op2Config::seq()
        } else {
            Op2Config::dataflow(2).with_block_size(8)
        };
        let expected = {
            let group = LocalityGroup::new(config.clone(), 3);
            migrate_in_flight(&group, &old_owned, &new_owned, dim)
        };
        let link = Arc::new(InProcessTransport::new(3));
        let (old, new) = (Arc::new(old_owned), Arc::new(new_owned));
        let got: Vec<Vec<f64>> = run_slices_bounded(vec![0..2, 2..3], move |slice| {
            let group =
                LocalityGroup::with_transport(config.clone(), SliceTransport::new(&link, slice));
            migrate_in_flight(&group, &old, &new, dim)
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(got.len(), expected.len());
        for (r, (g, e)) in got.iter().zip(&expected).enumerate() {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(e), "case {case}: rank {r}'s new shard");
            assert!(
                g.iter().all(|v| !v.is_nan()),
                "case {case}: rank {r} fully landed"
            );
        }
    }
}
