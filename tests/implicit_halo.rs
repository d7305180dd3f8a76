//! Implicit communication (the v2 loop API): the dirty-bit state machine
//! that turns access descriptors into automatic halo exchange, through
//! the public API.
//!
//! * a deterministic property test drives random owned-write / halo-read
//!   sequences across 2–4 ranks and asserts exchanges fire **exactly**
//!   when a stale import is read — no redundant exchanges, no stale
//!   reads, and skipped exchanges are actually skipped;
//! * an instrumented schedule comparison proves the implicit per-step
//!   exchange count is ≤ a manual every-step schedule, and **strictly
//!   fewer** when the producer does not write every step;
//! * the full Airfoil run under implicit communication issues exactly the
//!   pair exchanges the hand-scheduled PR 2 time loop issued;
//! * the PR 2 overlap property survives: interior blocks of a consumer
//!   loop execute while the implicitly scheduled receive is provably
//!   still pending.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_hpx::airfoil::{ShardedAirfoil, ShardedProblem};
use op2_hpx::app::{run, RunConfig};
use op2_hpx::hpx::channel;
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::args::{read_via, write};
use op2_hpx::op2::locality::{exchange, implicit_halo_stats, HaloSpec, LocalityGroup};
use op2_hpx::op2::{Dat, Map, Op2Config, Set};

/// xorshift64* — deterministic cases, reproducible from the printed seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// One rank's toy problem: `owned` cells plus `halo` mirror rows fed by
/// the next rank around the ring, and an identity gather over all rows.
struct RankState {
    cells: Set,
    q: Dat<f64>,
    edges: Set,
    ident: Map,
    out: Dat<f64>,
}

/// Builds an `nranks`-ring where rank `r` imports the first `halo` owned
/// rows of rank `(r+1) % nranks`, links the `q` shards into a halo ring,
/// and returns the per-rank states.
fn build_ring(group: &LocalityGroup, owned: usize, halo: usize) -> (Vec<RankState>, HaloSpec) {
    let n = group.nranks();
    let mut spec = HaloSpec::empty(n);
    for r in 0..n {
        let peer = (r + 1) % n;
        spec.import_range[r][peer] = owned..owned + halo;
        spec.export_rows[peer][r] = (0..halo as u32).collect();
    }
    spec.validate().unwrap();
    let states: Vec<RankState> = (0..n)
        .map(|r| {
            let op2 = group.rank(r);
            let cells = op2.decl_set(owned, "cells");
            let mut init = vec![1000.0 * r as f64; owned];
            init.extend(std::iter::repeat_n(-1.0, halo));
            let q = op2.decl_dat_halo(&cells, 1, "q", init, halo);
            let edges = op2.decl_set(owned + halo, "edges");
            let ident = op2.decl_map_halo(
                &edges,
                &cells,
                1,
                (0..(owned + halo) as u32).collect::<Vec<_>>(),
                "ident",
                halo,
            );
            let out = op2.decl_dat(&edges, 1, "out", vec![f64::NAN; owned + halo]);
            RankState {
                cells,
                q,
                edges,
                ident,
                out,
            }
        })
        .collect();
    let qs: Vec<Dat<f64>> = states.iter().map(|s| s.q.clone()).collect();
    group.link_halo(&qs, &spec);
    (states, spec)
}

/// The dirty-bit state machine, property-tested: across random sequences
/// of owned-writes and halo-reads on 2–4 ranks, an exchange fires exactly
/// when (and only when) a stale import is read, the reader always sees
/// the exporter's latest committed values (no stale reads), and clean
/// reads schedule nothing (no redundant exchanges).
#[test]
fn dirty_bit_state_machine_fires_exactly_on_stale_reads() {
    for case in 0..16u64 {
        let mut rng = Rng::new(0xD112_7B17_5EED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let nranks = rng.in_range(2, 5);
        let owned = rng.in_range(3, 12);
        let halo = rng.in_range(1, owned.min(4) + 1);
        let config = match case % 3 {
            0 => Op2Config::seq(),
            1 => Op2Config::fork_join(2),
            _ => Op2Config::dataflow(2),
        };
        let group = LocalityGroup::new(config, nranks);
        let (states, _spec) = build_ring(&group, owned, halo);

        // Model state, in lockstep with the runtime's dirty bits.
        let mut last_written: Vec<f64> = (0..nranks).map(|r| 1000.0 * r as f64).collect();
        let mut halo_value: Vec<f64> = vec![-1.0; nranks]; // declared init
        let mut dirty = vec![true; nranks]; // imports start stale
        let (mut fired, mut skipped, mut refreshes) = (0u64, 0u64, 0u64);

        let mut next_value = 1.0;
        for _op in 0..24 {
            let r = rng.in_range(0, nranks);
            if rng.next().is_multiple_of(2) {
                // Owned write on rank r: all its owned rows get a fresh
                // value; the importer's mirror goes stale.
                let v = next_value;
                next_value += 1.0;
                group
                    .rank(r)
                    .loop_("w", &states[r].cells)
                    .arg(write(&states[r].q))
                    .run(move |q: &mut [f64]| q[0] = v);
                last_written[r] = v;
                let importer = (r + nranks - 1) % nranks;
                dirty[importer] = true;
            } else {
                // Halo read on rank r (identity gather over owned + halo).
                let s = &states[r];
                group
                    .rank(r)
                    .loop_("gather", &s.edges)
                    .arg(read_via(&s.q, &s.ident, 0))
                    .arg(write(&s.out))
                    .run(|q: &[f64], o: &mut [f64]| o[0] = q[0]);
                refreshes += 1;
                let peer = (r + 1) % nranks;
                if dirty[r] {
                    fired += 1;
                    halo_value[r] = last_written[peer];
                    dirty[r] = false;
                } else {
                    skipped += 1;
                }
                group.rank(r).fence();
                let snap = s.out.snapshot();
                assert!(
                    snap[..owned].iter().all(|&v| v == last_written[r]),
                    "case {case}: owned rows stale on rank {r}"
                );
                assert!(
                    snap[owned..].iter().all(|&v| v == halo_value[r]),
                    "case {case}: rank {r} read halo {:?}, model says {}",
                    &snap[owned..],
                    halo_value[r]
                );
            }
        }
        group.fence();
        let stats = implicit_halo_stats(&states[0].q).expect("linked dat reports stats");
        assert_eq!(
            stats.pair_exchanges, fired,
            "case {case}: exchanges must fire exactly once per stale read"
        );
        assert_eq!(
            stats.skipped_clean, skipped,
            "case {case}: clean reads must be skipped (and counted)"
        );
        assert_eq!(stats.refresh_calls, refreshes, "case {case}");
    }
}

/// Instrumented schedule comparison. A producer writes only every other
/// step while a consumer reads the halo every step. The manual PR 2 style
/// schedule exchanges unconditionally per step; the dirty bits skip the
/// steps with nothing new — strictly fewer exchanges, identical values.
#[test]
fn implicit_schedule_issues_strictly_fewer_exchanges_on_redundant_writes() {
    let steps = 6usize;
    let owned = 8usize;
    let halo = 4usize;

    // --- Implicit: linked ring, no communication calls.
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let (states, _) = build_ring(&group, owned, halo);
    let mut implicit_reads = Vec::new();
    for step in 0..steps {
        if step.is_multiple_of(2) {
            let v = step as f64 + 100.0;
            group
                .rank(1)
                .loop_("produce", &states[1].cells)
                .arg(write(&states[1].q))
                .run(move |q: &mut [f64]| q[0] = v);
        }
        let s = &states[0];
        group
            .rank(0)
            .loop_("consume", &s.edges)
            .arg(read_via(&s.q, &s.ident, 0))
            .arg(write(&s.out))
            .run(|q: &[f64], o: &mut [f64]| o[0] = q[0]);
        group.rank(0).fence();
        implicit_reads.push(s.out.snapshot());
    }
    group.fence();
    let implicit_fired = implicit_halo_stats(&states[0].q).unwrap().pair_exchanges;

    // --- Manual: same program, un-linked dats, one exchange per step
    // (the PR 2 hand schedule, which cannot know the producer idled).
    let group_m = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let mut spec = HaloSpec::empty(2);
    spec.import_range[0][1] = owned..owned + halo;
    spec.export_rows[1][0] = (0..halo as u32).collect();
    #[allow(clippy::type_complexity)] // one-off test fixture tuple
    let states_m: Vec<(Set, Dat<f64>, Set, Map, Dat<f64>)> = (0..2)
        .map(|r| {
            let op2 = group_m.rank(r);
            let cells = op2.decl_set(owned, "cells");
            let h = if r == 0 { halo } else { 0 };
            let mut init = vec![1000.0 * r as f64; owned];
            init.extend(std::iter::repeat_n(-1.0, h));
            let q = op2.decl_dat_halo(&cells, 1, "q", init, h);
            let edges = op2.decl_set(owned + h, "edges");
            let ident = op2.decl_map_halo(
                &edges,
                &cells,
                1,
                (0..(owned + h) as u32).collect::<Vec<_>>(),
                "ident",
                h,
            );
            let out = op2.decl_dat(&edges, 1, "out", vec![f64::NAN; owned + h]);
            (cells, q, edges, ident, out)
        })
        .collect();
    let qs_m: Vec<Dat<f64>> = states_m.iter().map(|s| s.1.clone()).collect();
    let mut manual_fired = 0u64;
    for (step, implicit_read) in implicit_reads.iter().enumerate() {
        if step.is_multiple_of(2) {
            let v = step as f64 + 100.0;
            group_m
                .rank(1)
                .loop_("produce", &states_m[1].0)
                .arg(write(&states_m[1].1))
                .run(move |q: &mut [f64]| q[0] = v);
        }
        exchange(&group_m, &qs_m, &spec);
        manual_fired += 1; // one nonempty pair per exchange call
        let (_, q, edges, ident, out) = &states_m[0];
        group_m
            .rank(0)
            .loop_("consume", edges)
            .arg(read_via(q, ident, 0))
            .arg(write(out))
            .run(|q: &[f64], o: &mut [f64]| o[0] = q[0]);
        group_m.rank(0).fence();
        assert_eq!(
            &out.snapshot(),
            implicit_read,
            "step {step}: implicit and manual schedules must read the same values"
        );
    }
    group_m.fence();

    assert!(
        implicit_fired <= manual_fired,
        "implicit ({implicit_fired}) must never exceed the manual schedule ({manual_fired})"
    );
    assert!(
        implicit_fired < manual_fired,
        "redundant-write case must be strictly fewer: {implicit_fired} vs {manual_fired}"
    );
    // 3 producing steps (initial staleness is consumed by step 0's read).
    assert_eq!(implicit_fired, 3);
}

/// The full Airfoil run under implicit communication issues exactly the
/// per-step pair exchanges the manual PR 2 schedule issued: two dats
/// (q, adt) × every nonempty (src,dst) pair × 2 inner steps × niter —
/// never more.
#[test]
fn airfoil_implicit_exchange_count_matches_the_manual_schedule() {
    let mesh = channel_with_bump(24, 12);
    let niter = 3;
    let nranks = 4;
    let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, nranks);
    let nonempty_pairs: u64 = (0..nranks)
        .flat_map(|src| (0..nranks).map(move |dst| (src, dst)))
        .filter(|&(src, dst)| src != dst && !shp.cell_spec.export_rows[src][dst].is_empty())
        .count() as u64;
    assert!(nonempty_pairs > 0, "4-rank decomposition must communicate");

    let r = run(
        &mut ShardedAirfoil::new(&mut shp, 0.0),
        RunConfig::iterations(niter, 2),
    );
    assert!(r.residuals.iter().all(|v| v.is_finite()));

    let q_stats = implicit_halo_stats(&shp.parts[0].p_q).unwrap();
    let adt_stats = implicit_halo_stats(&shp.parts[0].p_adt).unwrap();
    // The manual PR 2 schedule: exchange(q) + exchange(adt) per inner
    // step, each firing every nonempty pair.
    let manual_per_dat = niter as u64 * 2 * nonempty_pairs;
    assert!(
        q_stats.pair_exchanges <= manual_per_dat,
        "q: implicit {} > manual {manual_per_dat}",
        q_stats.pair_exchanges
    );
    assert!(
        adt_stats.pair_exchanges <= manual_per_dat,
        "adt: implicit {} > manual {manual_per_dat}",
        adt_stats.pair_exchanges
    );
    // q and adt are rewritten every inner step, so the counts are exactly
    // equal — the dirty bits reconstruct the hand schedule.
    assert_eq!(q_stats.pair_exchanges, manual_per_dat);
    assert_eq!(adt_stats.pair_exchanges, manual_per_dat);
    // res is deliberately unlinked: its halo increments are dead values.
    assert!(implicit_halo_stats(&shp.parts[0].p_res).is_none());
}

/// PR 2's overlap property under *implicit* scheduling: the consumer's
/// interior blocks execute while the implicitly scheduled halo receive is
/// provably still pending (the exporter's writer is hostage on an event).
#[test]
fn interior_blocks_overlap_implicitly_scheduled_receives() {
    let group = LocalityGroup::new(Op2Config::dataflow(2).with_block_size(64), 2);
    let owned = 256;
    let halo = 64;
    let (states, _) = build_ring(&group, owned, halo);

    // Hostage writer on rank 1 (rank 0's exporter): marks q dirty, then
    // blocks until the gate opens — so the implicit exchange triggered by
    // rank 0's consumer cannot complete early.
    let (open, gate) = channel::<()>();
    group
        .rank(1)
        .loop_("produce", &states[1].cells)
        .arg(write(&states[1].q))
        .run(move |q: &mut [f64]| {
            gate.wait();
            q[0] = 42.0;
        });

    let s = &states[0];
    let executed = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&executed);
    let h = group
        .rank(0)
        .loop_("consume", &s.edges)
        .arg(read_via(&s.q, &s.ident, 0))
        .arg(write(&s.out))
        .run(move |q: &[f64], o: &mut [f64]| {
            o[0] = q[0];
            counter.fetch_add(1, Ordering::Relaxed);
        });

    // Interior blocks must make progress while the receive is hostage.
    let deadline = Instant::now() + Duration::from_secs(30);
    while executed.load(Ordering::Acquire) == 0 {
        assert!(Instant::now() < deadline, "no interior block ever executed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!h.is_done(), "the boundary block cannot have run yet");
    open.set_value(());
    h.wait();
    let snap = s.out.snapshot();
    assert!(
        snap[..owned].iter().all(|&v| v == 0.0),
        "interior reads rank 0's owned values"
    );
    assert!(
        snap[owned..].iter().all(|&v| v == 42.0),
        "boundary reads the implicitly exchanged halo"
    );
    assert_eq!(
        implicit_halo_stats(&s.q).unwrap().pair_exchanges,
        1,
        "exactly one implicit pair exchange"
    );
}

/// The loop-spec cache and halo engine surface their counters through the
/// `hpx_rt::stats` named-counter registry (reported by the benchmark rig).
#[test]
fn named_counters_expose_spec_cache_and_halo_activity() {
    // Deltas, not absolutes: the registry is process-wide and sibling
    // tests bump the same counters.
    let before = op2_hpx::hpx::stats::snapshot();
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let (states, _) = build_ring(&group, 8, 2);
    let s = &states[0];
    for _ in 0..3 {
        group
            .rank(0)
            .loop_("gather", &s.edges)
            .arg(read_via(&s.q, &s.ident, 0))
            .arg(write(&s.out))
            .run(|q: &[f64], o: &mut [f64]| o[0] = q[0]);
    }
    group.fence();
    let names: Vec<&str> = op2_hpx::hpx::stats::counters()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(names.contains(&"op2.spec_cache.hits"));
    assert!(names.contains(&"op2.spec_cache.misses"));
    assert!(names.contains(&"op2.halo.pairs_fired"));
    assert!(before.delta("op2.spec_cache.hits") + before.delta("op2.spec_cache.replans") >= 2);
    assert!(before.delta("op2.halo.pairs_fired") >= 1);
    let (built, hits) = group.rank(0).spec_cache_stats();
    assert_eq!(built, 1, "one shape");
    // The default (Auto) policy measures: a re-submission is a hit unless
    // real-clock feedback moved the resolved granularity in between, which
    // re-plans instead.
    assert_eq!(
        hits + group.rank(0).spec_cache_replans(),
        2,
        "two re-submissions"
    );
}
