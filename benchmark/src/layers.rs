//! The traced pass: per-layer metrics, every one observed from outside —
//! spans around calls into public functions, deltas of the counters the
//! layers already keep, and micro-phases that drive one layer alone.
//!
//! Rounds alternate between traced (decorator, counter snapshots) and
//! untraced, so all configurations stay at the same cumulative iteration
//! and `derived.trace_overhead_pct` compares like with like.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use airfoil_cfd::{kernels, simd, AirfoilApp};
use hpx_rt::stats::CounterSnapshot;
use hpx_rt::{dataflow, Runtime, RuntimeStats};
use op2_app::{plan_shards, App};
use op2_core::locality::exchange;
use op2_core::rebalance::agree_rank_busy;
use op2_core::{Dat, Global};
use op2_mesh::{build_halo, neighbors_from_pairs, partition_greedy_bfs, QuadMesh};
use op2_translator::{translate, CodegenBackend};

use crate::envinfo::{self, THREADS};
use crate::report::{self, Report, Samples, PER_LAYER};
use crate::rig::{another_round, Phase, Rig, RoundOrder};
use crate::stats::{lower_decile, median};
use crate::trace::{self_times_ns, spans_json, Span, Tracer};
use crate::workload::{Config, Inputs, Outcome, Slot, Workload};

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Cumulative per-loop totals of one slot, over all its worlds.
#[derive(Default, Clone, Copy)]
struct LoopTotals {
    /// Submission-to-finalize time (`Op2::loop_stats`).
    total_ms: f64,
    /// Elements executed: invocations x set size.
    elems: f64,
    /// Dataflow nodes executed: every node of a measuring world records
    /// one granularity-feedback sample.
    nodes: f64,
}

fn loop_totals(slot: &dyn Slot) -> BTreeMap<&'static str, LoopTotals> {
    let mut out: BTreeMap<&'static str, LoopTotals> = BTreeMap::new();
    for world in slot.worlds() {
        let stats = world.op2.loop_stats();
        let feedback = world.op2.granularity_feedback().snapshot();
        for &(name, size) in &world.loop_elems {
            let t = out.entry(name).or_default();
            if let Some((_, s)) = stats.iter().find(|(k, _)| k == name) {
                t.total_ms += s.total.as_secs_f64() * 1e3;
                t.elems += s.invocations as f64 * size as f64;
            }
            t.nodes += feedback
                .iter()
                .filter(|(k, _, _)| k == name)
                .map(|(_, _, cost)| cost.samples as f64)
                .sum::<f64>();
        }
    }
    out
}

/// What is read before and after a traced dataflow operation.
struct Probe {
    counters: CounterSnapshot,
    runtime: RuntimeStats,
    cpu_s: f64,
    loops: BTreeMap<&'static str, LoopTotals>,
}

impl Probe {
    fn take(slot: &dyn Slot) -> Probe {
        Probe {
            counters: hpx_rt::stats::snapshot(),
            runtime: slot.worlds()[0].op2.runtime().stats(),
            cpu_s: envinfo::process_cpu_s(),
            loops: loop_totals(slot),
        }
    }
}

/// What is summed over the traced dataflow operations instead of sampled
/// per operation: CPU and wall seconds (the CPU clock ticks at 10 ms, too
/// coarse for a ratio per operation) and the blocking reduction reads (a
/// total that must be 0).
#[derive(Default)]
struct Totals {
    cpu_s: f64,
    wall_s: f64,
    blocking_reads: f64,
}

/// Records the per-operation layer metrics of one traced dataflow
/// operation from the probes around it.
fn record_dataflow_op(
    s: &mut Samples,
    totals: &mut Totals,
    before: &Probe,
    slot: &dyn Slot,
    out: &Outcome,
) {
    let after = Probe::take(slot);
    let iters = out.run.iterations.max(1) as f64;
    let rt = |f: fn(&RuntimeStats) -> u64| (f(&after.runtime) - f(&before.runtime)) as f64 / iters;
    s.push("hpxrt.tasks_per_iter", rt(|r| r.tasks_executed));
    s.push("hpxrt.steals_per_iter", rt(|r| r.steals));
    s.push("hpxrt.parks_per_iter", rt(|r| r.parks));
    totals.cpu_s += after.cpu_s - before.cpu_s;
    totals.wall_s += out.wall.as_secs_f64();

    let delta = |name: &str| before.counters.delta(name) as f64;
    s.push(
        "core.spec_cache_hits_per_iter",
        delta("op2.spec_cache.hits") / iters,
    );
    s.push(
        "core.replans_per_100_iters",
        100.0 * delta("op2.spec_cache.replans") / iters,
    );
    s.push(
        "core.reduce_async_reads_per_iter",
        delta("op2.reduce.async_reads") / iters,
    );
    s.push(
        "core.reduce_combines_per_iter",
        delta("op2.reduce.combines") / iters,
    );
    totals.blocking_reads += delta("op2.reduce.blocking_reads");
    s.push(
        "core.halo_pairs_per_iter",
        delta("op2.halo.pairs_fired") / iters,
    );
    s.push(
        "core.halo_skipped_per_iter",
        delta("op2.halo.refresh_skipped") / iters,
    );
    s.push(
        "core.transport_msgs_per_iter",
        delta("op2.transport.msgs_sent") / iters,
    );
    s.push(
        "core.transport_bytes_per_iter",
        delta("op2.transport.bytes_sent") / iters,
    );
    if let Some((at, _)) = out.run.converged {
        // Iterations run past the one that crossed the tolerance: work
        // the asynchronous exit could not avoid.
        s.push(
            "core.converge_overrun_iters",
            (out.run.iterations - at) as f64,
        );
    }
    for (name, a) in &after.loops {
        let b = before.loops.get(name).copied().unwrap_or_default();
        s.push(
            format!("core.loop_ms_per_iter.{name}"),
            (a.total_ms - b.total_ms) / iters,
        );
        if a.nodes > b.nodes {
            s.push(
                format!("core.elems_per_node.{name}"),
                (a.elems - b.elems) / (a.nodes - b.nodes),
            );
        }
    }
}

/// `hpx-rt` alone, through its public API: spawn throughput and the cost
/// of one node of a dependent dataflow chain.
fn micro_hpxrt(s: &mut Samples, tracer: &Tracer) {
    const REPS: usize = 5;
    const TASKS: usize = 100_000;
    const CHAIN: usize = 10_000;
    static RAN: AtomicU64 = AtomicU64::new(0);
    let rt = Runtime::new(THREADS);
    for _ in 0..REPS {
        RAN.store(0, Ordering::Relaxed);
        let t0 = Instant::now();
        tracer.span("hpxrt.task_spawn", || {
            for _ in 0..TASKS {
                rt.spawn(|| {
                    RAN.fetch_add(1, Ordering::Relaxed);
                });
            }
            rt.wait_idle();
        });
        s.push("hpxrt.task_spawn_ns", ms(t0) * 1e6 / TASKS as f64);
        assert_eq!(RAN.load(Ordering::Relaxed), TASKS as u64);

        let t0 = Instant::now();
        let last = tracer.span("hpxrt.dataflow_chain", || {
            let mut f = hpx_rt::ready(0u64);
            for _ in 0..CHAIN {
                f = dataflow(&rt, |(a,)| black_box(a) + 1, (f,));
            }
            f.get()
        });
        s.push("hpxrt.dataflow_node_ns", ms(t0) * 1e6 / CHAIN as f64);
        assert_eq!(last, CHAIN as u64);
    }
}

/// The mesh and app layers' share of a sharded set-up, each call alone.
fn micro_sharding(s: &mut Samples, tracer: &Tracer, mesh: &QuadMesh, ranks: usize) {
    let t0 = Instant::now();
    let part = tracer.span("mesh.partition", || {
        let adj = neighbors_from_pairs(&mesh.edge_cells, mesh.ncell);
        partition_greedy_bfs(&adj, ranks)
    });
    s.push("mesh.partition_ms", ms(t0));
    let sizes = part.sizes();
    let mean = mesh.ncell as f64 / ranks as f64;
    s.push(
        "mesh.partition_imbalance",
        sizes.iter().copied().max().unwrap_or(0) as f64 / mean,
    );

    let t0 = Instant::now();
    let halo = tracer.span("mesh.halo_build", || build_halo(&part, &mesh.edge_cells, 2));
    s.push("mesh.halo_build_ms", ms(t0));
    s.push(
        "mesh.halo_rows",
        (0..ranks).map(|r| halo.halo_size(r)).sum::<usize>() as f64,
    );

    let owned = part.owned_all();
    let t0 = Instant::now();
    black_box(tracer.span("app.plan_shards", || {
        plan_shards(mesh.ncell, &mesh.edge_cells, &part, &owned)
    }));
    s.push("app.plan_shards_ms", ms(t0));
}

/// One explicit halo exchange and one allreduce on the idle group.
fn micro_locality(s: &mut Samples, tracer: &Tracer, slot: &dyn Slot) {
    const REPS: usize = 20;
    let Some(shp) = slot.sharded() else { return };
    let qs: Vec<Dat<f64>> = shp.parts.iter().map(|p| p.p_q.clone()).collect();
    for _ in 0..REPS {
        let t0 = Instant::now();
        tracer.span("core.halo_exchange", || {
            exchange(&shp.group, &qs, &shp.cell_spec);
            shp.group.fence();
        });
        s.push("core.halo_exchange_us", ms(t0) * 1e3);
    }
    for _ in 0..REPS {
        let parts: Vec<Global<f64>> = (0..shp.parts.len())
            .map(|r| {
                let g = Global::sum(1, "probe");
                g.set(&[r as f64]);
                g
            })
            .collect();
        let t0 = Instant::now();
        let total = tracer.span("core.allreduce", || {
            shp.group.allreduce(&parts).get_scalar()
        });
        s.push("core.allreduce_us", ms(t0) * 1e3);
        let n = shp.parts.len() as f64;
        assert_eq!(total, n * (n - 1.0) / 2.0, "allreduce of 0..n");
    }
    let busy = agree_rank_busy(&shp.group);
    let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
    if mean > 0.0 {
        s.push(
            "core.rank_busy_imbalance",
            busy.iter().copied().max().unwrap_or(0) as f64 / mean,
        );
    }
}

/// Disjoint rows `a` and `b` (4 values each) of `res`.
fn two_rows(res: &mut [f64], a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    if a < b {
        let (lo, hi) = res.split_at_mut(4 * b);
        (&mut lo[4 * a..4 * a + 4], &mut hi[..4])
    } else {
        let (lo, hi) = res.split_at_mut(4 * a);
        let (rb, ra) = (&mut lo[4 * b..4 * b + 4], &mut hi[..4]);
        (ra, rb)
    }
}

/// Bytes one element of each Airfoil loop moves, *computed* from the dat
/// dimensions and map arities (f64 dats, u32 map entries; a written or
/// incremented row counts once in and once out where it is also read).
/// Cache misses are not in it.
const AIRFOIL_BYTES_PER_ELEM: [(&str, f64); 5] = [
    // q read (4) + qold write (4)
    ("save_soln", (4 + 4) as f64 * 8.0),
    // 4 nodes x (2) + q (4) + adt write (1); pcell 4 entries
    ("adt_calc", (4 * 2 + 4 + 1) as f64 * 8.0 + 4.0 * 4.0),
    // 2 nodes x (2) + 2 cells x (q 4 + adt 1 + res 4 in + 4 out);
    // pedge 2 + pecell 2 entries
    (
        "res_calc",
        (2 * 2 + 2 * (4 + 1 + 4 + 4)) as f64 * 8.0 + 4.0 * 4.0,
    ),
    // 2 nodes x (2) + q (4) + adt (1) + res (4 in + 4 out); bound i32;
    // pbedge 2 + pbecell 1 entries
    (
        "bres_calc",
        (2 * 2 + 4 + 1 + 4 + 4) as f64 * 8.0 + 4.0 + 3.0 * 4.0,
    ),
    // qold (4) + q write (4) + res (4 in + 4 out) + adt (1)
    ("update", (4 + 4 + 4 + 4 + 1) as f64 * 8.0),
];

/// The kernel floor: the Airfoil kernels called in a plain loop over the
/// mesh, in solver order, with no OP2 around them — what a solve would
/// cost if the framework were free. Returns the floor of one iteration in
/// milliseconds.
fn kernel_floors(s: &mut Samples, tracer: &Tracer, mesh: &QuadMesh) -> f64 {
    const ITERS: usize = 3;
    let (ncell, nedge, nbedge, nnode) = (mesh.ncell, mesh.nedge, mesh.nbedge, mesh.nnode);
    let qinf = airfoil_cfd::constants::qinf();
    let x = &mesh.x;
    let node = |n: u32| &x[2 * n as usize..2 * n as usize + 2];
    let mut q: Vec<f64> = (0..ncell).flat_map(|_| qinf).collect();
    let mut qold = vec![0.0; 4 * ncell];
    let mut adt = vec![0.0; ncell];
    let mut res = vec![0.0; 4 * ncell];
    let mut rms = [0.0];

    fn timed(s: &mut Samples, prefix: &str, name: &str, n: usize, f: &mut dyn FnMut()) {
        let t0 = Instant::now();
        f();
        s.push(format!("{prefix}.{name}"), ms(t0) * 1e6 / n as f64);
    }
    let aos = "airfoil.kernel_ns_per_elem";
    tracer.span("airfoil.kernel_floor", || {
        for _ in 0..ITERS {
            timed(s, aos, "save_soln", ncell, &mut || {
                for c in 0..ncell {
                    kernels::save_soln(&q[4 * c..4 * c + 4], &mut qold[4 * c..4 * c + 4]);
                }
            });
            for _ in 0..2 {
                timed(s, aos, "adt_calc", ncell, &mut || {
                    for c in 0..ncell {
                        let n = &mesh.cell_nodes[4 * c..4 * c + 4];
                        kernels::adt_calc(
                            node(n[0]),
                            node(n[1]),
                            node(n[2]),
                            node(n[3]),
                            &q[4 * c..4 * c + 4],
                            &mut adt[c..c + 1],
                        );
                    }
                });
                timed(s, aos, "res_calc", nedge, &mut || {
                    for e in 0..nedge {
                        let n = &mesh.edge_nodes[2 * e..2 * e + 2];
                        let (c1, c2) = (
                            mesh.edge_cells[2 * e] as usize,
                            mesh.edge_cells[2 * e + 1] as usize,
                        );
                        let (r1, r2) = two_rows(&mut res, c1, c2);
                        kernels::res_calc(
                            node(n[0]),
                            node(n[1]),
                            &q[4 * c1..4 * c1 + 4],
                            &q[4 * c2..4 * c2 + 4],
                            &adt[c1..c1 + 1],
                            &adt[c2..c2 + 1],
                            r1,
                            r2,
                        );
                    }
                });
                timed(s, aos, "bres_calc", nbedge, &mut || {
                    for b in 0..nbedge {
                        let n = &mesh.bedge_nodes[2 * b..2 * b + 2];
                        let c = mesh.bedge_cells[b] as usize;
                        kernels::bres_calc(
                            node(n[0]),
                            node(n[1]),
                            &q[4 * c..4 * c + 4],
                            &adt[c..c + 1],
                            &mut res[4 * c..4 * c + 4],
                            &mesh.bound[b..b + 1],
                            &qinf,
                        );
                    }
                });
                timed(s, aos, "update", ncell, &mut || {
                    for c in 0..ncell {
                        kernels::update(
                            &qold[4 * c..4 * c + 4],
                            &mut q[4 * c..4 * c + 4],
                            &mut res[4 * c..4 * c + 4],
                            &adt[c..c + 1],
                            &mut rms,
                        );
                    }
                });
            }
        }
    });
    assert!(
        black_box(rms[0]).is_finite(),
        "the floor solves the same flow"
    );

    // The hand-vectorized variants over component planes, each alone on
    // the state the scalar floor reached (inputs restored between
    // repetitions, outside the timing).
    let planes = |rows: &[f64], dim: usize, n: usize| -> Vec<f64> {
        let mut out = vec![0.0; rows.len()];
        for e in 0..n {
            for c in 0..dim {
                out[c * n + e] = rows[dim * e + c];
            }
        }
        out
    };
    let x_soa = planes(x, 2, nnode);
    let q_soa = planes(&q, 4, ncell);
    let qold_soa = planes(&qold, 4, ncell);
    let mut adt_soa = vec![0.0; ncell];
    let mut res_soa = vec![0.0; 4 * ncell];
    let soa = "airfoil.kernel_soa_ns_per_elem";
    tracer.span("airfoil.kernel_floor_soa", || {
        for _ in 0..ITERS {
            timed(s, soa, "adt_calc", ncell, &mut || {
                simd::adt_calc_soa(
                    &x_soa,
                    nnode,
                    &mesh.cell_nodes,
                    &q_soa,
                    ncell,
                    &mut adt_soa,
                    0..ncell,
                );
            });
            res_soa.fill(0.0);
            timed(s, soa, "res_calc", nedge, &mut || {
                simd::res_calc_soa(
                    &x_soa,
                    nnode,
                    &mesh.edge_nodes,
                    &q_soa,
                    ncell,
                    &adt_soa,
                    &mut res_soa,
                    ncell,
                    &mesh.edge_cells,
                    0..nedge,
                );
            });
            let mut q_work = q_soa.clone();
            timed(s, soa, "update", ncell, &mut || {
                black_box(simd::update_soa(
                    &qold_soa,
                    &mut q_work,
                    &mut res_soa,
                    &adt_soa,
                    ncell,
                    0..ncell,
                ));
            });
            black_box(&q_work);
        }
    });

    for (name, bytes) in AIRFOIL_BYTES_PER_ELEM {
        s.push(format!("airfoil.bytes_per_elem.{name}"), bytes);
    }
    // Host noise only ever adds time (README, "Noise"), so the floor is
    // the lower decile of each kernel's repetitions.
    let floor_ns = |name: &str| lower_decile(s.get(&format!("{aos}.{name}")));
    let per_iter_ns = floor_ns("save_soln") * ncell as f64
        + 2.0
            * (floor_ns("adt_calc") * ncell as f64
                + floor_ns("res_calc") * nedge as f64
                + floor_ns("bres_calc") * nbedge as f64
                + floor_ns("update") * ncell as f64);
    per_iter_ns / 1e6
}

/// Non-empty, non-comment lines.
fn loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Compile-time cost of the workload app's spec: no end-to-end metric
/// moves with it; it is on record for ROADMAP item 4.
fn translator_metrics(s: &mut Samples, tracer: &Tracer, spec: &str) -> Result<(), String> {
    const REPS: usize = 20;
    let mut generated = String::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        generated = tracer
            .span("translator.translate", || {
                translate(spec, CodegenBackend::Hpx)
            })
            .map_err(|errs| format!("the workload's spec does not translate: {errs:?}"))?;
        s.push("translator.translate_us", ms(t0) * 1e3);
    }
    s.push("translator.spec_loc", loc(spec) as f64);
    s.push("translator.generated_loc", loc(&generated) as f64);
    Ok(())
}

/// Metrics read off the recorded spans.
fn span_metrics(s: &mut Samples, spans: &[Span], root: usize) {
    let own = self_times_ns(spans);
    let ms_of = |ns: u64| ns as f64 / 1e6;
    let named = |name: &'static str| spans.iter().filter(move |sp| sp.name == name);
    for sp in named("mesh.generate") {
        s.push("mesh.generate_ms", ms_of(sp.duration_ns()));
    }
    for sp in named("declare") {
        s.push("app.declare_ms", ms_of(sp.duration_ns()));
    }
    for sp in named("declare_sharded") {
        s.push("app.declare_sharded_ms", ms_of(sp.duration_ns()));
    }
    let dataflow = Config::Dataflow.name();
    for sp in named("first_iter").filter(|sp| sp.config == dataflow) {
        s.push("app.first_iter_ms", ms_of(sp.duration_ns()));
    }
    // The timed dataflow operations: rep > run > step | fence.
    let is_rep_run = |sp: &Span| {
        sp.name == "run"
            && sp.config == dataflow
            && sp
                .parent
                .is_some_and(|p| spans[p].name == Phase::Rep.name())
    };
    for run in spans.iter().filter(|sp| is_rep_run(sp)) {
        let children = || spans.iter().filter(|c| c.parent == Some(run.id));
        let steps: Vec<u64> = children()
            .filter(|c| c.name == "step")
            .map(Span::duration_ns)
            .collect();
        if !steps.is_empty() {
            s.push(
                "core.submit_us_per_iter",
                steps.iter().sum::<u64>() as f64 / 1e3 / steps.len() as f64,
            );
        }
        for fence in children().filter(|c| c.name == "fence") {
            s.push("core.fence_wait_ms", ms_of(fence.duration_ns()));
        }
        s.push("core.window_wait_ms", ms_of(own[run.id]));
    }
    let whole = spans[root].duration_ns().max(1) as f64;
    s.push(
        "derived.span_coverage_pct",
        100.0 * (1.0 - own[root] as f64 / whole),
    );
}

/// The traced pass over one workload: every per-layer metric.
pub fn traced_pass(w: &'static Workload, seed: u64, seconds: f64) -> Report {
    let tracer = Tracer::new(true);
    let mut s = Samples::default();
    let mut problems: Vec<String> = Vec::new();
    let at_start = hpx_rt::stats::snapshot();

    let (mut rig, root) = tracer.span_id("workload", || {
        let mut rig = tracer.span("setup", || Rig::set_up(w, seed, &tracer));
        let inputs = std::rc::Rc::clone(&rig.inputs);
        tracer.set_config("");
        if let Inputs::Airfoil { mesh, ranks } = &*inputs {
            if *ranks > 1 {
                micro_sharding(&mut s, &tracer, mesh, *ranks);
            }
        }

        let mut order = RoundOrder::new(seed, 0);
        let mut totals = Totals::default();
        let mut untraced_dataflow_ms = Vec::new();
        let mut traced_dataflow_ms = Vec::new();
        let t0 = Instant::now();
        let mut rounds = 0;
        // Rounds come in pairs, traced then untraced.
        while another_round(rounds, t0.elapsed().as_secs_f64(), seconds) || rounds % 2 == 1 {
            let traced = rounds % 2 == 0;
            let name = if traced { "round" } else { "round_untraced" };
            tracer.span(name, || {
                tracer.set_enabled(traced);
                let mut outs = [None, None, None];
                for c in order.next() {
                    let probe = (traced && c == Config::Dataflow).then(|| Probe::take(rig.slot(c)));
                    let out = rig.operate(c, Phase::Rep, &tracer);
                    if let Some(out) = &out {
                        let wall_ms = out.wall.as_secs_f64() * 1e3;
                        if traced {
                            s.push(
                                format!("app.iter_ms_{}", c.name()),
                                wall_ms / out.run.iterations.max(1) as f64,
                            );
                        }
                        match &probe {
                            Some(before) => {
                                record_dataflow_op(&mut s, &mut totals, before, rig.slot(c), out);
                                traced_dataflow_ms.push(wall_ms);
                            }
                            None if c == Config::Dataflow => untraced_dataflow_ms.push(wall_ms),
                            None => {}
                        }
                    }
                    outs[c as usize] = out;
                }
                rig.verify(&outs, Phase::Rep);
                tracer.set_enabled(true);
            });
            rounds += 1;
        }
        tracer.set_enabled(true);
        tracer.set_config("");

        s.push("hpxrt.cpu_over_wall", totals.cpu_s / totals.wall_s);
        s.push("core.reduce_blocking_reads", totals.blocking_reads);
        s.push(
            "derived.trace_overhead_pct",
            100.0 * (median(&traced_dataflow_ms) / median(&untraced_dataflow_ms) - 1.0),
        );
        // Whole pass, set-up included: only the dataflow worlds plan.
        s.push(
            "core.spec_cache_misses",
            at_start.delta("op2.spec_cache.misses") as f64,
        );
        let (built, hits) = rig
            .slot(Config::Dataflow)
            .worlds()
            .iter()
            .map(|v| v.op2.plan_cache_stats())
            .fold((0, 0), |(b, h), (wb, wh)| (b + wb, h + wh));
        s.push("core.plans_built", built as f64);
        s.push("core.plan_cache_hits", hits as f64);

        micro_locality(&mut s, &tracer, rig.slot(Config::Dataflow));
        micro_hpxrt(&mut s, &tracer);
        let spec = match &*inputs {
            Inputs::Airfoil { mesh, .. } => {
                let floor_ms = kernel_floors(&mut s, &tracer, mesh);
                let seq_ms = lower_decile(s.get("app.iter_ms_seq"));
                s.push(
                    "derived.framework_overhead_pct",
                    100.0 * (seq_ms - floor_ms) / seq_ms,
                );
                // The spec is the app's, whatever its mesh: the smallest will do.
                AirfoilApp::new(3, 1).spec()
            }
            Inputs::Jac(app) => app.spec(),
        };
        if let Err(e) = translator_metrics(&mut s, &tracer, spec) {
            problems.push(e);
        }
        rig
    });

    let spans = tracer.spans();
    span_metrics(&mut s, &spans, root.expect("tracing is on"));

    // A metric the table does not know would be silently dropped.
    let known = |n: &str| PER_LAYER.iter().any(|(k, _)| *k == n);
    debug_assert!(s.names().all(known), "unlisted per-layer metric");

    rig.failed += problems.len() as u64;
    rig.messages.extend(problems);
    Report {
        workload: w.name,
        seed,
        traced: true,
        inputs: rig.inputs.describe(),
        attempted: rig.attempted,
        failed: rig.failed,
        messages: std::mem::take(&mut rig.messages),
        rows: report::rows(PER_LAYER.iter().copied(), &s),
        derived: Vec::new(),
        spans: Some(spans_json(&spans, w.name)),
    }
}
