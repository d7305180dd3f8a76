//! Metric names, units and bounds — the names every later change uses —
//! and the one writer for the table, the result files and the contract
//! line.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::envinfo;
use crate::json::Json;
use crate::stats::{summarize, Summary};

/// An end-to-end metric: what a user of the system sees. Lower is better
/// for all of them; `bound` is the share of the parent's median by which
/// the metric may get worse before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_ms_seq",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_ms_forkjoin",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_ms_dataflow",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.2,
    },
];

/// Per-layer metrics `(name, unit)`, layer = crate. A metric that does
/// not apply to a workload reads 0 there. The README says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hpxrt.task_spawn_ns", "ns"),
    ("hpxrt.dataflow_node_ns", "ns"),
    ("hpxrt.tasks_per_iter", "count"),
    ("hpxrt.steals_per_iter", "count"),
    ("hpxrt.parks_per_iter", "count"),
    ("hpxrt.cpu_over_wall", "ratio"),
    ("core.submit_us_per_iter", "us"),
    ("core.fence_wait_ms", "ms"),
    ("core.window_wait_ms", "ms"),
    ("core.spec_cache_hits_per_iter", "count"),
    ("core.spec_cache_misses", "count"),
    ("core.replans_per_100_iters", "count"),
    ("core.plans_built", "count"),
    ("core.plan_cache_hits", "count"),
    ("core.loop_ms_per_iter.save_soln", "ms"),
    ("core.loop_ms_per_iter.adt_calc", "ms"),
    ("core.loop_ms_per_iter.res_calc", "ms"),
    ("core.loop_ms_per_iter.bres_calc", "ms"),
    ("core.loop_ms_per_iter.update", "ms"),
    ("core.loop_ms_per_iter.jac_spmv", "ms"),
    ("core.loop_ms_per_iter.jac_update", "ms"),
    ("core.elems_per_node.save_soln", "count"),
    ("core.elems_per_node.adt_calc", "count"),
    ("core.elems_per_node.res_calc", "count"),
    ("core.elems_per_node.bres_calc", "count"),
    ("core.elems_per_node.update", "count"),
    ("core.elems_per_node.jac_spmv", "count"),
    ("core.elems_per_node.jac_update", "count"),
    ("core.reduce_async_reads_per_iter", "count"),
    ("core.reduce_blocking_reads", "count"),
    ("core.reduce_combines_per_iter", "count"),
    ("core.converge_overrun_iters", "count"),
    ("core.halo_pairs_per_iter", "count"),
    ("core.halo_skipped_per_iter", "count"),
    ("core.transport_msgs_per_iter", "count"),
    ("core.transport_bytes_per_iter", "B"),
    ("core.halo_exchange_us", "us"),
    ("core.allreduce_us", "us"),
    ("core.rank_busy_imbalance", "ratio"),
    ("mesh.generate_ms", "ms"),
    ("mesh.partition_ms", "ms"),
    ("mesh.halo_build_ms", "ms"),
    ("mesh.halo_rows", "count"),
    ("mesh.partition_imbalance", "ratio"),
    ("app.declare_ms", "ms"),
    ("app.declare_sharded_ms", "ms"),
    ("app.plan_shards_ms", "ms"),
    ("app.first_iter_ms", "ms"),
    ("app.iter_ms_seq", "ms"),
    ("app.iter_ms_forkjoin", "ms"),
    ("app.iter_ms_dataflow", "ms"),
    ("airfoil.kernel_ns_per_elem.save_soln", "ns"),
    ("airfoil.kernel_ns_per_elem.adt_calc", "ns"),
    ("airfoil.kernel_ns_per_elem.res_calc", "ns"),
    ("airfoil.kernel_ns_per_elem.bres_calc", "ns"),
    ("airfoil.kernel_ns_per_elem.update", "ns"),
    ("airfoil.kernel_soa_ns_per_elem.adt_calc", "ns"),
    ("airfoil.kernel_soa_ns_per_elem.res_calc", "ns"),
    ("airfoil.kernel_soa_ns_per_elem.update", "ns"),
    ("airfoil.bytes_per_elem.save_soln", "B"),
    ("airfoil.bytes_per_elem.adt_calc", "B"),
    ("airfoil.bytes_per_elem.res_calc", "B"),
    ("airfoil.bytes_per_elem.bres_calc", "B"),
    ("airfoil.bytes_per_elem.update", "B"),
    ("translator.translate_us", "us"),
    ("translator.spec_loc", "count"),
    ("translator.generated_loc", "count"),
    ("derived.framework_overhead_pct", "%"),
    ("derived.trace_overhead_pct", "%"),
    ("derived.span_coverage_pct", "%"),
];

/// Metrics that are exact counts of deterministic work: two runs at one
/// seed must agree on them to the last digit.
pub const EXACT_COUNTS: [&str; 6] = [
    "core.transport_msgs_per_iter",
    "core.halo_pairs_per_iter",
    "mesh.halo_rows",
    "translator.spec_loc",
    "translator.generated_loc",
    "core.reduce_blocking_reads",
];

/// Samples collected under metric names.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// One reported metric.
pub struct Row {
    pub name: String,
    pub unit: String,
    /// The metric's reported value: the median of its samples, unless the
    /// pass that took them has a better estimate (`rig::untraced_pass`).
    pub value: f64,
    pub summary: Summary,
    /// The samples behind the summary, in the order they were taken.
    pub samples: Vec<f64>,
}

/// Resolves `defs` against `samples`; a metric nothing was recorded for
/// reads 0 (it does not apply to this workload).
pub fn rows<'d>(defs: impl IntoIterator<Item = (&'d str, &'d str)>, samples: &Samples) -> Vec<Row> {
    defs.into_iter()
        .map(|(name, unit)| {
            let taken = match samples.get(name) {
                [] => vec![0.0],
                taken => taken.to_vec(),
            };
            let summary = summarize(&taken).expect("at least one sample");
            Row {
                name: name.to_owned(),
                unit: unit.to_owned(),
                value: summary.median,
                summary,
                samples: taken,
            }
        })
        .collect()
}

/// Everything one pass over one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// `(name, value)` pairs describing the generated instance.
    pub inputs: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// The contract metrics of this pass, in `BENCHMARK.json` order.
    pub rows: Vec<Row>,
    /// Printed and filed, not gated.
    pub derived: Vec<Row>,
    /// Spans of a traced pass, as JSON rows.
    pub spans: Option<Json>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with unit, reported value, median, quartiles,
    /// high percentile and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} pass): {} operations attempted, {} failed, failed_share {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for m in &self.messages {
            println!("   FAILED {m}");
        }
        println!(
            "   {:<44} {:>6} {:>14} {:>14} {:>14} {:>14} {:>20} {:>4}",
            "metric", "unit", "value", "median", "q1", "q3", "high percentile", "n"
        );
        for r in self.rows.iter().chain(&self.derived) {
            let s = &r.summary;
            let high = s
                .high
                .map_or_else(|| "-".to_owned(), |(p, v)| format!("p{p:.0}={v:.6}"));
            println!(
                "   {:<44} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>20} {:>4}",
                r.name, r.unit, r.value, s.median, s.q1, s.q3, high, s.n
            );
        }
    }

    fn rows_json(rows: &[Row]) -> Json {
        Json::obj(rows.iter().map(|r| {
            let s = &r.summary;
            (
                r.name.clone(),
                Json::obj([
                    ("unit", Json::str(&*r.unit)),
                    ("value", Json::Num(r.value)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("p10", Json::Num(s.p10)),
                    (
                        "high",
                        s.high.map_or(Json::Null, |(p, v)| {
                            Json::obj([("percentile", Json::Num(p)), ("value", Json::Num(v))])
                        }),
                    ),
                    ("n", Json::Num(s.n as f64)),
                    (
                        "samples",
                        Json::Arr(r.samples.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]),
            )
        }))
    }

    /// The result file: one schema for both passes.
    pub fn file_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("op2-benchmark/1")),
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("env", envinfo::block(self.seed)),
            (
                "inputs",
                Json::obj(self.inputs.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.messages.iter().map(Json::str).collect()),
            ),
            ("metrics", Self::rows_json(&self.rows)),
            ("derived", Self::rows_json(&self.derived)),
            ("spans", self.spans.clone().unwrap_or(Json::Null)),
        ])
    }

    /// The contract line: the last line of standard output.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.rows.iter().map(|r| {
                    (
                        r.name.clone(),
                        Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(&*r.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Writes `out/result_<workload>.json` (untraced) or
    /// `out/trace_<workload>.json` (traced) under the benchmark's own
    /// directory.
    pub fn write_file(&self) -> std::io::Result<PathBuf> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let stem = if self.traced { "trace" } else { "result" };
        let path = dir.join(format!("{stem}_{}.json", self.workload));
        std::fs::write(&path, self.file_json().write() + "\n")?;
        Ok(path)
    }
}

/// `benchmark/out`, wherever the checkout is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
