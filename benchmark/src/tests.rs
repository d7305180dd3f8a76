//! Whole-pipeline tests: two small smoke workloads through both passes,
//! and the agreement between `BENCHMARK.json` and the tables in the code.

use std::time::Duration;

use crate::json::Json;
use crate::layers::traced_pass;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::rig::untraced_pass;
use crate::workload::{Kind, Workload, WORKLOADS};

/// Airfoil sharded over two ranks: every layer is on the path. Not
/// smaller: the shorter a fork-join loop, the likelier it is to hit the
/// latch defect (`run_worker`), and at 1500 cells most attempts died.
static SMOKE_SHARDED: Workload = Workload {
    name: "smoke_sharded",
    why: "test only",
    kind: Kind::Airfoil {
        cells: 8_000,
        ranks: 2,
    },
    iters: 5,
    warm_iters: 5,
    window: 4,
    setups: 2,
    tol: 1e-7,
    golden: f64::NAN,
};

/// Jacobi to convergence: the data-dependent exit.
static SMOKE_JAC: Workload = Workload {
    name: "smoke_jac",
    why: "test only",
    kind: Kind::Jac { n: 64 },
    iters: 0,
    warm_iters: 0,
    window: 16,
    setups: 2,
    tol: 1e-9,
    golden: f64::NAN,
};

fn value(report: &Report, name: &str) -> f64 {
    let row = report.rows.iter().find(|r| r.name == name);
    row.unwrap_or_else(|| panic!("{name} is reported")).value
}

fn check_shape(report: &Report, names: &[&str]) {
    assert!(report.correct(), "failures: {:?}", report.messages);
    assert!(
        report.attempted >= 6 + 6,
        "two timed rounds after the cold ones"
    );
    let got: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(got, names, "exactly the contract's metrics, in order");
    assert!(report.rows.iter().all(|r| r.summary.median.is_finite()));

    let line = Json::parse(&report.contract_json().write()).expect("contract line parses");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("metrics").unwrap().as_obj().unwrap().len(),
        names.len()
    );

    let file = report.file_json();
    assert_eq!(
        Json::parse(&file.write()).expect("result file parses"),
        file
    );
    let env = file.get("env").expect("environment block");
    for key in [
        "nproc",
        "threads",
        "oversubscribed",
        "seed",
        "git_sha",
        "rustc",
        "profile",
    ] {
        assert!(env.get(key).is_some(), "env.{key}");
    }
}

/// The pipeline runs the program under test in this process, fork-join
/// loops included, so it can die of the latch defect `run_worker`
/// describes: it runs in a child (this test binary, that one test) and is
/// run again if the child dies from a signal.
#[test]
fn smoke_workloads_run_the_full_pipeline() {
    let args = ["--exact", "tests::pipeline_in_this_process", "--ignored"].map(str::to_owned);
    let (code, output) = crate::run_worker(&args, Duration::from_secs(120)).unwrap();
    assert_eq!(code, 0, "{output}");
    assert!(output.contains("1 passed"), "{output}");
}

// One test, so nothing else in this process moves the process-wide named
// counters while the traced passes read their deltas.
#[test]
#[ignore = "run by smoke_workloads_run_the_full_pipeline, in a child process"]
fn pipeline_in_this_process() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();

    for w in [&SMOKE_SHARDED, &SMOKE_JAC] {
        let report = untraced_pass(w, 7, 0.3);
        check_shape(&report, &e2e);
        for m in &e2e {
            assert!(value(&report, m) > 0.0, "{}: {m} is never 0", w.name);
        }
    }

    let sharded = traced_pass(&SMOKE_SHARDED, 7, 0.3);
    check_shape(&sharded, &layers);
    for positive in [
        "hpxrt.task_spawn_ns",
        "hpxrt.tasks_per_iter",
        "core.submit_us_per_iter",
        "core.spec_cache_misses",
        "core.loop_ms_per_iter.res_calc",
        "core.elems_per_node.update",
        "core.halo_pairs_per_iter",
        "core.transport_bytes_per_iter",
        "core.halo_exchange_us",
        "core.allreduce_us",
        "mesh.halo_rows",
        "app.declare_sharded_ms",
        "app.plan_shards_ms",
        "app.first_iter_ms",
        "airfoil.kernel_ns_per_elem.res_calc",
        "airfoil.kernel_soa_ns_per_elem.update",
        "translator.generated_loc",
    ] {
        assert!(
            value(&sharded, positive) > 0.0,
            "{positive} applies to a sharded airfoil"
        );
    }
    assert_eq!(value(&sharded, "core.reduce_blocking_reads"), 0.0);
    assert_eq!(value(&sharded, "core.loop_ms_per_iter.jac_spmv"), 0.0);
    assert!(value(&sharded, "derived.span_coverage_pct") >= 95.0);
    let spans = sharded
        .spans
        .as_ref()
        .and_then(Json::as_arr)
        .expect("spans");
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for expected in [
        "workload",
        "setup",
        "mesh.generate",
        "rep",
        "run",
        "step",
        "fence",
    ] {
        assert!(names.contains(&expected), "a {expected} span is recorded");
    }

    let jac = traced_pass(&SMOKE_JAC, 7, 0.3);
    check_shape(&jac, &layers);
    assert!(value(&jac, "core.loop_ms_per_iter.jac_update") > 0.0);
    assert!(value(&jac, "core.reduce_async_reads_per_iter") > 0.0);
    assert!(value(&jac, "app.declare_ms") > 0.0);
    // Nothing is sharded here: the locality layer must not have moved.
    for zero in [
        "core.halo_pairs_per_iter",
        "core.transport_msgs_per_iter",
        "mesh.halo_rows",
        "airfoil.kernel_ns_per_elem.update",
    ] {
        assert_eq!(value(&jac, zero), 0.0, "{zero} does not apply to jac");
    }
}

#[test]
fn benchmark_json_agrees_with_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_owned();

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let table: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_owned(), w.why.to_owned()))
        .collect();
    assert_eq!(workloads, table);
    assert!(table
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let table: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                "lower".to_owned(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(e2e, table);

    let layers: Vec<(String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    let table: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(layers, table);

    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
}
