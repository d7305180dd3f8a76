//! **Figs 15 and 16** from one thread sweep: Airfoil execution time of the
//! `#pragma omp parallel for` baseline vs `dataflow` (Fig 15), and the
//! strong-scaling speedup time(first thread count) / time(t) of each
//! (Fig 16). The paper reports parity at one thread and a dataflow
//! advantage of ≈33% at the highest thread counts, attributed to
//! asynchronous task execution and loop interleaving.

use op2_bench::{parse_sweep_args, run_airfoil, tables::ms, Table, Variant};
use op2_mesh::QuadMesh;

fn main() {
    let args = parse_sweep_args();
    println!(
        "Figs 15/16 — Airfoil execution time and strong scaling (cells={}, iters={}, min of {} reps)\n",
        args.cells, args.iters, args.reps
    );
    let mesh = QuadMesh::with_cells(args.cells);
    let mut runs = Vec::new();
    for &t in &args.threads {
        let omp = run_airfoil(&Variant::OpenMp.config(t), &mesh, args.iters, args.reps);
        let df = run_airfoil(&Variant::Dataflow.config(t), &mesh, args.iters, args.reps);
        // Physics must agree or the comparison is meaningless.
        let drift = (omp.final_rms - df.final_rms).abs() / omp.final_rms.max(1e-300);
        assert!(drift < 1e-6, "backends disagree on rms: {drift:e}");
        runs.push((t, omp.time, df.time));
    }
    let mut table = Table::new(vec![
        "threads",
        "omp_ms",
        "dataflow_ms",
        "dataflow/omp",
        "omp_speedup",
        "dataflow_speedup",
        "improvement_%",
    ]);
    let (omp_base, df_base) = (runs[0].1.as_secs_f64(), runs[0].2.as_secs_f64());
    for &(t, omp, df) in &runs {
        let (omp_s, df_s) = (omp.as_secs_f64(), df.as_secs_f64());
        table.row(vec![
            t.to_string(),
            ms(omp),
            ms(df),
            format!("{:.3}", df_s / omp_s),
            format!("{:.3}", omp_base / omp_s),
            format!("{:.3}", df_base / df_s),
            format!("{:.1}", (omp_s / df_s - 1.0) * 100.0),
        ]);
    }
    print!("{}", table.render());
    if let Some(path) = &args.csv {
        table.write_csv(path).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}
