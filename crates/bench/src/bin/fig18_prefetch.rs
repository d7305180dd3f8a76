//! **Fig 18**: the prefetching iterator (§V) applied on top of the
//! dataflow configuration, distance factor 15 (the paper's optimum). The paper reports ≈45% average speedup improvement.

use op2_bench::{parse_sweep_args, run_airfoil, tables::ms, Table, Variant};

fn main() {
    let args = parse_sweep_args();
    println!(
        "Fig 18 — prefetching ablation (cells={}, iters={}, distance=15, min of {} reps)\n",
        args.cells, args.iters, args.reps
    );
    let mut table = Table::new(vec![
        "threads",
        "dataflow_ms",
        "prefetch_ms",
        "improvement_%",
    ]);
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &t in &args.threads {
        let base = run_airfoil(Variant::Dataflow, t, args.cells, args.iters, args.reps);
        let pf = run_airfoil(
            Variant::DataflowPrefetch { distance: 15 },
            t,
            args.cells,
            args.iters,
            args.reps,
        );
        let improvement = (base.time.as_secs_f64() / pf.time.as_secs_f64() - 1.0) * 100.0;
        rows.push((
            t,
            base.time.as_secs_f64(),
            pf.time.as_secs_f64(),
            improvement,
        ));
        table.row(vec![
            t.to_string(),
            ms(base.time),
            ms(pf.time),
            format!("{improvement:.1}"),
        ]);
    }
    print!("{}", table.render());
    if let Some(path) = &args.csv {
        table.write_csv(path).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &args.json {
        // Hand-rolled JSON (offline build: no serde).
        let mut json = String::from("{\n  \"bench\": \"fig18_prefetch\",\n");
        json.push_str(&format!(
            "  \"cells\": {}, \"iters\": {}, \"reps\": {}, \"distance\": 15,\n",
            args.cells, args.iters, args.reps
        ));
        json.push_str("  \"points\": [\n");
        for (i, (t, base, pf, imp)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"threads\": {t}, \"dataflow_seconds\": {base:.6}, \
                 \"prefetch_seconds\": {pf:.6}, \"improvement_pct\": {imp:.2}}}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json).expect("write JSON");
        eprintln!("wrote {}", path.display());
    }
}
