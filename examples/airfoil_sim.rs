//! The paper's evaluation application end-to-end: generate the mesh,
//! declare the problem, run the five-loop time stepping under the
//! dataflow backend, and report the residual history — the programmatic
//! equivalent of the `airfoil` CLI.
//!
//! ```text
//! cargo run --release --example airfoil_sim
//! ```

use op2_hpx::airfoil::{PlainAirfoil, Problem};
use op2_hpx::app::RunConfig;
use op2_hpx::mesh::{quad_stats, QuadMesh};
use op2_hpx::op2::{Op2, Op2Config};

fn main() {
    let mesh = QuadMesh::with_cells(10_000);
    println!("mesh: {}", quad_stats(&mesh));

    let op2 = Op2::new(Op2Config::dataflow(2));
    let problem = Problem::declare(&op2, &mesh);

    let result = op2_hpx::app::run(
        &mut PlainAirfoil::new(&op2, &problem),
        RunConfig::iterations(100, 16),
    );

    println!(
        "{} iterations in {:.1} ms ({:.3} ms/iter)",
        result.residuals.len(),
        result.elapsed.as_secs_f64() * 1e3,
        result.elapsed.as_secs_f64() * 1e3 / result.residuals.len() as f64
    );
    for (i, rms) in result.residuals.iter().enumerate() {
        if (i + 1) % 20 == 0 {
            println!("  iter {:4}: rms = {rms:.6e}", i + 1);
        }
    }

    println!("\nper-loop breakdown:");
    for (name, stat) in op2.loop_stats() {
        println!(
            "  {name:10} x{:4}  {:7.1} ms",
            stat.invocations,
            stat.total.as_secs_f64() * 1e3
        );
    }
}
