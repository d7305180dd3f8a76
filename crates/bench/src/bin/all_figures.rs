//! Runs the Fig 15/16 harnesses with shared settings, writing CSVs to
//! `results/` — the one-shot reproduction driver.

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    std::fs::create_dir_all("results").expect("mkdir results");

    let figures = ["fig15_exec_time", "fig16_strong_scaling"];
    for fig in figures {
        println!("\n=== {fig} ===");
        let mut cmd = Command::new(exe_dir.join(fig));
        cmd.args(&args)
            .arg("--csv")
            .arg(format!("results/{fig}.csv"));
        let status = cmd.status().unwrap_or_else(|e| panic!("spawn {fig}: {e}"));
        assert!(status.success(), "{fig} failed");
    }
    println!("\nall figures complete; CSVs in results/");
}
