//! The `airfoil` CLI refuses a flag it cannot honour instead of running
//! without it.

use std::process::Command;

/// `--skew` skews the load that ranks balance, so a single-rank run
/// refuses it the way it refuses `--rebalance`: exit code 2, with a
/// message naming the flag, before any mesh is built.
#[test]
fn skew_on_one_rank_exits_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_airfoil"))
        .args(["--cells", "200", "--iters", "1", "--skew", "5"])
        .output()
        .expect("launch airfoil binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--skew"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
}
