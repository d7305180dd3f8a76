//! The `airfoil` CLI refuses a flag it cannot honour instead of running
//! without it: every usage error `main` detects exits with code 2 and a
//! message naming the flag, before any mesh is built.

use std::process::Command;

/// Runs `airfoil` on a tiny mesh with `flags` and asserts it stopped on a
/// usage error naming `flag`.
fn assert_usage_error(flags: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_airfoil"))
        .args(["--cells", "200", "--iters", "1"])
        .args(flags)
        .output()
        .expect("launch airfoil binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flags:?}: stderr: {stderr}");
    assert!(stderr.contains(flag), "{flags:?}: stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{flags:?}: nothing may run: {out:?}");
}

/// `--skew` skews the load that ranks balance, so a single-rank run
/// refuses it the way it refuses `--rebalance`: exit code 2, with a
/// message naming the flag, before any mesh is built.
#[test]
fn skew_on_one_rank_exits_2_naming_the_flag() {
    assert_usage_error(&["--skew", "5"], "--skew");
}

/// Rebalancing weighs each rank by its measured busy time. Ranks sharing
/// one in-process runtime measure each other's contention, so `--rebalance`
/// needs one OS process per rank, on one rank or on several.
#[test]
fn rebalance_without_process_transport_exits_2_naming_the_flag() {
    assert_usage_error(&["--rebalance", "5"], "--rebalance");
    assert_usage_error(&["--rebalance", "5", "--ranks", "2"], "--rebalance");
}

/// One process per rank needs more than one rank.
#[test]
fn process_transport_on_one_rank_exits_2_naming_the_flag() {
    assert_usage_error(&["--transport", "process"], "--transport");
    assert_usage_error(&["--transport", "process", "--ranks", "1"], "--transport");
}

#[test]
fn unknown_backend_exits_2_naming_the_flag() {
    assert_usage_error(&["--backend", "openmp"], "--backend");
}

#[test]
fn unknown_transport_exits_2_naming_the_flag() {
    assert_usage_error(&["--transport", "mpi"], "--transport");
    assert_usage_error(&["--transport", "mpi", "--ranks", "2"], "--transport");
}

/// An unknown flag, a value that does not parse and a flag with no value
/// are usage errors too, not panics.
#[test]
fn unknown_flag_exits_2_naming_it() {
    assert_usage_error(&["--bogus"], "--bogus");
}

#[test]
fn unparsable_value_exits_2_naming_the_flag() {
    assert_usage_error(&["--cells", "abc"], "--cells");
}

#[test]
fn missing_value_exits_2_naming_the_flag() {
    assert_usage_error(&["--iters", "3", "--cells"], "--cells");
}
