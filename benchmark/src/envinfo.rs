//! The environment block every result file carries, and the `/proc`
//! readers the rig uses to observe its own process from outside.

use std::process::Command;

use crate::json::Json;

/// Worker threads of the two threaded configurations. Fixed: a result is
/// comparable only with results taken at the same thread count.
pub const THREADS: usize = 2;

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// With fewer hardware threads than workers the threaded configurations
/// time-share cores, and their times are scheduling artifacts.
pub fn oversubscribed() -> bool {
    nproc() < THREADS
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Size of cpu0's cache at `level` as sysfs spells it (`"4096K"`), else
/// the matching `lscpu` line.
fn cache_size(level: u32) -> String {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    for index in 0..8 {
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/index{index}/{file}"));
        let (Ok(lvl), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            return size.trim().to_owned();
        }
    }
    command_line("lscpu", &[])
        .and_then(|text| {
            text.lines()
                .find(|l| l.trim_start().starts_with(&format!("L{level} cache:")))
                .and_then(|l| l.split(':').nth(1).map(|v| v.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment a result was taken in.
pub fn block(seed: u64) -> Json {
    let unknown = || "unknown".to_owned();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(THREADS as f64)),
        ("oversubscribed", Json::Bool(oversubscribed())),
        ("seed", Json::Num(seed as f64)),
        // A driver checkout is not a git repository; then this is unknown.
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("l2_cache", Json::Str(cache_size(2))),
        ("l3_cache", Json::Str(cache_size(3))),
    ])
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(f64::NAN, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat`. Linux reports them in ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(f64::NAN, |t| t / TICKS_PER_S)
}

fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_files() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        let stat = "42 (op2 bench) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(300.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_readers_return_numbers_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}
