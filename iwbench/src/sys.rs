//! What the benchmark reads from the host: memory high-water mark, core
//! count, toolchain and revision for the provenance header.

use std::process::Command;

/// This process's peak resident set (`VmHWM`) in KiB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// `<short rev>[-dirty]`, or `unknown` outside a git checkout (the
/// benchmark driver's checkout is not one).
pub fn git_rev() -> String {
    let Some(rev) = command_line("git", &["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match command_line("git", &["status", "--porcelain"]) {
        Some(status) if !status.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}
