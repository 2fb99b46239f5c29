//! The `iwscan` binary's exit codes for configurations it refuses.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use std::process::Command;

fn iwscan(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_iwscan"))
        .args(args)
        .output()
        .expect("iwscan runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn retry_budgets_above_the_maximum_exit_2() {
    for flag in ["--syn-retries", "--probe-retries"] {
        let (code, stderr) = iwscan(&["scan", "--scale", "small", flag, "16", "--quiet"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains("above the maximum of 15"),
            "{flag}: {stderr}"
        );
    }
}

/// The campaign file is written before the run starts, so a path that
/// cannot be written fails before any scan work: no Table 1 is printed.
#[test]
fn a_checkpoint_that_cannot_be_written_exits_2() {
    let dir = std::env::temp_dir().join(format!("iwscan-no-such-dir-{}", std::process::id()));
    let path = dir.join("x.ckpt").to_string_lossy().into_owned();
    let out = Command::new(env!("CARGO_BIN_EXE_iwscan"))
        .args([
            "scan", "--scale", "small", "--sample", "0.02", "--seed", "7",
        ])
        .args(["--threads", "2", "--quiet", "--checkpoint-out", &path])
        .output()
        .expect("iwscan runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("write {path}: ")), "{stderr}");
    assert!(
        !stdout.contains("Reachable"),
        "a Table 1 was printed: {stdout}"
    );
}

#[test]
fn a_closed_stdout_neither_fails_the_scan_nor_loses_its_files() {
    let dir = std::env::temp_dir().join(format!("iwscan-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (results, metrics) = (dir.join("r.json"), dir.join("m.json"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_iwscan"))
        .args(["scan", "--scale", "small", "--sample", "0.02", "--monitor"])
        .arg("--json")
        .arg(&results)
        .arg("--metrics-out")
        .arg(&metrics)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("iwscan runs");
    // The reader goes away before the scan prints its first line, as
    // `head` does once it has its lines.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("iwscan exits");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for file in [&results, &metrics] {
        let written = std::fs::read_to_string(file).expect("the scan writes its file");
        assert!(written.starts_with(['[', '{']), "{}", file.display());
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
