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

#[test]
fn a_checkpoint_that_cannot_be_written_exits_2() {
    let dir = std::env::temp_dir().join(format!("iwscan-no-such-dir-{}", std::process::id()));
    let path = dir.join("x.ckpt").to_string_lossy().into_owned();
    let (code, stderr) = iwscan(&[
        "scan",
        "--scale",
        "small",
        "--sample",
        "0.02",
        "--seed",
        "7",
        "--threads",
        "2",
        "--quiet",
        "--checkpoint-out",
        &path,
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(&format!("write {path}: ")), "{stderr}");
}
