//! The `iwscan` binary's exit codes for configurations it refuses.

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
