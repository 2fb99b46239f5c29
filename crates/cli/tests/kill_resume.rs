//! A durable campaign killed and resumed from the command line (DESIGN.md
//! §12): `iwscan` killed mid-campaign exits 9 and leaves its checkpoint
//! behind, a resume from that file writes the metrics, the stream and
//! the final checkpoint of a run never interrupted byte for byte, and a
//! resume under another campaign is refused with exit 2 before any
//! replay, naming the difference.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use iw_core::checkpoint::{CampaignCheckpoint, CHECKPOINT_VERSION};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory for one test's files.
fn out_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("iwscan-kill-resume-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// Run `iwscan scan` over the smoke sample with `flags` then `args`, an
/// `@name` argument naming a file in `dir`; returns the exit code and
/// stderr.
fn scan(dir: &Path, flags: &[&str], args: &[&str]) -> (Option<i32>, String) {
    let sample = [
        "scan",
        "--scale",
        "small",
        "--sample",
        "0.02",
        "--threads",
        "2",
        "--quiet",
    ];
    let argv: Vec<String> = sample
        .iter()
        .chain(flags)
        .chain(args)
        .map(|arg| match arg.strip_prefix('@') {
            Some(file) => dir.join(file).to_string_lossy().into_owned(),
            None => arg.to_string(),
        })
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_iwscan"))
        .args(&argv)
        .output()
        .expect("iwscan runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).expect("read an output file")
}

/// Run the campaign of `flags` three times: uninterrupted, killed after
/// 500 events, and resumed from the kill's checkpoint. Asserts the kill's
/// exit code and that the resume reproduces the uninterrupted run's
/// metrics, stream and checkpoint; returns the kill checkpoint.
fn kill_and_resume(dir: &Path, flags: &[&str]) -> CampaignCheckpoint {
    let run = |ckpt: &str, out: &str, extra: &[&str]| {
        let (metrics, stream) = (
            format!("@{out}.metrics.json"),
            format!("@{out}.stream.jsonl"),
        );
        let mut args = vec!["--checkpoint-out", ckpt, "--metrics-out", &metrics];
        args.extend(["--stream-out", &stream]);
        args.extend_from_slice(extra);
        scan(dir, flags, &args)
    };
    let (code, stderr) = run("@base.ckpt", "base", &[]);
    assert_eq!(code, Some(0), "uninterrupted run: {stderr}");
    let (code, stderr) = run("@weekly.ckpt", "killed", &["--kill-after-events", "500"]);
    assert_eq!(code, Some(9), "a killed campaign exits 9: {stderr}");
    let killed = read(dir, "weekly.ckpt");
    assert!(
        killed.contains(&format!("\"version\":{CHECKPOINT_VERSION},")),
        "{killed}"
    );
    std::fs::write(dir.join("killed.ckpt"), &killed).expect("keep the kill checkpoint");
    let (code, stderr) = run("@weekly.ckpt", "resumed", &["--resume", "@weekly.ckpt"]);
    assert_eq!(code, Some(0), "resumed run: {stderr}");
    for (base, resumed) in [
        ("base.metrics.json", "resumed.metrics.json"),
        ("base.stream.jsonl", "resumed.stream.jsonl"),
        ("base.ckpt", "weekly.ckpt"),
    ] {
        assert!(
            read(dir, base) == read(dir, resumed),
            "{resumed} differs from {base}"
        );
    }
    CampaignCheckpoint::parse(&killed).expect("the kill checkpoint parses")
}

#[test]
fn a_killed_campaign_resumes_byte_identically_and_refuses_another_campaign() {
    let dir = out_dir("classic");
    kill_and_resume(&dir, &["--seed", "7"]);
    // A config-digest field and the CLI context each name themselves.
    for (flags, reason) in [
        (&["--seed", "8"][..], "config field `seed`"),
        (
            &["--seed", "7", "--loss", "1"][..],
            "campaign context differs",
        ),
    ] {
        let (code, stderr) = scan(&dir, flags, &["--resume", "@killed.ckpt"]);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(reason), "{flags:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hardened_campaign_killed_while_retries_are_owed_resumes_byte_identically() {
    // With SYN retries the kill lands while silent targets owe retries:
    // the kill checkpoint's `pending` list, read off the retry FIFOs, is
    // not empty, and the resumed replay reproduces it at the barrier.
    // Every entry owes a retry: a target whose budget is spent waits for
    // nothing, and the FIFOs hold no give-up.
    let dir = out_dir("hardened");
    let killed = kill_and_resume(&dir, &["--seed", "7", "--syn-retries", "2"]);
    let pending: Vec<(u32, u32)> = killed
        .shards
        .iter()
        .flat_map(|shard| shard.pending.iter().copied())
        .collect();
    assert!(!pending.is_empty(), "the kill landed with no retry owed");
    assert!(
        pending.iter().all(|&(_, retries)| retries < 2),
        "a pending entry spent its whole budget: {pending:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
