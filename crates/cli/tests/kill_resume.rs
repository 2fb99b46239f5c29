//! A durable campaign killed and resumed from the command line (DESIGN.md
//! §12): `iwscan` killed mid-campaign exits 9 and leaves the campaign
//! file it wrote before the run, a resume from that file reruns the
//! campaign and writes the metrics, the stream and the campaign file of
//! a run never interrupted byte for byte, and a resume under another
//! campaign is refused with exit 2 before any scan work, naming the
//! difference.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use iw_core::checkpoint::CHECKPOINT_VERSION;
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
/// 500 events, and resumed from the campaign file the killed run wrote
/// before it started. The resume asks for one thread, and runs the two
/// the file records. Asserts the exit codes, that the kill left no
/// output but the campaign file, and that the resume writes the
/// uninterrupted run's metrics, stream and campaign file byte for byte.
fn kill_then_resume(dir: &Path, flags: &[&str]) {
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
        killed.contains(&format!("\"version\":{CHECKPOINT_VERSION},\"threads\":2,")),
        "{killed}"
    );
    assert!(
        !dir.join("killed.metrics.json").exists(),
        "a killed campaign reports nothing"
    );
    std::fs::write(dir.join("killed.ckpt"), &killed).expect("keep the kill's campaign file");
    let resume = ["--resume", "@weekly.ckpt", "--threads", "1"];
    let (code, stderr) = run("@weekly.ckpt", "resumed", &resume);
    assert_eq!(code, Some(0), "resumed run: {stderr}");
    for (base, resumed) in [
        ("base.metrics.json", "resumed.metrics.json"),
        ("base.stream.jsonl", "resumed.stream.jsonl"),
        ("base.ckpt", "weekly.ckpt"),
    ] {
        assert!(
            read(dir, base) == read(dir, resumed),
            "{flags:?}: {resumed} differs from {base}"
        );
    }
}

/// The classic campaign resumes byte-identically; a resume under another
/// campaign, or from a campaign file of the replay barrier's version, is
/// refused with exit 2, naming the difference.
#[test]
fn a_killed_campaign_resumes_byte_identically_and_refuses_another_campaign() {
    let dir = out_dir("classic");
    kill_then_resume(&dir, &["--seed", "7"]);
    // A config-digest field, the CLI context and the version each name
    // themselves.
    let current = format!("\"version\":{CHECKPOINT_VERSION},");
    let barrier = read(&dir, "killed.ckpt").replace(&current, "\"version\":11,");
    std::fs::write(dir.join("barrier.ckpt"), barrier).expect("write a version-11 file");
    for (flags, file, reason) in [
        (&["--seed", "8"][..], "@killed.ckpt", "config field `seed`"),
        (
            &["--seed", "7", "--loss", "1"][..],
            "@killed.ckpt",
            "campaign context differs",
        ),
        (
            &["--seed", "7"][..],
            "@barrier.ckpt",
            "unsupported checkpoint version 11",
        ),
    ] {
        let (code, stderr) = scan(&dir, flags, &["--resume", file]);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(reason), "{flags:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With SYN retries the kill lands while silent targets owe retries; the
/// rerun from event zero still writes the uninterrupted run's files.
#[test]
fn a_hardened_campaign_killed_while_retries_are_owed_resumes_byte_identically() {
    let dir = out_dir("hardened");
    kill_then_resume(&dir, &["--seed", "7", "--syn-retries", "2"]);
    let _ = std::fs::remove_dir_all(&dir);
}
