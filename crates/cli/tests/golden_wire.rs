//! The wire goldens of `tests/golden/README.md`, checked where `cargo
//! test` runs: the flight-recorder scan and the TLS wire scan, run
//! through the entry point `iwscan` calls, must write `smoke.pcap` and
//! `smoke.tls.pcap` byte for byte, and the TLS scan's `--json` must not
//! change at `--threads 4`. Every byte a host sends is written into its
//! packet from a description (the page head included), so these files
//! are what hold those bytes.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use std::path::{Path, PathBuf};

/// A fresh directory for one test's output files.
fn out_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("iwscan-golden-wire-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// Run `iwscan scan` with `args`, writing its files into `dir`.
fn scan(dir: &Path, args: &[&str]) {
    let argv: Vec<String> = std::iter::once("scan")
        .chain(args.iter().copied())
        .map(|arg| match arg.strip_prefix('@') {
            Some(file) => dir.join(file).to_string_lossy().into_owned(),
            None => arg.to_string(),
        })
        .collect();
    assert_eq!(iw_cli::run(&argv), Ok(0), "iwscan {argv:?}");
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("read an output or golden file")
}

/// `got` must be `want` byte for byte; a mismatch names the first byte
/// that differs rather than printing both files.
fn assert_same_bytes(got: &[u8], want: &[u8], what: &str) {
    let first = got.iter().zip(want).position(|(a, b)| a != b);
    assert!(
        first.is_none() && got.len() == want.len(),
        "{what}: first difference at byte {} ({} bytes written, {} expected)",
        first.unwrap_or(got.len().min(want.len())),
        got.len(),
        want.len()
    );
}

fn golden(name: &str) -> Vec<u8> {
    read(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden")
            .join(name),
    )
}

#[test]
fn the_flight_recorder_scan_writes_the_golden_pcap() {
    let dir = out_dir("flight");
    scan(
        &dir,
        &[
            "--scale",
            "small",
            "--sample",
            "0.003",
            "--seed",
            "31",
            "--threads",
            "1",
            "--syn-retries",
            "1",
            "--loss",
            "2",
            "--quiet",
            "--flight-out",
            "@out.flight.jsonl",
            "--pcap",
            "@out.pcap",
        ],
    );
    assert_same_bytes(
        &read(&dir.join("out.pcap")),
        &golden("smoke.pcap"),
        "smoke.pcap",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_tls_wire_scan_writes_the_golden_pcap_at_any_thread_count() {
    let dir = out_dir("tls");
    let tls = |threads: &str, extra: &[&str]| {
        let mut args = vec![
            "--protocol",
            "tls",
            "--scale",
            "small",
            "--sample",
            "0.003",
            "--seed",
            "31",
            "--threads",
            threads,
            "--quiet",
        ];
        args.extend_from_slice(extra);
        scan(&dir, &args);
    };
    tls("1", &["--pcap", "@out.tls.pcap", "--json", "@out.tls.json"]);
    tls("4", &["--json", "@out4.tls.json"]);
    assert_same_bytes(
        &read(&dir.join("out.tls.pcap")),
        &golden("smoke.tls.pcap"),
        "smoke.tls.pcap",
    );
    let one = read(&dir.join("out.tls.json"));
    assert!(!one.is_empty(), "the TLS scan wrote no results");
    assert_same_bytes(
        &read(&dir.join("out4.tls.json")),
        &one,
        "TLS results at 4 threads",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
