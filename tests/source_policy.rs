//! Source-level policies no compiler lint states, checked against the
//! files they police (each fails on the first line that breaks it):
//!
//! - a result is a check or it goes: the paper's results are judged by
//!   `exp_all` or held by a named test, so the only binary is that
//!   report;
//! - one observability spine: the scanner reports each observation to
//!   `Observer::emit` (`crates/core/src/observe.rs`) and names no
//!   telemetry product;
//! - the scanner's file is its dispatch: the retry FIFOs, the eviction
//!   order, the timer-token layout and the MTU prober live in its
//!   submodules (`crates/core/src/scanner/`), each in one place;
//! - one lint policy: a crate's `clippy.toml` replaces the root one
//!   instead of extending it, so the two crate files are the root file
//!   plus the hash containers, and no other directory has a
//!   `clippy.toml` or a `.clippy.toml` (which clippy reads first);
//! - every library root forbids unsafe code (`[workspace.lints]` can only
//!   deny it: a `forbid` there would refuse the allocation-budget test's
//!   allocator);
//! - hash containers are legal in `iw-core`, but not on the path that
//!   writes results: the part of `results.rs` above its tests names none;
//! - one address map: `iw_telemetry::AddrMap` is the only map type
//!   built over a `BuildHasherDefault`, and nothing under `crates/` but
//!   the benchmark's shim (`crates/core/src/table.rs`) names `IpMap`;
//! - one count, one history: the metrics registry is the only thing that
//!   counts a session event and the flight recorder the only per-host
//!   history, so nothing under `crates/` names the event log that was a
//!   second of each, and its switch is named only where it stays inert
//!   (`crates/core/src/config.rs`);
//! - one history: a black box is a window of a watched history, frozen
//!   by the recorder, so nothing among the crates, examples and root
//!   tests but `crates/telemetry/src/recorder.rs` builds a `FlightDump`
//!   or keeps flight entries in a ring (`VecDeque<FlightEntry>`);
//! - one truth: the driver tallies every HTTP and TLS run against the
//!   population once, so the scanner (`crates/core/src/scanner*`) names
//!   neither `ground_truth` nor `Confusion`, and nothing but
//!   `core/src/driver.rs` and `core/src/results.rs` names the tally,
//!   `of_population`, among the crates, examples and root tests;
//! - one campaign file: a resume reruns its campaign from event zero,
//!   so nothing captures scanner state during a run. The replay
//!   barrier's names survive only in the benchmark's inert shims
//!   (`crates/core/src/driver.rs`), and the one item that still opts out
//!   of the thread-sharing lint is the address map
//!   (`crates/telemetry/src/addr.rs`);
//! - stdout is written through `iw_telemetry::print_line`, which drops a
//!   line once stdout is gone (`exp_all | head`) instead of panicking, so
//!   no library or binary source under `crates/*/src` calls `println!` or
//!   `print!`.

use std::path::{Path, PathBuf};

const SCANNER: &str = include_str!("../crates/core/src/scanner.rs");
const RESULTS: &str = include_str!("../crates/core/src/results.rs");
const CLIPPY: &str = include_str!("../clippy.toml");

/// The repository root.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The sorted file names in `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display()));
    let mut names: Vec<String> = entries
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The lines of `source` naming any of `words` as a whole word (what
/// `grep -w` matches), as `line number: text`.
fn naming(source: &str, words: &[&str]) -> Vec<String> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let names = |line: &str, word: &str| {
        line.match_indices(word).any(|(at, _)| {
            let before = line[..at].chars().next_back();
            let after = line[at + word.len()..].chars().next();
            !before.is_some_and(is_word) && !after.is_some_and(is_word)
        })
    };
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| words.iter().any(|word| names(line, word)))
        .map(|(n, line)| format!("{}: {line}", n + 1))
        .collect()
}

#[test]
fn only_exp_all_is_a_binary() {
    let bins = listing(&root().join("crates/bench/src/bin"));
    assert_eq!(bins, ["exp_all.rs"]);
}

#[test]
fn the_scanner_names_no_telemetry_product() {
    let products = [
        "Tracer",
        "FlightRecorder",
        "TelemetrySink",
        "IcmpHarvest",
        "ProgressMonitor",
        "BufferSink",
        "StdoutSink",
    ];
    assert_eq!(naming(SCANNER, &products), Vec::<String>::new());
}

#[test]
fn the_scanner_dispatch_holds_no_retry_eviction_or_mtu_state() {
    let state = [
        "RetryQueue",
        "RetryLevels",
        "VecDeque",
        "session_order",
        "SYN_RETRY_NS",
        "WATCHDOG_NS",
        "retry_token",
        "send_echo",
        "syn_retry_fire",
        "evict_oldest",
    ];
    assert_eq!(naming(SCANNER, &state), Vec::<String>::new());
}

/// The Rust sources under `crates/`, relative to the repository root.
fn crate_sources() -> Vec<String> {
    let mut sources = Vec::new();
    find_files(
        &root().join("crates"),
        &|name| name.ends_with(".rs"),
        &mut sources,
    );
    sources
}

/// Every file under `dir` whose name `wanted` accepts, relative to the
/// repository root, skipping build output (`target/`) and `.git/`.
fn find_files(dir: &Path, wanted: &dyn Fn(&str) -> bool, found: &mut Vec<String>) {
    for name in listing(dir) {
        let path = dir.join(&name);
        if path.is_dir() {
            if name != "target" && name != ".git" {
                find_files(&path, wanted, found);
            }
        } else if wanted(&name) {
            let relative = path.strip_prefix(root()).unwrap();
            found.push(relative.to_string_lossy().into_owned());
        }
    }
}

#[test]
fn the_clippy_files_hold_one_policy() {
    let mut files = Vec::new();
    let wanted = |name: &str| name == "clippy.toml" || name == ".clippy.toml";
    find_files(&root(), &wanted, &mut files);
    files.sort();
    assert_eq!(
        files,
        [
            "clippy.toml",
            "crates/analysis/clippy.toml",
            "crates/telemetry/clippy.toml"
        ]
    );
    let hashes = ["std::collections::HashMap", "std::collections::HashSet"];
    for file in &files[1..] {
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        let (hash, rest): (Vec<&str>, Vec<&str>) = text
            .lines()
            .partition(|line| hashes.iter().any(|h| line.contains(h)));
        assert_eq!(hash.len(), 2, "{file}: {hash:?}");
        let root: Vec<&str> = CLIPPY.lines().collect();
        let first = rest.iter().zip(&root).position(|(a, b)| a != b);
        assert!(
            first.is_none() && rest.len() == root.len(),
            "{file} differs from clippy.toml beyond the hash lines, first at line {} of {}",
            first.unwrap_or(rest.len().min(root.len())) + 1,
            root.len()
        );
    }
}

#[test]
fn every_library_root_forbids_unsafe_code() {
    for krate in listing(&root().join("crates")) {
        let lib = root().join("crates").join(&krate).join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).unwrap();
        assert!(
            text.lines().any(|line| line == "#![forbid(unsafe_code)]"),
            "{} does not forbid unsafe code",
            lib.display()
        );
    }
}

#[test]
fn results_rs_names_no_hash_container() {
    let writer = RESULTS.split("#[cfg(test)]").next().unwrap_or_default();
    assert_eq!(
        naming(writer, &["HashMap", "HashSet"]),
        Vec::<String>::new()
    );
}

#[test]
fn one_address_map() {
    let (mut hashers, mut ip_maps) = (Vec::new(), Vec::new());
    for file in &crate_sources() {
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        for line in naming(&text, &["BuildHasherDefault"]) {
            let code = line.split_once(": ").unwrap().1.trim_start();
            if !code.starts_with("use ") && !code.starts_with("pub use ") {
                hashers.push(format!("{file}:{line}"));
            }
        }
        if file != "crates/core/src/table.rs" {
            let named = naming(&text, &["IpMap"]).into_iter();
            ip_maps.extend(named.map(|line| format!("{file}:{line}")));
        }
    }
    assert_eq!(
        hashers.len(),
        1,
        "one map type over a BuildHasherDefault: {hashers:#?}"
    );
    assert!(
        hashers[0].starts_with("crates/telemetry/src/addr.rs:"),
        "{hashers:?}"
    );
    assert_eq!(ip_maps, Vec::<String>::new());
}

#[test]
fn one_count_one_history() {
    let mut found = Vec::new();
    for file in &crate_sources() {
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        let mut words = vec!["EventLog", "EventRecord", "summary_json"];
        if file != "crates/core/src/config.rs" {
            words.push("record_events");
        }
        let named = naming(&text, &words).into_iter();
        found.extend(named.map(|line| format!("{file}:{line}")));
    }
    assert_eq!(found, Vec::<String>::new());
}

/// The Rust sources of the crates, the examples and the root tests.
fn all_sources() -> Vec<String> {
    let mut sources = crate_sources();
    for dir in ["examples", "tests"] {
        find_files(
            &root().join(dir),
            &|name| name.ends_with(".rs"),
            &mut sources,
        );
    }
    sources
}

#[test]
fn one_history() {
    let mut found = Vec::new();
    for file in &all_sources() {
        if file == "crates/telemetry/src/recorder.rs" || file == "tests/source_policy.rs" {
            continue;
        }
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        for (n, line) in text.lines().enumerate() {
            let squeezed: String = line.split_whitespace().collect();
            let ring = squeezed.match_indices("VecDeque<").any(|(at, _)| {
                let held = squeezed[at..].split('>').next().unwrap_or_default();
                held.contains("FlightEntry")
            });
            if ring || squeezed.contains("FlightDump{") {
                found.push(format!("{file}:{}: {line}", n + 1));
            }
        }
    }
    assert_eq!(found, Vec::<String>::new());
}

#[test]
fn one_truth() {
    let mut found = Vec::new();
    for file in &all_sources() {
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        let mut words = Vec::new();
        if file.starts_with("crates/core/src/scanner") {
            words.extend(["ground_truth", "Confusion"]);
        }
        let tallies = ["crates/core/src/driver.rs", "crates/core/src/results.rs"];
        if !tallies.contains(&file.as_str()) && file != "tests/source_policy.rs" {
            words.push("of_population");
        }
        let named = naming(&text, &words).into_iter();
        found.extend(named.map(|line| format!("{file}:{line}")));
    }
    assert_eq!(found, Vec::<String>::new());
}

#[test]
fn one_campaign_file() {
    let shims = [
        "ShardCheckpoint",
        "checkpoint_every",
        "on_checkpoint",
        "CheckpointSink",
    ];
    let mut found = Vec::new();
    for file in &all_sources() {
        if file == "tests/source_policy.rs" {
            continue;
        }
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        let mut words = vec![];
        if file != "crates/core/src/driver.rs" {
            words.extend(shims);
        }
        if file != "crates/telemetry/src/addr.rs" {
            words.push("disallowed_types");
        }
        let named = naming(&text, &words).into_iter();
        found.extend(named.map(|line| format!("{file}:{line}")));
    }
    assert_eq!(found, Vec::<String>::new());
}

#[test]
fn stdout_goes_through_print_line() {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for file in crate_sources().iter().filter(|f| f.contains("/src/")) {
        let text = std::fs::read_to_string(root().join(file)).unwrap();
        for (n, line) in text.lines().enumerate() {
            let calls = ["println!(", "print!("].iter().any(|call| {
                (line.match_indices(call))
                    .any(|(at, _)| !line[..at].chars().next_back().is_some_and(is_word))
            });
            if calls {
                found.push(format!("{file}:{}: {line}", n + 1));
            }
        }
    }
    assert_eq!(found, Vec::<String>::new());
}
