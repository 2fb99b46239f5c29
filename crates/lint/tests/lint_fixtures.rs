//! Fixture tests: every rule fires with the right span, suppressions
//! work, and the real workspace is clean.

use iw_lint::{check_files, collect_workspace, load_allowlist, AllowEntry, Diagnostic, LintConfig};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str, config: &LintConfig) -> Vec<Diagnostic> {
    let files = collect_workspace(&fixture_root(name)).unwrap();
    check_files(&files, config)
}

fn dirty_config() -> LintConfig {
    LintConfig {
        wall_clock_crates: vec!["app".into()],
        unordered_paths: vec!["crates/app/src/".into()],
        panic_exempt_crates: vec!["harness".into()],
        allowlist: Vec::new(),
        shared_state_crates: vec!["netsim".into()],
    }
}

#[track_caller]
fn assert_fires(diags: &[Diagnostic], rule: &str, path: &str, line: usize, needle: &str) {
    assert!(
        diags.iter().any(|d| d.rule == rule
            && d.path == path
            && d.line == line
            && d.message.contains(needle)),
        "expected {rule} at {path}:{line} containing {needle:?}; got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {}[{}:{}] {}", d.rule, d.path, d.line, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn pattern_rules_fire_with_the_right_spans() {
    let diags = lint_fixture("dirty", &dirty_config());
    let lib = "crates/app/src/lib.rs";
    assert_fires(&diags, "no-wall-clock", lib, 3, "SystemTime");
    assert_fires(&diags, "no-wall-clock", lib, 5, "SystemTime");
    assert_fires(&diags, "no-wall-clock", lib, 6, "SystemTime");
    assert_fires(&diags, "no-unordered-iteration", lib, 10, "HashMap");
    assert_fires(&diags, "panic-budget", lib, 16, ".unwrap()");
    assert_fires(&diags, "rng-hygiene", lib, 20, "thread_rng");
    // Line 2 spells `#![forbid(unsafe_code)]` inside a string and a
    // comment; neither is the attribute.
    assert_fires(
        &diags,
        "unsafe-forbidden",
        lib,
        0,
        "does not forbid unsafe code",
    );
    // The token engine fires per occurrence, not per line: line 10
    // mentions HashMap twice (type and constructor).
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.rule == "no-unordered-iteration" && d.line == 10)
            .count(),
        2
    );
}

#[test]
fn raw_strings_and_nested_comments_neither_hide_nor_fake_violations() {
    // Regression for the old line stripper: a raw string with an odd
    // embedded quote (`r#"…"…"#`) desynced it, and `/* /* */ */` ended
    // the comment early — producing false negatives on everything after.
    let diags = lint_fixture("dirty", &dirty_config());
    let hidden = "crates/app/src/hidden.rs";
    let in_hidden: Vec<&Diagnostic> = diags.iter().filter(|d| d.path == hidden).collect();
    // The SystemTime/unwrap/thread_rng text inside raw strings (lines
    // 5-6) and inside the nested block comment (line 10) must not fire…
    assert!(
        in_hidden.iter().all(|d| d.line == 13),
        "string/comment contents leaked into diagnostics:\n{}",
        in_hidden
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // …while the real unwrap after both constructs is still caught.
    assert_fires(&diags, "panic-budget", hidden, 13, ".unwrap()");
    assert_eq!(in_hidden.len(), 1);
}

#[test]
fn out_of_scope_crate_is_untouched() {
    let diags = lint_fixture("dirty", &dirty_config());
    assert!(
        diags.iter().all(|d| !d.path.contains("harness")),
        "harness is exempt from wall-clock and panic-budget"
    );
}

#[test]
fn test_regions_are_exempt() {
    let diags = lint_fixture("dirty", &dirty_config());
    // The trailing `mod tests` in the fixture uses HashSet and unwrap;
    // nothing may fire past the #[cfg(test)] line (line 24).
    assert!(
        diags
            .iter()
            .all(|d| d.path != "crates/app/src/lib.rs" || d.line < 24),
        "test region produced diagnostics"
    );
}

#[test]
fn no_shared_state_fires_on_sync_primitives_in_simulation_crates_only() {
    let diags = lint_fixture("dirty", &dirty_config());
    let sim = "crates/netsim/src/lib.rs";
    assert_fires(&diags, "no-shared-state", sim, 5, "`Mutex`");
    assert_fires(&diags, "no-shared-state", sim, 6, "`AtomicU64`");
    // The `Arc` field, the comment and string on lines 11-13 and the
    // statics of the trailing test module are all legal; the harness
    // crate holds the same two primitives out of scope.
    let fired: Vec<(&str, usize)> = diags
        .iter()
        .filter(|d| d.rule == "no-shared-state")
        .map(|d| (d.path.as_str(), d.line))
        .collect();
    assert_eq!(fired, [(sim, 5), (sim, 6)]);
}

#[test]
fn inline_suppressions_cannot_outlive_what_they_excused() {
    let diags = lint_fixture("dirty", &dirty_config());
    let stale = "crates/app/src/stale.rs";
    assert_fires(
        &diags,
        "allowlist-hygiene",
        stale,
        6,
        "inline suppression of `panic-budget` suppresses no diagnostic",
    );
    assert_fires(
        &diags,
        "allowlist-hygiene",
        stale,
        11,
        "inline suppression names unknown rule `no-such-rule`",
    );
    // The marker quoted in the doc comment, the one inside the string
    // and the one in the test module are not suppressions to audit.
    assert_eq!(diags.iter().filter(|d| d.path == stale).count(), 2);
}

#[test]
fn dirty_fixture_has_no_false_positives() {
    let diags = lint_fixture("dirty", &dirty_config());
    // 8 in lib.rs (two HashMap hits on line 10) + 1 in hidden.rs
    // + 2 no-shared-state + 2 stale inline suppressions.
    assert_eq!(
        diags.len(),
        13,
        "unexpected diagnostics:\n{}",
        diags
            .iter()
            .map(|d| format!("  {}[{}:{}] {}", d.rule, d.path, d.line, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn suppressed_config(with_allowlist: bool) -> LintConfig {
    LintConfig {
        wall_clock_crates: Vec::new(),
        unordered_paths: Vec::new(),
        panic_exempt_crates: Vec::new(),
        allowlist: if with_allowlist {
            vec![AllowEntry {
                rule: "panic-budget".into(),
                path: "crates/app/src/lib.rs".into(),
                needle: "Some(3)".into(),
                line: 1,
            }]
        } else {
            Vec::new()
        },
        shared_state_crates: Vec::new(),
    }
}

#[test]
fn inline_and_allowlist_suppressions_work() {
    // Inline allows (same line and line above) plus the allowlist
    // entry silence all three unwraps.
    let diags = lint_fixture("suppressed", &suppressed_config(true));
    assert!(
        diags.is_empty(),
        "suppressions failed:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Without the allowlist entry, exactly the unsuppressed site fires.
    let diags = lint_fixture("suppressed", &suppressed_config(false));
    assert_eq!(diags.len(), 1);
    assert_fires(
        &diags,
        "panic-budget",
        "crates/app/src/lib.rs",
        14,
        ".unwrap()",
    );
}

#[test]
fn unsafe_in_a_test_target_fires_unless_its_path_is_allow_listed() {
    // An integration test is its own crate: the library's
    // `#![forbid(unsafe_code)]` does not reach it, the lint does.
    let files = collect_workspace(&fixture_root("suppressed")).unwrap();
    let target = "crates/app/tests/alloc.rs";
    let tests = [iw_lint::SourceFile::parse(
        target,
        "struct Counting; // not unsafe here\nunsafe impl Sync for Counting {}\n",
    )];
    let mut config = suppressed_config(true);
    let diags = iw_lint::check_with_tests(&files, &tests, &config);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_fires(
        &diags,
        "unsafe-forbidden",
        target,
        2,
        "`unsafe` in a test target",
    );
    config.allowlist.push(AllowEntry {
        rule: "unsafe-forbidden".into(),
        path: target.into(),
        needle: "unsafe".into(),
        line: 2,
    });
    let diags = iw_lint::check_with_tests(&files, &tests, &config);
    assert!(diags.is_empty(), "allow-listed by path: {diags:?}");
    // The real workspace has exactly one such target.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let with_unsafe: Vec<String> = iw_lint::collect_test_targets(&root)
        .unwrap()
        .into_iter()
        .filter(|f| f.tokens.iter().any(|t| t.is_ident("unsafe")))
        .map(|f| f.rel_path)
        .collect();
    assert_eq!(with_unsafe, ["crates/core/tests/alloc_budget.rs"]);
}

#[test]
fn observability_sources_are_in_panic_budget_scope() {
    // The tracing/flight-recorder layer must be audited, not exempt:
    // each new telemetry source is collected, lives in a lint-scoped
    // crate, and passes the panic budget on its own.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let files = collect_workspace(&root).unwrap();
    let config = LintConfig::project();
    for path in [
        "crates/telemetry/src/trace.rs",
        "crates/telemetry/src/recorder.rs",
        "crates/telemetry/src/sink.rs",
        "crates/telemetry/src/harvest.rs",
        "crates/core/src/scanner.rs",
    ] {
        let file = files
            .iter()
            .find(|f| f.rel_path == path)
            .unwrap_or_else(|| panic!("{path} not collected"));
        assert!(
            !config.panic_exempt_crates.iter().any(|c| c == file.krate()),
            "{path} must not be panic-budget exempt"
        );
        let mut diags = Vec::new();
        iw_lint::rules::panic_budget(std::slice::from_ref(file), &config, &mut diags);
        assert!(
            diags.is_empty(),
            "{path} violates the panic budget:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn project_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let mut config = LintConfig::project();
    config.allowlist = load_allowlist(&root).unwrap();
    let diags = iw_lint::run(&root, &config).unwrap();
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
