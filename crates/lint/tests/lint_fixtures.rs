//! Fixture tests: every rule fires with the right span, suppressions
//! work, and the real workspace is clean.

use iw_lint::concurrency::{ChannelEndpoint, ConcurrencySpec, HotPathRoot, SharedStateSpec};
use iw_lint::machines::{MachineSpec, Transition};
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

const GATE_TRANSITIONS: [Transition; 2] = [
    Transition {
        from: "Open",
        to: "Closing",
        force: false,
    },
    Transition {
        from: "Closing",
        to: "Shut",
        force: false,
    },
];

fn gate_spec() -> MachineSpec {
    MachineSpec {
        name: "Gate",
        file: "crates/app/src/machine.rs",
        states: &["Open", "Closing", "Shut", "Stuck"],
        initial: "Open",
        terminal: &["Shut"],
        transitions: &GATE_TRANSITIONS,
    }
}

const LAMP_TRANSITIONS: [Transition; 2] = [
    Transition {
        from: "Off",
        to: "On",
        force: false,
    },
    Transition {
        from: "Off",
        to: "On",
        force: true,
    },
];

fn lamp_spec() -> MachineSpec {
    MachineSpec {
        name: "Lamp",
        file: "crates/app/src/goodmachine.rs",
        states: &["Off", "On"],
        initial: "Off",
        terminal: &["On"],
        transitions: &LAMP_TRANSITIONS,
    }
}

fn dirty_config() -> LintConfig {
    LintConfig {
        wall_clock_crates: vec!["app".into()],
        unordered_paths: vec!["crates/app/src/".into()],
        panic_exempt_crates: vec!["harness".into()],
        allowlist: Vec::new(),
        manifest_path: "crates/metrics/src/manifest.rs".into(),
        metric_families: vec!["fix.".into()],
        machines: vec![gate_spec(), lamp_spec()],
        concurrency: ConcurrencySpec::default(),
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
fn state_machine_rule_finds_every_drift() {
    let diags = lint_fixture("dirty", &dirty_config());
    let m = "crates/app/src/machine.rs";
    assert_fires(&diags, "state-machine", m, 0, "`Stuck` is unreachable");
    assert_fires(
        &diags,
        "state-machine",
        m,
        0,
        "`Open` has no forced transition",
    );
    assert_fires(
        &diags,
        "state-machine",
        m,
        0,
        "`Closing` has no forced transition",
    );
    assert_fires(
        &diags,
        "state-machine",
        m,
        0,
        "`Stuck` has no forced transition",
    );
    assert_fires(
        &diags,
        "state-machine",
        m,
        3,
        "`Limbo` is missing from the transition table",
    );
    assert_fires(&diags, "state-machine", m, 3, "`Stuck` is not a variant");
    assert_fires(&diags, "state-machine", m, 3, "`Stuck` is never produced");
    assert_fires(&diags, "state-machine", m, 3, "`Stuck` is never handled");
    // The in-sync Lamp machine contributes nothing.
    assert!(
        diags
            .iter()
            .all(|d| d.path != "crates/app/src/goodmachine.rs"),
        "in-sync machine must be clean"
    );
}

#[test]
fn metrics_manifest_rule_checks_declarations_and_call_sites() {
    let diags = lint_fixture("dirty", &dirty_config());
    let man = "crates/metrics/src/manifest.rs";
    let sites = "crates/metrics/src/sites.rs";
    assert_fires(
        &diags,
        "metrics-manifest",
        man,
        7,
        "already declared as `GOOD`",
    );
    assert_fires(&diags, "metrics-manifest", man, 8, "not lowercase dotted");
    assert_fires(
        &diags,
        "metrics-manifest",
        man,
        6,
        "declared but never registered",
    );
    assert_fires(
        &diags,
        "metrics-manifest",
        sites,
        5,
        "not declared in the manifest",
    );
    assert_fires(&diags, "metrics-manifest", sites, 6, "used here as a gauge");
    assert_fires(
        &diags,
        "metrics-manifest",
        sites,
        7,
        "registered here as Scope::Shard",
    );
    assert_fires(
        &diags,
        "metrics-manifest",
        sites,
        8,
        "registered with register_counter",
    );
    assert_fires(
        &diags,
        "metrics-manifest",
        sites,
        9,
        "not a declared metric",
    );
    // VIA_GROUP is referenced only through the GROUP array — the array
    // use must mark it as registered (no unused diag at line 5).
    assert!(
        diags.iter().all(|d| !(d.path == man && d.line == 5)),
        "array-propagated usage must count"
    );
    // STRAY is registered with the right kind but its name sits outside
    // the configured `fix.` family; BADNAME is malformed and must not
    // be reported a second time by the family check.
    assert_fires(
        &diags,
        "metrics-manifest",
        man,
        9,
        "outside the declared families (fix.)",
    );
    assert!(
        diags
            .iter()
            .all(|d| !(d.line == 8 && d.message.contains("families"))),
        "malformed names are reported once, not per check"
    );
}

#[test]
fn dirty_fixture_has_no_false_positives() {
    let diags = lint_fixture("dirty", &dirty_config());
    // 8 in lib.rs (two HashMap hits on line 10) + 1 in hidden.rs
    // + 8 state-machine + 4 manifest + 5 call sites.
    assert_eq!(
        diags.len(),
        26,
        "unexpected diagnostics:\n{}",
        diags
            .iter()
            .map(|d| format!("  {}[{}:{}] {}", d.rule, d.path, d.line, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------
// Concurrency rule pack
// ---------------------------------------------------------------------

fn concurrency_config() -> LintConfig {
    LintConfig {
        wall_clock_crates: Vec::new(),
        unordered_paths: Vec::new(),
        panic_exempt_crates: vec!["sim".into()],
        allowlist: Vec::new(),
        // Points at an existing file with no metric declarations, so
        // the metrics rule stays silent.
        manifest_path: "crates/sim/src/lib.rs".into(),
        metric_families: Vec::new(),
        machines: Vec::new(),
        concurrency: ConcurrencySpec {
            state_crates: vec!["sim"],
            channel_crates: vec!["sim"],
            shared_state: vec![
                SharedStateSpec {
                    file: "crates/sim/src/lib.rs",
                    name: "state",
                    kind: "Mutex",
                    role: "fixture",
                    rank: Some(10),
                },
                SharedStateSpec {
                    file: "crates/sim/src/lib.rs",
                    name: "journal",
                    kind: "Mutex",
                    role: "fixture",
                    rank: Some(20),
                },
                SharedStateSpec {
                    file: "crates/sim/src/lib.rs",
                    name: "ghost",
                    kind: "Mutex",
                    role: "stale on purpose",
                    rank: Some(30),
                },
                SharedStateSpec {
                    file: "crates/sim/src/pool.rs",
                    name: "shared",
                    kind: "Rc",
                    role: "fixture",
                    rank: None,
                },
            ],
            hot_path_roots: vec![
                HotPathRoot {
                    file: "crates/sim/src/lib.rs",
                    func: "Engine::step",
                    why: "fixture",
                },
                HotPathRoot {
                    file: "crates/sim/src/lib.rs",
                    func: "Engine::gone",
                    why: "stale on purpose",
                },
                HotPathRoot {
                    file: "crates/sim/src/pool.rs",
                    func: "PacketBuf::freeze",
                    why: "fixture",
                },
            ],
            cold_boundaries: Vec::new(),
            channels: vec![
                ChannelEndpoint {
                    name: "fx",
                    role: "fixture",
                    tx_files: &["crates/sim/src/chan.rs"],
                    rx_files: &["crates/sim/src/pump.rs"],
                },
                ChannelEndpoint {
                    name: "idle",
                    role: "stale on purpose",
                    tx_files: &["crates/sim/src/chan.rs"],
                    rx_files: &[],
                },
            ],
        },
    }
}

#[test]
fn shared_state_audit_catches_undeclared_stale_and_lock_order() {
    let diags = lint_fixture("concurrency", &concurrency_config());
    let lib = "crates/sim/src/lib.rs";
    // The undeclared RefCell field.
    assert_fires(
        &diags,
        "shared-state-audit",
        lib,
        14,
        "`cache` (RefCell) is not in the concurrency manifest",
    );
    // The manifest entry whose site no longer exists.
    assert_fires(
        &diags,
        "shared-state-audit",
        lib,
        0,
        "stale concurrency manifest entry: `ghost`",
    );
    // journal (rank 20) is held when state (rank 10) is acquired.
    assert_fires(
        &diags,
        "shared-state-audit",
        lib,
        24,
        "lock-order violation in `Engine::inverted`: `state` (rank 10) acquired after `journal` (rank 20)",
    );
    // The declared, correctly used Mutex fields are clean.
    assert!(
        diags
            .iter()
            .all(|d| !(d.rule == "shared-state-audit" && (d.line == 12 || d.line == 13))),
        "declared state must not fire"
    );
}

#[test]
fn hot_path_purity_reaches_transitive_callees() {
    let diags = lint_fixture("concurrency", &concurrency_config());
    let lib = "crates/sim/src/lib.rs";
    // `format!` lives in `sink`, two call-graph hops below the root:
    // Engine::step -> helper -> sink. The diagnostic names the chain.
    assert_fires(
        &diags,
        "hot-path-purity",
        lib,
        34,
        "`format!(` in `sink` (reached via Engine::step -> helper -> sink)",
    );
    // A root that no longer resolves is reported, not silently skipped.
    assert_fires(
        &diags,
        "hot-path-purity",
        lib,
        0,
        "stale hot-path root: `Engine::gone`",
    );
    // Engine::inverted locks, but is not reachable from any root.
    assert!(
        diags
            .iter()
            .all(|d| !(d.rule == "hot-path-purity" && d.line == 24)),
        "unreachable fns are not hot-path audited"
    );
}

#[test]
fn hot_path_purity_sees_a_refcount_shell_allocation() {
    // The per-packet `Rc::new` the pool used to make in `freeze`: a
    // reference-count shell is a heap allocation like any `Box`.
    let diags = lint_fixture("concurrency", &concurrency_config());
    assert_fires(
        &diags,
        "hot-path-purity",
        "crates/sim/src/pool.rs",
        19,
        "hot-path allocation: `Rc::new(` in hot-path root `PacketBuf::freeze`",
    );
}

#[test]
fn channel_discipline_checks_endpoints_and_sides() {
    let diags = lint_fixture("concurrency", &concurrency_config());
    let chan = "crates/sim/src/chan.rs";
    // recv from a file only declared as a tx site.
    assert_fires(
        &diags,
        "channel-discipline",
        chan,
        17,
        "`fx.recv()` outside the declared rx files",
    );
    // A send on a receiver the manifest does not know.
    assert_fires(
        &diags,
        "channel-discipline",
        chan,
        21,
        "undeclared endpoint `bad`",
    );
    // A declared endpoint with no call sites at all.
    assert_fires(
        &diags,
        "channel-discipline",
        chan,
        0,
        "stale channel endpoint: `idle`",
    );
    // The declared tx site and the declared rx file are clean.
    assert!(
        diags.iter().all(|d| d.rule != "channel-discipline"
            || !(d.line == 13 || d.path == "crates/sim/src/pump.rs")),
        "declared sites must not fire"
    );
}

#[test]
fn concurrency_fixture_has_no_false_positives() {
    let diags = lint_fixture("concurrency", &concurrency_config());
    // 3 shared-state (undeclared + stale + lock-order)
    // + 3 hot-path (transitive format! + stale root + Rc::new in freeze)
    // + 3 channel (wrong side + undeclared + stale endpoint).
    assert_eq!(
        diags.len(),
        9,
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
        manifest_path: "crates/app/src/lib.rs".into(),
        metric_families: Vec::new(),
        machines: Vec::new(),
        concurrency: ConcurrencySpec::default(),
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
fn missing_manifest_is_reported() {
    let mut config = suppressed_config(true);
    config.manifest_path = "crates/metrics/src/manifest.rs".into();
    let diags = lint_fixture("suppressed", &config);
    assert_fires(
        &diags,
        "metrics-manifest",
        "crates/metrics/src/manifest.rs",
        0,
        "manifest not found",
    );
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
    // The clean run is meaningful only if the structural pass actually
    // resolved the declared hot paths: every root maps to a real fn and
    // the call graph walks somewhere from them.
    let files = collect_workspace(&root).unwrap();
    let analysis = iw_lint::analyze(&files);
    let mut roots = Vec::new();
    for r in &config.concurrency.hot_path_roots {
        let idx = analysis
            .fns
            .iter()
            .position(|f| f.qname() == r.func && files[f.file].rel_path == r.file)
            .unwrap_or_else(|| panic!("hot-path root {} not found", r.func));
        roots.push(idx);
    }
    let reached = analysis.graph.reach(&roots, &|_| false);
    assert!(
        reached.len() > roots.len(),
        "hot-path roots resolve but reach nothing — call graph is broken"
    );
}

#[test]
fn ci_fixture_count_matches_workflow() {
    // CI runs the release binary on the dirty fixture tree with the
    // project config and asserts the exact violation count; this test
    // keeps the number in .github/workflows/ci.yml honest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let files = collect_workspace(&fixture_root("dirty")).unwrap();
    let config = LintConfig::project(); // binary default: no allowlist under the fixture root
    let count = check_files(&files, &config).len();
    let workflow = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    let needle = format!("iw-lint: {count} violation(s)");
    assert!(
        workflow.contains(&needle),
        "ci.yml must grep for {needle:?} on the dirty fixture (count drifted?)"
    );
}
