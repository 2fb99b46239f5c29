//! # iw-lint — workspace invariant checker
//!
//! A dependency-free static analyzer for the invariants this workspace
//! relies on but `rustc`/`clippy` cannot see:
//!
//! * **`no-wall-clock`** — deterministic crates must never read real
//!   time; all time comes from the simulator's virtual clock.
//! * **`no-unordered-iteration`** — result/analysis/telemetry paths
//!   must not iterate hash containers (ordering leaks into output).
//! * **`panic-budget`** — library code does not `unwrap`/`expect`/
//!   `panic!` except at sites with a justified suppression.
//! * **`rng-hygiene`** — randomness is always seeded from scan/session
//!   configuration, never from OS entropy.
//! * **`unsafe-forbidden`** — every library crate carries
//!   `#![forbid(unsafe_code)]`, and no integration-test target (its own
//!   crate, which that attribute does not reach) says `unsafe` unless
//!   `allowlist.txt` names its path.
//! * **`no-shared-state`** — the simulation crates name no primitive
//!   that lets two shard worlds mutate one value (`Mutex`, `RwLock`,
//!   `Condvar`, `Atomic*`, `mpsc`, `static mut`, `thread_local!`).
//!   `Arc` stays legal: without those it can only share immutable data.
//!   `Rc`/`RefCell` need no rule: `rustc` refuses to send them across
//!   `thread::scope`.
//!
//! What the linter does *not* do, because something else does it
//! better: allocations on the packet paths are counted at the allocator
//! by `crates/core/tests/alloc_budget.rs`; the session state machines
//! are `const TRANSITIONS` tables next to their enums, asserted on every
//! state change in debug builds and closed under a unit test each; and
//! the metric set is written once, as enums and tables in
//! `crates/telemetry/src/manifest.rs` that the compiler checks (DESIGN
//! §13 has the decision records).
//!
//! ## Pipeline
//!
//! Every file is run through a small Rust lexer ([`lexer`], which
//! handles nested block comments, raw strings, char literals and
//! multi-line strings). Every rule matches token subsequences, so
//! formatting, comments and string contents can neither hide nor fake a
//! violation.
//!
//! ## Suppressions
//!
//! A diagnostic is suppressed by a line comment that starts with
//! `iw-lint: allow(<rule>)` on the offending line or the line directly
//! above it (a reason after the marker is encouraged), or by an entry in
//! `crates/lint/allowlist.txt` (`<rule> <path> <substring>` per line).
//! Both kinds are themselves audited by the `allowlist-hygiene` meta
//! rule: an allowlist entry whose rule, path or substring no longer
//! matches anything, and an inline marker that names an unknown rule or
//! suppresses no diagnostic, are reported, so suppressions cannot
//! outlive the code they excused.
//!
//! ## Scope and limits
//!
//! Everything at or below a file's first `#[cfg(test)]` line is treated
//! as test code, which the rules exempt. The heuristic is deliberate —
//! the codebase keeps unit tests in a trailing `mod tests` — and keeps
//! the linter fast, dependency-free and obvious.
#![forbid(unsafe_code)]

pub mod emit;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule names with one-line descriptions, in report order.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-wall-clock",
        "deterministic crates must not read real time",
    ),
    (
        "no-unordered-iteration",
        "output paths must not iterate hash containers",
    ),
    (
        "panic-budget",
        "library code must not panic without a justified allow",
    ),
    (
        "rng-hygiene",
        "RNGs must be seeded from configuration, not entropy",
    ),
    (
        "unsafe-forbidden",
        "library crates must forbid unsafe code; test targets must not use it",
    ),
    (
        "no-shared-state",
        "simulation crates must not name a cross-thread mutation primitive",
    ),
];

/// The meta rule auditing the suppressions themselves (`allowlist.txt`
/// and inline markers). Not in [`RULES`] (it lints the lint
/// configuration, not the workspace) but accepted by `--rule` and
/// reported like any other diagnostic.
pub const ALLOWLIST_RULE: &str = "allowlist-hygiene";

/// Workspace-relative path of the allowlist file.
pub const ALLOWLIST_PATH: &str = "crates/lint/allowlist.txt";

/// One violation, pointing at a workspace-relative file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (one of [`RULES`] or [`ALLOWLIST_RULE`]).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number; 0 for whole-file diagnostics.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The offending source line (empty for whole-file diagnostics).
    pub snippet: String,
    /// How to fix or suppress it.
    pub help: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        if self.line > 0 {
            writeln!(f, "  --> {}:{}", self.path, self.line)?;
            if !self.snippet.is_empty() {
                let n = format!("{}", self.line);
                writeln!(f, "  {} | {}", n, self.snippet.trim_end())?;
            }
        } else {
            writeln!(f, "  --> {}", self.path)?;
        }
        write!(f, "  = help: {}", self.help)
    }
}

/// A source file prepared for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes
    /// (`crates/core/src/scanner.rs`).
    pub rel_path: String,
    /// Raw lines, as read.
    pub raw: Vec<String>,
    /// The token stream — what the rules match against.
    pub tokens: Vec<lexer::Tok>,
    /// Inline suppressions: the 0-based line and rule name of every
    /// line comment that starts with `iw-lint: allow(<rule>)`.
    pub allows: Vec<(usize, String)>,
    /// 0-based index of the first test line (the `#[cfg(test)]`
    /// attribute), or `usize::MAX` if the file has no test module.
    pub test_start: usize,
}

impl SourceFile {
    /// Prepare one file for linting: lex it whole (so raw strings,
    /// nested block comments and multi-line literals are handled
    /// correctly) and locate the trailing test module.
    pub fn parse(rel_path: &str, content: &str) -> SourceFile {
        let raw: Vec<String> = content.lines().map(str::to_owned).collect();
        let lexed = lexer::lex(content);
        let test_start = raw
            .iter()
            .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
            .unwrap_or(usize::MAX);
        let allows = lexed
            .comments
            .iter()
            .filter_map(|(line, text)| {
                let rest = text.trim_start().strip_prefix("iw-lint: allow(")?;
                Some((line - 1, rest[..rest.find(')')?].to_owned()))
            })
            .collect();
        SourceFile {
            rel_path: rel_path.to_owned(),
            raw,
            tokens: lexed.tokens,
            allows,
            test_start,
        }
    }

    /// The crate directory name (`core` for `crates/core/src/...`), or
    /// `""` for paths outside `crates/`.
    pub fn krate(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(c)) => c,
            _ => "",
        }
    }

    /// Is the 0-based line index inside the trailing test module?
    pub fn is_test(&self, idx: usize) -> bool {
        idx >= self.test_start
    }

    /// Is `rule` suppressed at the 0-based line index? Looks for an
    /// `iw-lint: allow(<rule>)` comment on the line itself or the line
    /// above.
    pub fn allowed(&self, idx: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(at, r)| r == rule && (*at == idx || *at + 1 == idx))
    }
}

/// One entry of `crates/lint/allowlist.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry suppresses.
    pub rule: String,
    /// Workspace-relative file the entry applies to.
    pub path: String,
    /// Substring the offending raw line must contain.
    pub needle: String,
    /// 1-based line in `allowlist.txt` (for hygiene diagnostics).
    pub line: usize,
}

/// What to check and where. [`LintConfig::project`] encodes this
/// workspace's policy; tests build custom configs against fixtures.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates where `no-wall-clock` applies (crate dir names).
    pub wall_clock_crates: Vec<String>,
    /// Path prefixes where `no-unordered-iteration` applies.
    pub unordered_paths: Vec<String>,
    /// Crates exempt from `panic-budget` (the experiment harness; the
    /// property-test runner, which reports a failed property by panicking).
    pub panic_exempt_crates: Vec<String>,
    /// File-level suppressions (see `crates/lint/allowlist.txt`).
    pub allowlist: Vec<AllowEntry>,
    /// Crates where `no-shared-state` applies (crate dir names).
    pub shared_state_crates: Vec<String>,
}

impl LintConfig {
    /// The policy for this workspace.
    pub fn project() -> LintConfig {
        LintConfig {
            wall_clock_crates: ["core", "netsim", "hoststack", "wire", "telemetry"]
                .map(String::from)
                .to_vec(),
            unordered_paths: [
                "crates/core/src/results.rs",
                "crates/analysis/src/",
                "crates/telemetry/src/",
            ]
            .map(String::from)
            .to_vec(),
            panic_exempt_crates: ["bench", "propcheck"].map(String::from).to_vec(),
            allowlist: Vec::new(),
            shared_state_crates: [
                "core",
                "netsim",
                "wire",
                "hoststack",
                "telemetry",
                "internet",
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}

/// Read `crates/lint/allowlist.txt` under `root`, if present.
/// Format: one `<rule> <path> <substring>` per line; `#` comments.
pub fn load_allowlist(root: &Path) -> io::Result<Vec<AllowEntry>> {
    let path = root.join(ALLOWLIST_PATH);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let mut entries = Vec::new();
    for (idx, line) in fs::read_to_string(&path)?.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(needle)) => entries.push(AllowEntry {
                rule: rule.to_owned(),
                path: path.to_owned(),
                needle: needle.trim().to_owned(),
                line: idx + 1,
            }),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed allowlist line: {line:?}"),
                ))
            }
        }
    }
    Ok(entries)
}

/// Collect every `crates/*/src/**/*.rs` under `root`, sorted by path.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut |path| {
                let rel = rel_path(root, path);
                let content = fs::read_to_string(path)?;
                files.push(SourceFile::parse(&rel, &content));
                Ok(())
            })?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Collect every integration-test target `crates/*/tests/*.rs` under
/// `root`, sorted by path. Top level only: fixture trees live deeper.
/// These are separate crates that a library's `#![forbid(unsafe_code)]`
/// does not reach, so `unsafe-forbidden` reads them; no other rule does.
pub fn collect_test_targets(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let tests = entry?.path().join("tests");
        if !tests.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&tests)? {
            let path = entry?.path();
            if path.is_file() && path.extension().is_some_and(|e| e == "rs") {
                let content = fs::read_to_string(&path)?;
                files.push(SourceFile::parse(&rel_path(root, &path), &content));
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk_rs(dir: &Path, f: &mut dyn FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the workspace at `root` with `config`. Returns the surviving
/// (unsuppressed) diagnostics, sorted by path, line, rule.
pub fn run(root: &Path, config: &LintConfig) -> io::Result<Vec<Diagnostic>> {
    let files = collect_workspace(root)?;
    let tests = collect_test_targets(root)?;
    Ok(check_with_tests(&files, &tests, config))
}

/// Lint pre-collected source files (no test targets) — what the
/// fixture tests call.
pub fn check_files(files: &[SourceFile], config: &LintConfig) -> Vec<Diagnostic> {
    check_with_tests(files, &[], config)
}

/// The engine behind [`run`]: every rule over `files`, plus
/// `unsafe-forbidden` over the integration-test targets `tests`.
pub fn check_with_tests(
    files: &[SourceFile],
    tests: &[SourceFile],
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    rules::no_wall_clock(files, config, &mut diags);
    rules::no_unordered_iteration(files, config, &mut diags);
    rules::panic_budget(files, config, &mut diags);
    rules::rng_hygiene(files, config, &mut diags);
    rules::unsafe_forbidden(files, tests, &mut diags);
    rules::no_shared_state(files, config, &mut diags);
    let all = files.iter().chain(tests);
    // Hygiene reads the unsuppressed diagnostics (an inline marker is
    // live only if it excuses one) and is not itself suppressible.
    let mut hygiene = Vec::new();
    allowlist_hygiene(all.clone(), config, &mut hygiene);
    inline_hygiene(files, &diags, &mut hygiene);
    diags.retain(|d| !suppressed(d, all.clone(), config));
    diags.append(&mut hygiene);
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}

fn known_rule(name: &str) -> bool {
    RULES.iter().any(|(n, _)| *n == name)
}

/// The `allowlist-hygiene` meta rule over `allowlist.txt`: every entry
/// must still suppress something plausible — known rule, existing path,
/// and a substring that still occurs in that file.
fn allowlist_hygiene<'a>(
    files: impl IntoIterator<Item = &'a SourceFile> + Clone,
    config: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let help = "remove the stale entry from crates/lint/allowlist.txt \
                (or fix its rule/path/substring)";
    for entry in &config.allowlist {
        let mut stale = |message: String| {
            diags.push(Diagnostic {
                rule: ALLOWLIST_RULE,
                path: ALLOWLIST_PATH.to_owned(),
                line: entry.line,
                message,
                snippet: format!("{} {} {}", entry.rule, entry.path, entry.needle),
                help,
            });
        };
        if !known_rule(&entry.rule) {
            stale(format!(
                "allowlist entry names unknown rule `{}`",
                entry.rule
            ));
            continue;
        }
        let mut files = files.clone().into_iter();
        let Some(file) = files.find(|f| f.rel_path == entry.path) else {
            stale(format!(
                "allowlist entry path `{}` matches no workspace file",
                entry.path
            ));
            continue;
        };
        if !file.raw.iter().any(|l| l.contains(&entry.needle)) {
            stale(format!(
                "allowlist substring {:?} no longer occurs in `{}`",
                entry.needle, entry.path
            ));
        }
    }
}

/// The `allowlist-hygiene` meta rule over inline markers: outside test
/// code, an `iw-lint: allow(<rule>)` comment must name a known rule and
/// excuse one of the (unsuppressed) diagnostics in `found`.
fn inline_hygiene(files: &[SourceFile], found: &[Diagnostic], diags: &mut Vec<Diagnostic>) {
    for file in files {
        for (idx, rule) in file.allows.iter().filter(|(idx, _)| !file.is_test(*idx)) {
            let live = found.iter().any(|d| {
                d.rule == rule
                    && d.path == file.rel_path
                    && (d.line == idx + 1 || d.line == idx + 2)
            });
            if live {
                continue;
            }
            let message = if known_rule(rule) {
                format!("inline suppression of `{rule}` suppresses no diagnostic")
            } else {
                format!("inline suppression names unknown rule `{rule}`")
            };
            diags.push(Diagnostic {
                rule: ALLOWLIST_RULE,
                path: file.rel_path.clone(),
                line: idx + 1,
                message,
                snippet: file.raw[*idx].clone(),
                help: "delete the marker (keep the reason as a plain comment if it still says why)",
            });
        }
    }
}

fn suppressed<'a>(
    d: &Diagnostic,
    files: impl IntoIterator<Item = &'a SourceFile>,
    config: &LintConfig,
) -> bool {
    if d.line > 0 {
        if let Some(file) = files.into_iter().find(|f| f.rel_path == d.path) {
            if file.allowed(d.line - 1, d.rule) {
                return true;
            }
            if config.allowlist.iter().any(|a| {
                a.rule == d.rule && a.path == d.path && file.raw[d.line - 1].contains(&a.needle)
            }) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(f: &SourceFile) -> Vec<&str> {
        f.tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn parse_blanks_comments_and_string_contents() {
        let f = SourceFile::parse("crates/x/src/lib.rs", "let x = 1; // Instant::now()\n");
        assert_eq!(texts(&f), ["let", "x", "=", "1", ";"]);
        let f = SourceFile::parse("crates/x/src/lib.rs", r#"let p = ".unwrap()"; p.len()"#);
        assert_eq!(
            texts(&f),
            ["let", "p", "=", ".unwrap()", ";", "p", ".", "len", "(", ")"]
        );
        assert_eq!(f.tokens[3].kind, lexer::Kind::Str);
        assert!(!f.tokens.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn parse_handles_char_literals_and_lifetimes() {
        let f = SourceFile::parse("crates/x/src/lib.rs", "if c == '\"' { x.unwrap() }");
        assert_eq!(f.tokens[4].kind, lexer::Kind::Char);
        assert_eq!(
            texts(&f)[4..],
            ["\"", "{", "x", ".", "unwrap", "(", ")", "}"]
        );
        let f = SourceFile::parse("crates/x/src/lib.rs", "fn f<'a>(s: &'a str) {}");
        assert!(f.tokens.iter().any(|t| t.kind == lexer::Kind::Lifetime));
    }

    #[test]
    fn test_region_and_allows() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn a() {}\n// iw-lint: allow(panic-budget)\nfn b() {}\n#[cfg(test)]\nmod tests {}\n",
        );
        assert!(!f.is_test(0));
        assert!(f.is_test(3));
        assert!(f.is_test(4));
        assert!(f.allowed(1, "panic-budget"));
        assert!(f.allowed(2, "panic-budget")); // line above
        assert!(!f.allowed(0, "panic-budget"));
        assert!(!f.allowed(2, "rng-hygiene"));
        assert_eq!(f.krate(), "x");
    }

    #[test]
    fn rules_table_is_unique() {
        let names: Vec<&str> = RULES.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names.len(), sorted.len());
        assert_eq!(names.len(), 6);
        assert!(!names.contains(&ALLOWLIST_RULE));
    }

    #[test]
    fn allowlist_hygiene_flags_stale_entries() {
        let files = vec![SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn a() { b.unwrap(); }\n",
        )];
        let mut config = LintConfig {
            wall_clock_crates: Vec::new(),
            unordered_paths: Vec::new(),
            panic_exempt_crates: Vec::new(),
            allowlist: vec![
                AllowEntry {
                    rule: "panic-budget".into(),
                    path: "crates/x/src/lib.rs".into(),
                    needle: "b.unwrap()".into(),
                    line: 1,
                },
                AllowEntry {
                    rule: "no-such-rule".into(),
                    path: "crates/x/src/lib.rs".into(),
                    needle: "b.unwrap()".into(),
                    line: 2,
                },
                AllowEntry {
                    rule: "panic-budget".into(),
                    path: "crates/gone/src/lib.rs".into(),
                    needle: "b.unwrap()".into(),
                    line: 3,
                },
                AllowEntry {
                    rule: "panic-budget".into(),
                    path: "crates/x/src/lib.rs".into(),
                    needle: "vanished text".into(),
                    line: 4,
                },
            ],
            shared_state_crates: Vec::new(),
        };
        let mut diags = Vec::new();
        allowlist_hygiene(&files, &config, &mut diags);
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, [2, 3, 4], "exactly the stale entries fire");
        assert!(diags.iter().all(|d| d.path == ALLOWLIST_PATH));
        assert!(diags[0].message.contains("unknown rule"));
        assert!(diags[1].message.contains("matches no workspace file"));
        assert!(diags[2].message.contains("no longer occurs"));
        // The live entry still suppresses.
        config.allowlist.truncate(1);
        let d = Diagnostic {
            rule: "panic-budget",
            path: "crates/x/src/lib.rs".into(),
            line: 1,
            message: String::new(),
            snippet: String::new(),
            help: "",
        };
        assert!(suppressed(&d, &files, &config));
    }
}
