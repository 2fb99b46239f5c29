//! The rules. Each takes the prepared sources plus the config and
//! appends [`Diagnostic`]s; suppression filtering happens centrally in
//! [`crate::check_with_tests`].

use crate::lexer::{self, Tok};
use crate::{Diagnostic, LintConfig, SourceFile};

// ---------------------------------------------------------------------
// Pattern rules (token-sequence matching)
// ---------------------------------------------------------------------

/// Match each pattern as a token subsequence in every in-scope file.
/// Patterns are compiled with the same lexer the sources went through,
/// so formatting, line breaks, comments and string contents can
/// neither hide nor fake a match.
fn scan_patterns(
    files: &[SourceFile],
    in_scope: &dyn Fn(&SourceFile) -> bool,
    patterns: &[&str],
    rule: &'static str,
    message: &dyn Fn(&str) -> String,
    help: &'static str,
    diags: &mut Vec<Diagnostic>,
) {
    let compiled: Vec<(&str, Vec<Tok>)> =
        patterns.iter().map(|p| (*p, lexer::compile(p))).collect();
    for file in files.iter().filter(|f| in_scope(f)) {
        for (pat, toks) in &compiled {
            for at in lexer::find_seq(&file.tokens, toks) {
                let line = file.tokens[at].line;
                if file.is_test(line - 1) {
                    continue;
                }
                diags.push(Diagnostic {
                    rule,
                    path: file.rel_path.clone(),
                    line,
                    message: message(pat),
                    snippet: file.raw.get(line - 1).cloned().unwrap_or_default(),
                    help,
                });
            }
        }
    }
}

/// `no-wall-clock`: deterministic crates read time only from the
/// simulator's virtual clock.
pub fn no_wall_clock(files: &[SourceFile], config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    scan_patterns(
        files,
        &|f| config.wall_clock_crates.iter().any(|c| c == f.krate()),
        &[
            "SystemTime",
            "Instant::now(",
            "std::time::Instant",
            "UNIX_EPOCH",
        ],
        "no-wall-clock",
        &|p| format!("wall-clock time source `{p}` in a deterministic crate"),
        "use the simulator's virtual clock (iw_netsim::Instant) so runs stay reproducible",
        diags,
    );
}

/// `no-unordered-iteration`: result, analysis and telemetry paths must
/// not use hash containers — iteration order would leak into output.
pub fn no_unordered_iteration(
    files: &[SourceFile],
    config: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    scan_patterns(
        files,
        &|f| {
            config
                .unordered_paths
                .iter()
                .any(|p| f.rel_path.starts_with(p.as_str()))
        },
        &["HashMap", "HashSet"],
        "no-unordered-iteration",
        &|p| format!("`{p}` on an output-producing path"),
        "use BTreeMap/BTreeSet (or sort before iterating) so output order is deterministic",
        diags,
    );
}

/// `rng-hygiene`: all randomness flows from the scan/session seed.
pub fn rng_hygiene(files: &[SourceFile], _config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    scan_patterns(
        files,
        &|_| true,
        &[
            "from_entropy",
            "thread_rng",
            "OsRng",
            "rand::random",
            "getrandom",
        ],
        "rng-hygiene",
        &|p| format!("entropy-seeded randomness `{p}`"),
        "seed RNGs from ScanConfig/session seeds (iw_netsim::rng::SmallRng::seed_from_u64) so runs replay",
        diags,
    );
}

/// `no-shared-state`: nothing is shared between shard worlds (DESIGN
/// §14), so the simulation crates name no primitive through which two
/// threads could mutate one value. `Arc` is absent on purpose: without
/// these it shares only immutable data (`driver.rs` shares the
/// `Population` that way); `Rc`/`RefCell` are `rustc`'s to police.
pub fn no_shared_state(files: &[SourceFile], config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    scan_patterns(
        files,
        &|f| config.shared_state_crates.iter().any(|c| c == f.krate()),
        &[
            "Mutex",
            "RwLock",
            "Condvar",
            "mpsc",
            "static mut",
            "thread_local!",
            "AtomicBool",
            "AtomicPtr",
            "AtomicU8",
            "AtomicU16",
            "AtomicU32",
            "AtomicU64",
            "AtomicUsize",
            "AtomicI8",
            "AtomicI16",
            "AtomicI32",
            "AtomicI64",
            "AtomicIsize",
        ],
        "no-shared-state",
        &|p| format!("cross-thread mutation primitive `{p}` in a simulation crate"),
        "keep state inside one shard world and merge at harvest (DESIGN §14); \
         share immutable data through `Arc`",
        diags,
    );
}

/// `panic-budget`: library code must not panic except at sites with a
/// justified suppression.
pub fn panic_budget(files: &[SourceFile], config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    scan_patterns(
        files,
        &|f| !config.panic_exempt_crates.iter().any(|c| c == f.krate()),
        &[
            ".unwrap()",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
        ],
        "panic-budget",
        &|p| format!("`{p}` in library code"),
        "return an error or restructure; if the invariant truly holds, add \
         `// iw-lint: allow(panic-budget): <why>`",
        diags,
    );
}

/// `unsafe-forbidden`: every library crate's `lib.rs` carries
/// `#![forbid(unsafe_code)]`, and no integration-test target uses the
/// `unsafe` keyword.
pub fn unsafe_forbidden(files: &[SourceFile], tests: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for file in tests {
        for tok in file.tokens.iter().filter(|t| t.is_ident("unsafe")) {
            diags.push(Diagnostic {
                rule: "unsafe-forbidden",
                path: file.rel_path.clone(),
                line: tok.line,
                message: "`unsafe` in a test target".to_owned(),
                snippet: file.raw.get(tok.line - 1).cloned().unwrap_or_default(),
                help: "test without it; a test that must (a counting global allocator) gets \
                       its path allow-listed in crates/lint/allowlist.txt",
            });
        }
    }
    for file in files {
        if !file.rel_path.ends_with("/src/lib.rs") {
            continue;
        }
        let has = file
            .code
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has {
            diags.push(Diagnostic {
                rule: "unsafe-forbidden",
                path: file.rel_path.clone(),
                line: 0,
                message: format!("crate `{}` does not forbid unsafe code", file.krate()),
                snippet: String::new(),
                help: "add `#![forbid(unsafe_code)]` to the crate root",
            });
        }
    }
}

// ---------------------------------------------------------------------
// metrics-manifest
// ---------------------------------------------------------------------

/// One parsed `pub const NAME: MetricDef = MetricDef::kind("…", Scope::…);`.
#[derive(Debug, Clone)]
pub struct ManifestEntry {
    /// Const identifier (`SCAN_TARGETS_SENT`).
    pub ident: String,
    /// Metric name (`scan.targets_sent`).
    pub name: String,
    /// `counter` / `gauge` / `histogram`.
    pub kind: &'static str,
    /// `Scan` / `Shard`.
    pub scope: String,
    /// 1-based declaration line.
    pub line: usize,
}

const KINDS: [&str; 3] = ["counter", "gauge", "histogram"];

fn ident_after(text: &str, marker: &str) -> Option<String> {
    let at = text.find(marker)? + marker.len();
    let rest = &text[at..];
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

fn first_string_literal(text: &str) -> Option<String> {
    let start = text.find('"')? + 1;
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_owned())
}

/// Does `ident` occur in `text` as a whole token?
fn has_token(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = text[from..].find(ident) {
        let at = from + pos;
        let before_ok = at == 0 || !text[..at].ends_with(is_ident);
        let after = &text[at + ident.len()..];
        let after_ok = !after.starts_with(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + ident.len();
    }
    false
}

/// Result of [`parse_manifest`]: scalar entries, aggregation arrays
/// (array ident plus member idents), and declaration diagnostics.
pub type ParsedManifest = (
    Vec<ManifestEntry>,
    Vec<(String, Vec<String>)>,
    Vec<Diagnostic>,
);

/// Parse the manifest: scalar `MetricDef` consts and `[&MetricDef; N]`
/// aggregation arrays (array use marks every member as used).
pub fn parse_manifest(file: &SourceFile) -> ParsedManifest {
    let mut entries = Vec::new();
    let mut arrays: Vec<(String, Vec<String>)> = Vec::new();
    let mut diags = Vec::new();
    for (idx, code) in file.code.iter().enumerate() {
        if file.is_test(idx) {
            break;
        }
        if !code.contains("pub const ") {
            continue;
        }
        // Join the declaration up to its terminating `;` (rustfmt may
        // wrap it) from the raw lines, so the metric name survives.
        // A `;` inside the type (`[&MetricDef; 4]`) is not the end of
        // the declaration — only a trailing `;` is.
        let mut joined = String::new();
        for raw in file.raw.iter().skip(idx) {
            joined.push_str(raw);
            joined.push(' ');
            if raw.trim_end().ends_with(';') {
                break;
            }
        }
        let Some(ident) = ident_after(code, "pub const ") else {
            continue;
        };
        if code.contains(": MetricDef") && !code.contains("[&MetricDef") {
            let kind = KINDS
                .iter()
                .find(|k| joined.contains(&format!("MetricDef::{k}(")))
                .copied();
            let name = first_string_literal(&joined);
            let scope = ident_after(&joined, "Scope::");
            match (kind, name, scope) {
                (Some(kind), Some(name), Some(scope)) => {
                    if !name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c))
                    {
                        diags.push(manifest_diag(
                            file,
                            idx,
                            format!("metric name {name:?} is not lowercase dotted"),
                        ));
                    }
                    entries.push(ManifestEntry {
                        ident,
                        name,
                        kind,
                        scope,
                        line: idx + 1,
                    });
                }
                _ => diags.push(manifest_diag(
                    file,
                    idx,
                    format!(
                        "could not parse manifest declaration `{ident}` \
                         (expected MetricDef::<kind>(\"name\", Scope::…))"
                    ),
                )),
            }
        } else if code.contains("[&MetricDef") {
            let members: Vec<String> = joined
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|t| {
                    t.len() > 1
                        && t.chars()
                            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                        && t.chars().any(|c| c.is_ascii_uppercase())
                        && *t != ident
                })
                .map(str::to_owned)
                .collect();
            arrays.push((ident, members));
        }
    }
    // Duplicate metric names defeat the whole point of a manifest.
    for (i, e) in entries.iter().enumerate() {
        if let Some(first) = entries[..i].iter().find(|p| p.name == e.name) {
            diags.push(manifest_diag(
                file,
                e.line - 1,
                format!(
                    "metric name {:?} already declared as `{}`",
                    e.name, first.ident
                ),
            ));
        }
    }
    (entries, arrays, diags)
}

fn manifest_diag(file: &SourceFile, idx: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: "metrics-manifest",
        path: file.rel_path.clone(),
        line: idx + 1,
        message,
        snippet: file.raw[idx].clone(),
        help: "keep crates/telemetry/src/manifest.rs the single source of truth for metrics",
    }
}

/// `metrics-manifest`: every metric call site in the workspace agrees
/// with the manifest (name exists, kind matches the method, scope
/// matches the declaration), `register_*` constants exist with the
/// right kind, every declared metric is registered somewhere, and
/// every name sits inside a declared family prefix.
pub fn metrics_manifest(files: &[SourceFile], config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    let Some(manifest) = files.iter().find(|f| f.rel_path == config.manifest_path) else {
        diags.push(Diagnostic {
            rule: "metrics-manifest",
            path: config.manifest_path.clone(),
            line: 0,
            message: "metrics manifest not found".to_owned(),
            snippet: String::new(),
            help: "declare all metrics in the manifest; see crates/telemetry/src/manifest.rs",
        });
        return;
    };
    let (entries, arrays, parse_diags) = parse_manifest(manifest);
    diags.extend(parse_diags);

    // Every well-formed name must live in a declared family — the
    // dotted prefix is how downstream tooling (inspect, manifest
    // sections) groups metrics. Malformed names already got a
    // diagnostic above; don't report them twice.
    if !config.metric_families.is_empty() {
        for e in &entries {
            let well_formed = e
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c));
            if well_formed
                && !config
                    .metric_families
                    .iter()
                    .any(|f| e.name.starts_with(f.as_str()))
            {
                diags.push(manifest_diag(
                    manifest,
                    e.line - 1,
                    format!(
                        "metric {:?} is outside the declared families ({})",
                        e.name,
                        config.metric_families.join(", ")
                    ),
                ));
            }
        }
    }

    let mut used: Vec<bool> = vec![false; entries.len()];
    let mut array_used: Vec<bool> = vec![false; arrays.len()];

    for file in files {
        if file.rel_path == manifest.rel_path {
            continue;
        }
        for (idx, code) in file.code.iter().enumerate() {
            if file.is_test(idx) {
                break;
            }
            let raw = &file.raw[idx];
            // Literal call sites: .counter("…"), .gauge("…"), .histogram("…").
            for kind in KINDS {
                let call = format!(".{kind}(\"");
                let Some(at) = code.find(&call) else { continue };
                let Some(name) = raw
                    .find(&format!(".{kind}("))
                    .and_then(|p| first_string_literal(&raw[p..]))
                else {
                    continue;
                };
                match entries.iter().find(|e| e.name == name) {
                    None => diags.push(site_diag(
                        file,
                        idx,
                        format!("metric {name:?} is not declared in the manifest"),
                    )),
                    Some(entry) => {
                        if entry.kind != kind {
                            diags.push(site_diag(
                                file,
                                idx,
                                format!(
                                    "metric {name:?} is a {} in the manifest, used here as a {kind}",
                                    entry.kind
                                ),
                            ));
                        }
                        // A Scope argument makes this a registration —
                        // it must match the declared scope.
                        if let Some(scope) = ident_after(&code[at..], "Scope::") {
                            if scope != entry.scope {
                                diags.push(site_diag(
                                    file,
                                    idx,
                                    format!(
                                        "metric {name:?} is Scope::{} in the manifest, \
                                         registered here as Scope::{scope}",
                                        entry.scope
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            // register_counter(&manifest::IDENT) and friends.
            for kind in KINDS {
                let call = format!("register_{kind}(");
                let Some(at) = code.find(&call) else { continue };
                let Some(ident) = ident_after(&code[at..], "manifest::") else {
                    continue;
                };
                match entries.iter().find(|e| e.ident == ident) {
                    None => diags.push(site_diag(
                        file,
                        idx,
                        format!("`manifest::{ident}` is not a declared metric"),
                    )),
                    Some(entry) => {
                        if entry.kind != kind {
                            diags.push(site_diag(
                                file,
                                idx,
                                format!(
                                    "`manifest::{ident}` is a {} but is registered with \
                                     register_{kind}",
                                    entry.kind
                                ),
                            ));
                        }
                    }
                }
            }
            // Usage tracking (non-test references outside the manifest).
            for (i, e) in entries.iter().enumerate() {
                if !used[i] && has_token(code, &e.ident) {
                    used[i] = true;
                }
            }
            for (i, (ident, _)) in arrays.iter().enumerate() {
                if !array_used[i] && has_token(code, ident) {
                    array_used[i] = true;
                }
            }
        }
    }

    // A metric referenced only through a used aggregation array counts.
    for (i, (_, members)) in arrays.iter().enumerate() {
        if array_used[i] {
            for m in members {
                if let Some(j) = entries.iter().position(|e| &e.ident == m) {
                    used[j] = true;
                }
            }
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if !used[i] {
            diags.push(Diagnostic {
                rule: "metrics-manifest",
                path: manifest.rel_path.clone(),
                line: e.line,
                message: format!(
                    "metric {:?} (`{}`) is declared but never registered",
                    e.name, e.ident
                ),
                snippet: manifest.raw[e.line - 1].clone(),
                help: "register it (register_counter(&manifest::…)) or delete the declaration",
            });
        }
    }
}

fn site_diag(file: &SourceFile, idx: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: "metrics-manifest",
        path: file.rel_path.clone(),
        line: idx + 1,
        message,
        snippet: file.raw[idx].clone(),
        help: "declare metrics in crates/telemetry/src/manifest.rs and register via \
               register_counter/register_gauge/register_histogram",
    }
}
