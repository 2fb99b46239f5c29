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
    let forbid = lexer::compile("#![forbid(unsafe_code)]");
    for file in files {
        if !file.rel_path.ends_with("/src/lib.rs") {
            continue;
        }
        if lexer::find_seq(&file.tokens, &forbid).is_empty() {
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
