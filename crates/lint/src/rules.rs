//! The rules. Each takes the prepared sources plus the config (the
//! concurrency rules also take the structural [`Analysis`]) and appends
//! [`Diagnostic`]s; suppression filtering happens centrally in
//! [`crate::check_files`].

use crate::concurrency::{ChannelEndpoint, SharedStateSpec};
use crate::lexer::{self, Kind, Tok};
use crate::machines::MachineSpec;
use crate::{Analysis, Diagnostic, LintConfig, SourceFile};

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
// Concurrency rule pack (driven by crates/lint/src/concurrency.rs)
// ---------------------------------------------------------------------

/// Interior-mutability kinds the audit recognizes, and the priority
/// used when one declaration names several (`Rc<RefCell<_>>` is a
/// `RefCell` site — the lockable wrapper is what needs the rank).
fn state_kind(t: &Tok) -> Option<&'static str> {
    if t.kind != Kind::Ident {
        return None;
    }
    match t.text.as_str() {
        "Mutex" => Some("Mutex"),
        "RwLock" => Some("RwLock"),
        "RefCell" => Some("RefCell"),
        "Rc" => Some("Rc"),
        s if s.starts_with("Atomic") && s.len() > "Atomic".len() => Some("Atomic"),
        _ => None,
    }
}

fn kind_priority(kind: &str) -> u32 {
    match kind {
        "Mutex" => 5,
        "RwLock" => 4,
        "RefCell" => 3,
        "Atomic" => 2,
        "Rc" => 1,
        _ => 0,
    }
}

fn lockable(kind: &str) -> bool {
    matches!(kind, "Mutex" | "RwLock" | "RefCell")
}

/// One detected shared-state site.
struct StateSite {
    name: Option<String>,
    kind: &'static str,
    line: usize,
}

/// The binding/field a statement introduces: `let NAME`,
/// `static NAME`, or the nearest `NAME:` field/struct-literal label
/// before the kind token.
fn stmt_name(tokens: &[Tok], start: usize, at: usize) -> Option<String> {
    for j in start..at {
        if tokens[j].is_ident("let") || tokens[j].is_ident("static") {
            let mut k = j + 1;
            if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(n) = tokens.get(k).filter(|t| t.kind == Kind::Ident) {
                return Some(n.text.clone());
            }
        }
    }
    for j in (start + 1..at).rev() {
        if tokens[j].is_punct(':')
            && tokens[j - 1].kind == Kind::Ident
            && !tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            return Some(tokens[j - 1].text.clone());
        }
    }
    None
}

/// Detect interior-mutability sites in one file's token stream.
fn state_sites(file: &SourceFile) -> Vec<StateSite> {
    let tokens = &file.tokens;
    let boundary =
        |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',');
    // (statement start, site) — used to collapse `Rc<RefCell<_>>` into
    // one site of the highest-priority kind.
    let mut per_stmt: Vec<(usize, StateSite)> = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let Some(kind) = state_kind(tok) else {
            continue;
        };
        if file.is_test(tok.line - 1) {
            continue;
        }
        let mut s = i;
        while s > 0 && !boundary(&tokens[s - 1]) {
            s -= 1;
        }
        // Imports, fn signatures and `static` items (audited separately
        // via the item extractor) are not declaration sites.
        let skip = tokens[s..i]
            .iter()
            .any(|t| t.is_ident("use") || t.is_ident("fn") || t.is_ident("static"));
        if skip {
            continue;
        }
        let site = StateSite {
            name: stmt_name(tokens, s, i),
            kind,
            line: tok.line,
        };
        match per_stmt.iter_mut().find(|(st, _)| *st == s) {
            Some((_, prev)) => {
                if kind_priority(kind) > kind_priority(prev.kind) {
                    *prev = site;
                }
            }
            None => per_stmt.push((s, site)),
        }
    }
    per_stmt.into_iter().map(|(_, s)| s).collect()
}

const STATE_HELP: &str = "declare it with a role (and a lock-order rank, if lockable) in \
                          crates/lint/src/concurrency.rs, or remove the shared state";

/// Lock/borrow acquisition methods recognized by lock-order checking.
const ACQUIRE_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "try_read",
    "write",
    "try_write",
    "borrow",
    "borrow_mut",
    "try_borrow",
    "try_borrow_mut",
];

/// `shared-state-audit`: every `static`/`Mutex`/`RwLock`/`Atomic*`/
/// `Rc`/`RefCell` in the audited crates appears in the concurrency
/// manifest with a role; lockable entries carry a rank; acquisitions
/// nest in ascending rank order; stale manifest entries are reported.
pub fn shared_state_audit(
    files: &[SourceFile],
    config: &LintConfig,
    analysis: &Analysis,
    diags: &mut Vec<Diagnostic>,
) {
    let spec = &config.concurrency;
    if spec.state_crates.is_empty() {
        return;
    }
    let in_scope = |f: &SourceFile| spec.state_crates.contains(&f.krate());
    let mut matched = vec![false; spec.shared_state.len()];

    // Manifest self-checks: lockable kinds need a rank.
    for e in &spec.shared_state {
        if lockable(e.kind) && e.rank.is_none() {
            diags.push(Diagnostic {
                rule: "shared-state-audit",
                path: e.file.to_owned(),
                line: 0,
                message: format!(
                    "concurrency manifest entry `{}` ({}) has no lock-order rank",
                    e.name, e.kind
                ),
                snippet: String::new(),
                help: "assign a unique rank in crates/lint/src/concurrency.rs; acquisitions \
                       must nest in ascending rank order",
            });
        }
    }

    // Interior-mutability sites from the token streams.
    for file in files.iter().filter(|f| in_scope(f)) {
        for site in state_sites(file) {
            let hit = spec.shared_state.iter().position(|e| {
                e.file == file.rel_path
                    && match &site.name {
                        Some(n) => e.name == n && e.kind == site.kind,
                        None => e.kind == site.kind,
                    }
            });
            match hit {
                Some(i) => matched[i] = true,
                None => {
                    let message = match &site.name {
                        Some(n) => format!(
                            "undeclared shared state: `{n}` ({}) is not in the concurrency \
                             manifest",
                            site.kind
                        ),
                        None => format!(
                            "undeclared shared state: {} site is not in the concurrency \
                             manifest",
                            site.kind
                        ),
                    };
                    diags.push(Diagnostic {
                        rule: "shared-state-audit",
                        path: file.rel_path.clone(),
                        line: site.line,
                        message,
                        snippet: file.raw.get(site.line - 1).cloned().unwrap_or_default(),
                        help: STATE_HELP,
                    });
                }
            }
        }
    }

    // `static` items from the structural pass.
    for st in &analysis.statics {
        let file = &files[st.file];
        if st.is_test || !in_scope(file) {
            continue;
        }
        let hit = spec
            .shared_state
            .iter()
            .position(|e| e.file == file.rel_path && e.name == st.name && e.kind == "static");
        match hit {
            Some(i) => matched[i] = true,
            None => diags.push(Diagnostic {
                rule: "shared-state-audit",
                path: file.rel_path.clone(),
                line: st.line,
                message: format!(
                    "undeclared shared state: `static {}` is not in the concurrency manifest",
                    st.name
                ),
                snippet: file.raw.get(st.line - 1).cloned().unwrap_or_default(),
                help: STATE_HELP,
            }),
        }
    }

    // Stale manifest entries — the declared-intent promise runs both
    // ways: the manifest must not describe state that no longer exists.
    for (i, e) in spec.shared_state.iter().enumerate() {
        if !matched[i] {
            diags.push(Diagnostic {
                rule: "shared-state-audit",
                path: e.file.to_owned(),
                line: 0,
                message: format!(
                    "stale concurrency manifest entry: `{}` ({}) matches no site in {}",
                    e.name, e.kind, e.file
                ),
                snippet: String::new(),
                help: "remove the entry from crates/lint/src/concurrency.rs or fix its \
                       file/name/kind",
            });
        }
    }

    // Lock-order: within each fn body, textually later acquisitions of
    // ranked state must not have a lower rank than an earlier one.
    for f in &analysis.fns {
        if f.is_test {
            continue;
        }
        let Some((b0, b1)) = f.body else { continue };
        let file = &files[f.file];
        if !in_scope(file) {
            continue;
        }
        let ranked: Vec<&SharedStateSpec> = spec
            .shared_state
            .iter()
            .filter(|e| e.file == file.rel_path && e.rank.is_some())
            .collect();
        if ranked.is_empty() {
            continue;
        }
        let tokens = &file.tokens;
        let mut held: Vec<(&SharedStateSpec, usize)> = Vec::new();
        for k in b0..b1.min(tokens.len()) {
            let acq = k + 3 < tokens.len()
                && tokens[k].kind == Kind::Ident
                && tokens[k + 1].is_punct('.')
                && tokens[k + 2].kind == Kind::Ident
                && ACQUIRE_METHODS.contains(&tokens[k + 2].text.as_str())
                && tokens[k + 3].is_punct('(');
            if !acq {
                continue;
            }
            let Some(entry) = ranked.iter().find(|e| e.name == tokens[k].text) else {
                continue;
            };
            let line = tokens[k + 2].line;
            for (earlier, _) in &held {
                if entry.rank < earlier.rank {
                    diags.push(Diagnostic {
                        rule: "shared-state-audit",
                        path: file.rel_path.clone(),
                        line,
                        message: format!(
                            "lock-order violation in `{}`: `{}` (rank {}) acquired after `{}` \
                             (rank {})",
                            f.qname(),
                            entry.name,
                            entry.rank.unwrap_or(0),
                            earlier.name,
                            earlier.rank.unwrap_or(0)
                        ),
                        snippet: file.raw.get(line - 1).cloned().unwrap_or_default(),
                        help: "acquire locks in ascending declared rank order (see \
                               crates/lint/src/concurrency.rs)",
                    });
                }
            }
            if !held.iter().any(|(e, _)| e.name == entry.name) {
                held.push((entry, line));
            }
        }
    }
}

/// Purity-violation categories for `hot-path-purity`.
struct PurityPattern {
    display: &'static str,
    category: &'static str,
    toks: Vec<Tok>,
}

fn purity_patterns() -> Vec<PurityPattern> {
    let mk = |display: &'static str, category: &'static str| PurityPattern {
        display,
        category,
        toks: lexer::compile(display),
    };
    vec![
        mk("Box::new(", "allocation"),
        mk("Rc::new(", "allocation"),
        mk("Arc::new(", "allocation"),
        mk("format!(", "allocation"),
        mk(".to_string(", "allocation"),
        mk(".to_owned(", "allocation"),
        mk("String::new(", "allocation"),
        mk("String::from(", "allocation"),
        mk("String::with_capacity(", "allocation"),
        mk("Vec::with_capacity(", "allocation"),
        mk("vec![", "allocation"),
        mk(".collect(", "allocation"),
        mk(".lock(", "lock"),
        mk(".try_lock(", "lock"),
        mk("println!(", "I/O"),
        mk("eprintln!(", "I/O"),
        mk("print!(", "I/O"),
        mk("eprint!(", "I/O"),
        mk("std::fs::", "I/O"),
        mk("std::io::", "I/O"),
        mk("File::open(", "I/O"),
        mk("File::create(", "I/O"),
    ]
}

/// `hot-path-purity`: every function reachable in the call graph from
/// a declared hot-path root (stopping at declared cold boundaries)
/// must not allocate, lock or perform I/O.
pub fn hot_path_purity(
    files: &[SourceFile],
    config: &LintConfig,
    analysis: &Analysis,
    diags: &mut Vec<Diagnostic>,
) {
    let spec = &config.concurrency;
    if spec.hot_path_roots.is_empty() {
        return;
    }
    const HELP: &str = "hot paths must stay allocation-, lock- and I/O-free: move the work \
                        behind a declared cold boundary (crates/lint/src/concurrency.rs) or \
                        add `// iw-lint: allow(hot-path-purity): <why>`";
    let mut roots = Vec::new();
    for r in &spec.hot_path_roots {
        let hit = analysis
            .fns
            .iter()
            .position(|f| !f.is_test && f.qname() == r.func && files[f.file].rel_path == r.file);
        match hit {
            Some(i) => roots.push(i),
            None => diags.push(Diagnostic {
                rule: "hot-path-purity",
                path: r.file.to_owned(),
                line: 0,
                message: format!(
                    "stale hot-path root: `{}` matches no function in {}",
                    r.func, r.file
                ),
                snippet: String::new(),
                help: "update crates/lint/src/concurrency.rs to the fn's current name/file",
            }),
        }
    }
    let is_boundary = |i: usize| {
        let f = &analysis.fns[i];
        spec.cold_boundaries
            .iter()
            .any(|b| b.func == f.qname() || b.func == f.name)
    };
    let parents = analysis.graph.reach(&roots, &is_boundary);
    let patterns = purity_patterns();
    let lock_names: Vec<&str> = spec
        .shared_state
        .iter()
        .filter(|e| e.rank.is_some())
        .map(|e| e.name)
        .collect();
    let borrow_ops = ["borrow", "borrow_mut", "read", "write"];
    let growth_ops = ["push", "extend", "extend_from_slice", "resize", "insert"];
    let vec_new = lexer::compile("Vec::new(");

    for &idx in parents.keys() {
        if is_boundary(idx) && !roots.contains(&idx) {
            continue; // declared cold: reached but not audited
        }
        let f = &analysis.fns[idx];
        let Some((b0, b1)) = f.body else { continue };
        let file = &files[f.file];
        let tokens = &file.tokens;
        let body = &tokens[b0..b1.min(tokens.len())];
        let chain = chain_to(idx, &parents, analysis);
        let place = if roots.contains(&idx) {
            format!("hot-path root `{}`", f.qname())
        } else {
            format!("`{}` (reached via {chain})", f.qname())
        };
        let mut push = |display: &str, category: &str, line: usize| {
            diags.push(Diagnostic {
                rule: "hot-path-purity",
                path: file.rel_path.clone(),
                line,
                message: format!("hot-path {category}: `{display}` in {place}"),
                snippet: file.raw.get(line - 1).cloned().unwrap_or_default(),
                help: HELP,
            });
        };
        for p in &patterns {
            for at in lexer::find_seq(body, &p.toks) {
                push(p.display, p.category, body[at].line);
            }
        }
        // `Vec::new()` is only a violation when the same body grows the
        // vec — a fixed-size scratch Vec that never pushes is fine.
        let grows = body.windows(2).any(|w| {
            w[0].is_punct('.')
                && w[1].kind == Kind::Ident
                && growth_ops.contains(&w[1].text.as_str())
        });
        if grows {
            for at in lexer::find_seq(body, &vec_new) {
                push("Vec::new() + push", "allocation", body[at].line);
            }
        }
        // Borrow/RwLock acquisitions count as locks only on receivers
        // the manifest declares as ranked state — `.read(`/`.write(`
        // on an io stream is I/O, not locking, and is caught above.
        for k in 0..body.len().saturating_sub(3) {
            if body[k].kind == Kind::Ident
                && lock_names.contains(&body[k].text.as_str())
                && body[k + 1].is_punct('.')
                && body[k + 2].kind == Kind::Ident
                && borrow_ops.contains(&body[k + 2].text.as_str())
                && body[k + 3].is_punct('(')
            {
                let display = format!(".{}(", body[k + 2].text);
                push(&display, "lock", body[k + 2].line);
            }
        }
    }
}

/// Render the shortest call path `root -> … -> idx` recorded by the
/// BFS parent map.
fn chain_to(
    idx: usize,
    parents: &std::collections::BTreeMap<usize, usize>,
    analysis: &Analysis,
) -> String {
    let mut names = vec![analysis.fns[idx].qname()];
    let mut cur = idx;
    while let Some(&p) = parents.get(&cur) {
        if p == usize::MAX {
            break;
        }
        names.push(analysis.fns[p].qname());
        cur = p;
    }
    names.reverse();
    names.join(" -> ")
}

/// `channel-discipline`: every send/recv call site in the channel
/// crates names a declared endpoint, from a file the manifest lists on
/// the right side of that endpoint.
pub fn channel_discipline(
    files: &[SourceFile],
    config: &LintConfig,
    _analysis: &Analysis,
    diags: &mut Vec<Diagnostic>,
) {
    let spec = &config.concurrency;
    if spec.channel_crates.is_empty() {
        return;
    }
    const HELP: &str = "declare the endpoint (name, role, tx/rx files) in \
                        crates/lint/src/concurrency.rs so the channel topology stays data \
                        the linter verifies";
    let tx_ops = ["send", "try_send"];
    let rx_ops = ["recv", "try_recv"];
    let mut used = vec![false; spec.channels.len()];
    for file in files {
        if !spec.channel_crates.contains(&file.krate()) {
            continue;
        }
        let tokens = &file.tokens;
        for k in 0..tokens.len().saturating_sub(2) {
            let op_at = k + 1;
            if !(tokens[k].is_punct('.')
                && tokens[op_at].kind == Kind::Ident
                && tokens.get(op_at + 1).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            let op = tokens[op_at].text.as_str();
            let is_tx = tx_ops.contains(&op);
            let is_rx = rx_ops.contains(&op);
            if !is_tx && !is_rx {
                continue;
            }
            let line = tokens[op_at].line;
            if file.is_test(line - 1) {
                continue;
            }
            let receiver = (k > 0)
                .then(|| &tokens[k - 1])
                .filter(|t| t.kind == Kind::Ident);
            let Some(receiver) = receiver else {
                diags.push(Diagnostic {
                    rule: "channel-discipline",
                    path: file.rel_path.clone(),
                    line,
                    message: format!(
                        "channel op `.{op}()` with an unresolvable receiver — bind the \
                         endpoint to a name first"
                    ),
                    snippet: file.raw.get(line - 1).cloned().unwrap_or_default(),
                    help: HELP,
                });
                continue;
            };
            let Some(i) = spec.channels.iter().position(|c| c.name == receiver.text) else {
                diags.push(Diagnostic {
                    rule: "channel-discipline",
                    path: file.rel_path.clone(),
                    line,
                    message: format!(
                        "channel op `{}.{op}()` on undeclared endpoint `{}`",
                        receiver.text, receiver.text
                    ),
                    snippet: file.raw.get(line - 1).cloned().unwrap_or_default(),
                    help: HELP,
                });
                continue;
            };
            used[i] = true;
            let c: &ChannelEndpoint = &spec.channels[i];
            let allowed = if is_tx { c.tx_files } else { c.rx_files };
            if !allowed.contains(&file.rel_path.as_str()) {
                let side = if is_tx { "tx" } else { "rx" };
                diags.push(Diagnostic {
                    rule: "channel-discipline",
                    path: file.rel_path.clone(),
                    line,
                    message: format!(
                        "`{}.{op}()` outside the declared {side} files for endpoint `{}`",
                        c.name, c.name
                    ),
                    snippet: file.raw.get(line - 1).cloned().unwrap_or_default(),
                    help: HELP,
                });
            }
        }
    }
    for (i, c) in spec.channels.iter().enumerate() {
        if !used[i] {
            let at = c
                .tx_files
                .first()
                .or_else(|| c.rx_files.first())
                .copied()
                .unwrap_or("crates/lint/src/concurrency.rs");
            diags.push(Diagnostic {
                rule: "channel-discipline",
                path: at.to_owned(),
                line: 0,
                message: format!(
                    "stale channel endpoint: `{}` is declared but has no send/recv sites",
                    c.name
                ),
                snippet: String::new(),
                help: "remove the endpoint from crates/lint/src/concurrency.rs or fix its name",
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

// ---------------------------------------------------------------------
// state-machine
// ---------------------------------------------------------------------

/// `state-machine`: each configured machine's transition table is
/// internally exhaustive and in sync with its enum.
pub fn state_machine(files: &[SourceFile], config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for spec in &config.machines {
        check_machine(spec, files, diags);
    }
}

fn machine_diag(spec: &MachineSpec, line: usize, snippet: String, message: String) -> Diagnostic {
    Diagnostic {
        rule: "state-machine",
        path: spec.file.to_owned(),
        line,
        message,
        snippet,
        help: "keep crates/lint/src/machines.rs and the enum/transition code in sync",
    }
}

fn check_machine(spec: &MachineSpec, files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let mut fail = |msg: String| diags.push(machine_diag(spec, 0, String::new(), msg));

    // -- internal consistency of the table ---------------------------
    let known = |s: &str| spec.states.contains(&s);
    if !known(spec.initial) {
        fail(format!(
            "machine `{}`: initial state `{}` is not in the state list",
            spec.name, spec.initial
        ));
    }
    for t in spec.terminal {
        if !known(t) {
            fail(format!(
                "machine `{}`: terminal state `{t}` is not in the state list",
                spec.name
            ));
        }
    }
    for tr in spec.transitions {
        for s in [tr.from, tr.to] {
            if !known(s) {
                fail(format!(
                    "machine `{}`: transition {} -> {} references unknown state `{s}`",
                    spec.name, tr.from, tr.to
                ));
            }
        }
        if spec.terminal.contains(&tr.from) {
            fail(format!(
                "machine `{}`: terminal state `{}` has an outgoing transition to `{}`",
                spec.name, tr.from, tr.to
            ));
        }
    }
    // Reachability from the initial state.
    let mut reached = vec![false; spec.states.len()];
    if let Some(i) = spec.states.iter().position(|s| *s == spec.initial) {
        reached[i] = true;
        let mut frontier = vec![spec.initial];
        while let Some(from) = frontier.pop() {
            for tr in spec.transitions.iter().filter(|t| t.from == from) {
                if let Some(j) = spec.states.iter().position(|s| *s == tr.to) {
                    if !reached[j] {
                        reached[j] = true;
                        frontier.push(tr.to);
                    }
                }
            }
        }
    }
    for (i, s) in spec.states.iter().enumerate() {
        if !reached[i] {
            fail(format!(
                "machine `{}`: state `{s}` is unreachable from `{}`",
                spec.name, spec.initial
            ));
        }
    }
    // Every non-terminal state needs a forced conclusion to a terminal
    // state — this is the watchdog/force_conclude coverage guarantee.
    for s in spec.states.iter().filter(|s| !spec.terminal.contains(s)) {
        let covered = spec
            .transitions
            .iter()
            .any(|t| t.force && t.from == *s && spec.terminal.contains(&t.to));
        if !covered {
            fail(format!(
                "machine `{}`: non-terminal state `{s}` has no forced transition \
                 to a terminal state (watchdog/force_conclude would leak it)",
                spec.name
            ));
        }
    }

    // -- sync with the source ----------------------------------------
    let Some(file) = files.iter().find(|f| f.rel_path == spec.file) else {
        fail(format!(
            "machine `{}`: file {} not found in the workspace",
            spec.name, spec.file
        ));
        return;
    };
    let Some(decl_start) = file.code.iter().position(|l| {
        (l.contains(&format!("enum {} ", spec.name))
            || l.contains(&format!("enum {}{{", spec.name)))
            && !l.trim_start().starts_with("//")
    }) else {
        fail(format!(
            "machine `{}`: no `enum {}` declaration in {}",
            spec.name, spec.name, spec.file
        ));
        return;
    };
    // Collect variants until the closing brace.
    let mut variants = Vec::new();
    let mut decl_end = decl_start;
    for (idx, code) in file.code.iter().enumerate().skip(decl_start + 1) {
        let t = code.trim();
        if t.starts_with('}') {
            decl_end = idx;
            break;
        }
        let ident: String = t
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push(ident);
        }
    }
    for v in &variants {
        if !known(v) {
            diags.push(machine_diag(
                spec,
                decl_start + 1,
                file.raw[decl_start].clone(),
                format!(
                    "machine `{}`: enum variant `{v}` is missing from the transition table",
                    spec.name
                ),
            ));
        }
    }
    for s in spec.states {
        if !variants.iter().any(|v| v == s) {
            diags.push(machine_diag(
                spec,
                decl_start + 1,
                file.raw[decl_start].clone(),
                format!(
                    "machine `{}`: table state `{s}` is not a variant of the enum",
                    spec.name
                ),
            ));
        }
    }
    // Every state must be produced (assigned/constructed) and handled
    // (matched/compared) somewhere outside the declaration.
    for s in spec.states {
        let token = format!("{}::{s}", spec.name);
        let mut produced = false;
        let mut handled = false;
        for (idx, code) in file.code.iter().enumerate() {
            if file.is_test(idx) {
                break;
            }
            if idx >= decl_start && idx <= decl_end {
                continue;
            }
            let mut from = 0;
            while let Some(pos) = code[from..].find(&token) {
                let at = from + pos;
                let prefix = code[..at].trim_end();
                let suffix = code[at + token.len()..].trim_start();
                if prefix.ends_with("==")
                    || prefix.ends_with("!=")
                    || prefix.ends_with('|')
                    || suffix.starts_with("=>")
                    || suffix.starts_with('|')
                {
                    handled = true;
                } else if prefix.ends_with("=>")
                    || prefix.ends_with('=')
                    || prefix.ends_with(':')
                    || prefix.ends_with('{')
                    || prefix.ends_with('(')
                    || prefix.ends_with(',')
                    || prefix.is_empty()
                {
                    produced = true;
                }
                from = at + token.len();
            }
        }
        if !produced {
            diags.push(machine_diag(
                spec,
                decl_start + 1,
                file.raw[decl_start].clone(),
                format!(
                    "machine `{}`: state `{s}` is never produced (no `= {token}` / \
                     `: {token}` site)",
                    spec.name
                ),
            ));
        }
        if !handled {
            diags.push(machine_diag(
                spec,
                decl_start + 1,
                file.raw[decl_start].clone(),
                format!(
                    "machine `{}`: state `{s}` is never handled (no `{token} =>` arm or \
                     comparison)",
                    spec.name
                ),
            ));
        }
    }
}
