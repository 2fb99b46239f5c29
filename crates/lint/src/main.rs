//! `cargo run -p iw-lint` — lint the workspace, exit nonzero on
//! violations. See the library docs for the rules.

use iw_lint::{emit, load_allowlist, run, LintConfig, ALLOWLIST_RULE, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: iw-lint [--root <dir>] [--rule <name>]... [--format <fmt>]
               [--list-rules]

Checks the workspace's determinism, panic-budget, unsafe-forbidden and
no-shared-state invariants. Exits 0 when clean, 1 on violations, 2 on
usage/IO errors.

  --root <dir>    workspace root (default: walk up from the cwd)
  --rule <name>   only report this rule (repeatable)
  --format <fmt>  output format: text (default), json, sarif
  --list-rules    print the rule names and exit";

/// What the command line asked for.
#[derive(Debug, Default, PartialEq)]
struct Args {
    root: Option<PathBuf>,
    only: Vec<String>,
    format: String,
    list_rules: bool,
    help: bool,
}

/// Parse the arguments after the program name; `Err` is a usage error.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        format: String::from("text"),
        ..Args::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => parsed.list_rules = true,
            "--root" => match args.next() {
                Some(dir) => parsed.root = Some(PathBuf::from(dir)),
                None => return Err("--root needs a directory".to_owned()),
            },
            "--rule" => match args.next() {
                Some(name) => {
                    let known = RULES.iter().any(|(n, _)| *n == name) || name == ALLOWLIST_RULE;
                    if !known {
                        return Err(format!("unknown rule `{name}`"));
                    }
                    parsed.only.push(name);
                }
                None => return Err("--rule needs a rule name".to_owned()),
            },
            "--format" => match args.next() {
                Some(fmt) if matches!(fmt.as_str(), "text" | "json" | "sarif") => {
                    parsed.format = fmt;
                }
                Some(fmt) => return Err(format!("unknown format `{fmt}` (text|json|sarif)")),
                None => return Err("--format needs text, json or sarif".to_owned()),
            },
            "-h" | "--help" => parsed.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Args {
        root,
        only,
        format,
        list_rules,
        help,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("iw-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if list_rules {
        for (name, desc) in RULES {
            println!("{name:24} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match root.map(Ok).unwrap_or_else(find_root) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("iw-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut config = LintConfig::project();
    config.allowlist = match load_allowlist(&root) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("iw-lint: bad allowlist: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = match run(&root, &config) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("iw-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let diags: Vec<_> = diags
        .into_iter()
        .filter(|d| only.is_empty() || only.iter().any(|r| r == d.rule))
        .collect();
    match format.as_str() {
        "json" => print!("{}", emit::to_json(&diags)),
        "sarif" => print!("{}", emit::to_sarif(&diags)),
        _ => {
            if diags.is_empty() {
                println!("iw-lint: workspace clean ({} rules)", RULES.len());
                return ExitCode::SUCCESS;
            }
            for d in &diags {
                println!("{d}\n");
            }
            println!("iw-lint: {} violation(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk up from the cwd to the directory whose `Cargo.toml` declares
/// `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn deleted_rules_and_the_graph_flag_are_usage_errors() {
        for gone in [
            "shared-state-audit",
            "hot-path-purity",
            "channel-discipline",
            "state-machine",
            "metrics-manifest",
        ] {
            let err = parse(&["--rule", gone]).unwrap_err();
            assert_eq!(err, format!("unknown rule `{gone}`"));
        }
        assert_eq!(
            parse(&["--graph", "dot"]).unwrap_err(),
            "unknown argument `--graph`"
        );
        let ok = parse(&["--rule", "no-shared-state", "--rule", ALLOWLIST_RULE]).unwrap();
        assert_eq!(ok.only, ["no-shared-state", ALLOWLIST_RULE]);
    }
}
