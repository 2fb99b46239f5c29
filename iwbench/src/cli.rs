//! The command line.
//!
//! ```text
//! iwbench --workload W --seed N --seconds S --trace 0|1 [--scale smoke]
//!     One run under the benchmark contract (BENCHMARK.json): with
//!     `--trace 0` the end-to-end metrics of W over repetitions in fresh
//!     child processes, with `--trace 1` W's traced run plus every layer
//!     driver. The last stdout line is the result object.
//! iwbench suite  [--seed N] [--reps R] [--scale smoke] [--out FILE]
//!     All four workloads end to end (R repetitions each), their traced
//!     runs and the layer drivers; FILE feeds `compare`.
//! iwbench trace  --workload W [--seed N] [--scale smoke]
//! iwbench layers [--seed N] [--scale smoke]
//! iwbench compare A B [--benchmark BENCHMARK.json]
//!     Every (workload, end-to-end metric) delta of B against A and its
//!     bound; exits 1 past a bound.
//! ```

use crate::e2e::{self, Reps};
use crate::measure::Metric;
use crate::spec::{self, Products, Scale, Workload, DEFAULT_SEED, WORKLOADS};
use crate::{check, json, perlayer, report};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `--key value` options and the positional arguments around them.
struct Args {
    options: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut options = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    options.insert(key.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args {
            options,
            positional,
        })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.get("seed")?.unwrap_or(DEFAULT_SEED))
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.options.get("scale") {
            None => Ok(Scale::Standard),
            Some(s) => Scale::parse(s).ok_or(format!("--scale: unknown scale {s:?}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self
            .options
            .get("workload")
            .ok_or("--workload is required")?;
        let w = spec::workload(name).ok_or(format!("unknown workload {name:?}"))?;
        Ok(w.at(self.scale()?))
    }
}

fn traced_section(w: &Workload, seed: u64) -> Result<(Vec<Metric>, check::Tally), String> {
    let (rows, tally) = perlayer::traced(w, seed)?;
    println!("traced run (single-world form, every layer boundary timed):");
    report::print_rows(&rows);
    let shares: Vec<String> = perlayer::shares(&rows)
        .iter()
        .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
        .collect();
    println!("  layer shares: {}", shares.join("  "));
    Ok((rows, tally))
}

fn layers_section(scale: Scale, seed: u64) -> Result<Vec<Metric>, String> {
    let rows = perlayer::layer_rows(scale, seed)?;
    println!("## layer drivers");
    report::print_rows(&rows);
    Ok(rows)
}

/// One run under the benchmark contract.
fn contract(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let (seed, scale) = (args.seed()?, args.scale()?);
    let seconds: f64 = args.get("seconds")?.unwrap_or(20.0);
    let trace: u8 = args.get("trace")?.unwrap_or(0);
    report::print_header(&report::header(
        seed,
        scale,
        &format!("as many as end within {seconds} s, at least 3"),
    ));
    report::print_workload(&w);
    let (tally, rows) = match trace {
        0 => {
            let e2e = e2e::measure(&w, seed, Reps::Seconds(seconds))?;
            report::print_end_to_end(&e2e);
            let rows = e2e.summaries().into_iter().map(|(m, _)| m).collect();
            (e2e.first().tally, rows)
        }
        1 => {
            let (mut rows, tally) = traced_section(&w, seed)?;
            rows.extend(layers_section(scale, seed)?);
            (tally, rows)
        }
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    println!(
        "{}",
        report::result_line(true, tally.attempted, tally.failed, &rows)
    );
    Ok(())
}

fn suite(args: &Args) -> Result<(), String> {
    let (seed, scale) = (args.seed()?, args.scale()?);
    let reps: usize = args.get("reps")?.unwrap_or(5);
    let header = report::header(seed, scale, &format!("{reps} fresh processes per workload"));
    report::print_header(&header);
    let mut sections = Vec::new();
    for w in WORKLOADS {
        let w = w.at(scale);
        report::print_workload(&w);
        let e2e = e2e::measure(&w, seed, Reps::Count(reps))?;
        report::print_end_to_end(&e2e);
        let (traced, tally) = traced_section(&w, seed)?;
        // `campaign_2t` is traced as one world: this is the byte-identity
        // gate between the threaded engine and the single one.
        if tally != e2e.first().tally {
            return Err(format!(
                "{}: traced run and end-to-end run disagree on the verdicts",
                w.name
            ));
        }
        sections.push((w.name.to_string(), report::workload_section(&e2e, &traced)));
    }
    let layers = layers_section(scale, seed)?;
    if let Some(path) = args.options.get("out") {
        let doc = report::suite_doc(header, sections, &layers);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = &args.positional[..] else {
        return Err("compare takes two result files".into());
    };
    let bench = args
        .options
        .get("benchmark")
        .map_or("BENCHMARK.json", String::as_str);
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, regressed) = report::compare(&read(a)?, &read(b)?, &read(bench)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// A campaign in this fresh process, for a parent `iwbench` to read.
fn child(args: &Args) -> Result<(), String> {
    let mut w = args.workload()?;
    if let Some(log2) = args.get("space-log2")? {
        w.space_log2 = log2;
    }
    if let Some(responsive) = args.get("responsive")? {
        w.responsive = responsive;
    }
    if let Some(products) = args.options.get("products") {
        w.products = Products::from_arg(products)?;
    }
    e2e::child(&w, args.seed()?)
}

fn run(raw: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &raw[1..]),
        _ => ("run", raw),
    };
    let args = Args::parse(rest)?;
    match command {
        "run" => contract(&args)?,
        "suite" => suite(&args)?,
        "trace" => {
            let w = args.workload()?;
            report::print_header(&report::header(args.seed()?, args.scale()?, "1 traced run"));
            report::print_workload(&w);
            traced_section(&w, args.seed()?)?;
        }
        "layers" => {
            report::print_header(&report::header(args.seed()?, args.scale()?, "median of 5"));
            layers_section(args.scale()?, args.seed()?)?;
        }
        "compare" => return compare(&args),
        "child" => child(&args)?,
        other => return Err(format!("unknown command {other:?} (see iwbench/README.md)")),
    }
    Ok(ExitCode::SUCCESS)
}

/// Run the command line of this process; the exit code is 0, 1 when
/// `compare` finds a regression, 2 on any error.
pub fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    run(&raw).unwrap_or_else(|message| {
        eprintln!("iwbench: {message}");
        ExitCode::from(2)
    })
}
