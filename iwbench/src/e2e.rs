//! End-to-end measurement: every repetition is a whole campaign in a fresh
//! child process (this same binary, `child` subcommand), so peak memory is
//! the campaign's own and no repetition warms the next one's allocator.

use crate::adapter::campaign::{Campaign, Finished};
use crate::check::{self, Tally};
use crate::json::{self, Value};
use crate::measure::{median, Metric, Summary};
use crate::spec::Workload;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per child; `setup_s` is their median, so the cold first one
/// (page faults, lazy statics) does not decide it.
const SETUPS: usize = 31;

/// What one child reports on its last stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub targets: u64,
    pub tally: Tally,
    pub digest: u64,
    pub events: u64,
    pub scanner_tx: u64,
}

impl Rep {
    fn to_json(&self) -> Value {
        let t = &self.tally;
        let count = |n: u64| Value::Num(n as f64);
        json::obj([
            ("setup_s", Value::Num(self.setup_s)),
            ("wall_s", Value::Num(self.wall_s)),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            ("targets", count(self.targets)),
            ("attempted", count(t.attempted)),
            ("failed", count(t.failed)),
            ("exact", count(t.exact)),
            ("underestimates", count(t.underestimates)),
            ("missed", count(t.missed)),
            ("duplicates", count(t.duplicates)),
            // A JSON number holds 53 bits; the digest has 64.
            ("digest", Value::Str(format!("{:016x}", self.digest))),
            ("events", count(self.events)),
            ("scanner_tx", count(self.scanner_tx)),
        ])
    }

    fn from_json(v: &Value) -> Option<Rep> {
        let num = |k: &str| v.get(k)?.num();
        let count = |k: &str| num(k).map(|n| n as u64);
        Some(Rep {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            targets: count("targets")?,
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
                exact: count("exact")?,
                underestimates: count("underestimates")?,
                missed: count("missed")?,
                duplicates: count("duplicates")?,
            },
            digest: u64::from_str_radix(v.get("digest")?.str()?, 16).ok()?,
            events: count("events")?,
            scanner_tx: count("scanner_tx")?,
        })
    }
}

/// The conditions under which a run reports no metrics at all.
pub fn gate(w: &Workload, f: &Finished) -> Result<(), String> {
    if !f.completed {
        return Err(format!("{}: run did not complete", w.name));
    }
    if f.pool_outstanding != 0 {
        return Err(format!(
            "{}: {} pool buffers leaked",
            w.name, f.pool_outstanding
        ));
    }
    if f.targets != u64::from(w.space()) {
        return Err(format!(
            "{}: probed {} targets of a {} space",
            w.name,
            f.targets,
            w.space()
        ));
    }
    Ok(())
}

/// The `child` subcommand: set up, run, check, print one line.
pub fn child(w: &Workload, seed: u64) -> Result<(), String> {
    // One campaign alive at a time; the previous one is dropped untimed.
    let mut setups = Vec::with_capacity(SETUPS);
    let campaign = loop {
        let t0 = Instant::now();
        let campaign = Campaign::build(w, seed);
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break campaign;
        }
    };
    let finished = campaign.run();
    // Everything below is untimed and after the memory reading.
    gate(w, &finished)?;
    let tally = check::check(&campaign.ground_truth(), &finished.observed, w.lossless());
    let rep = Rep {
        setup_s: median(&setups),
        wall_s: finished.wall_s,
        peak_rss_mb: finished.peak_rss_kb as f64 / 1024.0,
        targets: finished.targets,
        tally,
        digest: check::digest(&finished.observed),
        events: finished.events,
        scanner_tx: finished.scanner_tx,
    };
    println!("{}", rep.to_json().render());
    Ok(())
}

/// Run `w` once in a fresh process.
pub fn spawn_rep(w: &Workload, seed: u64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(["--workload", w.name])
        .args(["--space-log2", &w.space_log2.to_string()])
        .args(["--responsive", &w.responsive.to_string()])
        .args(["--products", &w.products.to_arg()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(Rep::from_json)
        .ok_or_else(|| format!("{}: unreadable child result {line:?}", w.name))
}

/// How many repetitions a measurement makes.
#[derive(Debug, Clone, Copy)]
pub enum Reps {
    Count(usize),
    /// At least [`MIN_REPS`], then as many as end within this many seconds.
    Seconds(f64),
}

const MIN_REPS: usize = 3;

/// The repetitions of one workload, gated: they must agree on everything
/// that is a pure function of the inputs.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub reps: Vec<Rep>,
}

pub fn measure(w: &Workload, seed: u64, reps: Reps) -> Result<EndToEnd, String> {
    let t0 = Instant::now();
    let mut done: Vec<Rep> = Vec::new();
    loop {
        let enough = match reps {
            Reps::Count(n) => done.len() >= n,
            Reps::Seconds(s) => {
                let mean = t0.elapsed().as_secs_f64() / done.len().max(1) as f64;
                done.len() >= MIN_REPS && t0.elapsed().as_secs_f64() + mean > s
            }
        };
        if enough {
            break;
        }
        let rep = spawn_rep(w, seed)?;
        if let Some(first) = done.first() {
            let same = (first.digest, first.events, first.scanner_tx, first.tally)
                == (rep.digest, rep.events, rep.scanner_tx, rep.tally);
            if !same {
                return Err(format!(
                    "{}: two repetitions of seed {seed} disagree: {first:?} vs {rep:?}",
                    w.name
                ));
            }
        }
        done.push(rep);
    }
    Ok(EndToEnd { reps: done })
}

impl EndToEnd {
    pub fn first(&self) -> &Rep {
        &self.reps[0]
    }

    fn column(&self, f: impl Fn(&Rep) -> f64) -> Summary {
        let values: Vec<f64> = self.reps.iter().map(f).collect();
        Summary::of(&values)
    }

    /// The end-to-end metrics with their run-to-run summaries, in the
    /// order `BENCHMARK.json` declares them.
    pub fn summaries(&self) -> Vec<(Metric, Summary)> {
        let rows = [
            ("setup_s", "s", self.column(|r| r.setup_s)),
            (
                "targets_per_s",
                "1/s",
                self.column(|r| r.targets as f64 / r.wall_s),
            ),
            ("peak_rss_mb", "MB", self.column(|r| r.peak_rss_mb)),
        ];
        rows.into_iter()
            .map(|(name, unit, s)| (Metric::new(name, unit, s.median), s))
            .collect()
    }

    /// Failed over attempted operations: exact, repeats bit for bit.
    pub fn failed_share(&self) -> f64 {
        let t = self.first().tally;
        t.failed as f64 / t.attempted.max(1) as f64
    }
}
