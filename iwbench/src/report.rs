//! What a run prints and saves: the provenance header, one line per
//! metric with its noise, the one-line result the benchmark contract asks
//! for, the suite's result file, and `compare` over two such files.

use crate::e2e::EndToEnd;
use crate::json::{self, Value};
use crate::measure::{Metric, Summary};
use crate::spec::{Products, Scale, Workload, RATE_PPS};
use crate::sys;

pub const SCHEMA: &str = "iwbench/v1";

/// Where every number came from. `reps` describes the repetition rule.
pub fn header(seed: u64, scale: Scale, reps: &str) -> Value {
    json::obj([
        ("schema", Value::Str(SCHEMA.into())),
        ("scale", Value::Str(scale.name().into())),
        ("seed", Value::Num(seed as f64)),
        ("reps", Value::Str(reps.into())),
        ("nproc", Value::Num(sys::nproc() as f64)),
        ("rustc", Value::Str(sys::rustc_version())),
        ("git", Value::Str(sys::git_rev())),
        (
            "deps",
            Value::Str("external crates are the offline stand-ins in iwbench/stubs".into()),
        ),
        ("profile", Value::Str("release".into())),
        ("rate_pps", Value::Num(RATE_PPS as f64)),
    ])
}

pub fn print_header(header: &Value) {
    let fields: Vec<String> = header
        .members()
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| format!("{k}={}", v.str().map_or_else(|| v.render(), String::from)))
        .collect();
    println!("# iwbench  {}", fields.join("  "));
}

pub fn print_workload(w: &Workload) {
    println!("## {}: {}", w.name, w.why);
    println!(
        "   2^{} addresses, ~{} responsive, loss x{}, {:?}{}{}, {} thread(s){}",
        w.space_log2,
        w.responsive,
        w.loss_scale,
        w.proto,
        if w.stateless_first {
            " stateless-first"
        } else {
            " classic"
        },
        if w.hardened { ", hardened" } else { "" },
        w.threads,
        if w.products == Products::NONE {
            ""
        } else {
            ", telemetry + checkpoints on"
        },
    );
}

pub fn print_end_to_end(e2e: &EndToEnd) {
    for (m, s) in e2e.summaries() {
        println!(
            "  {:<34} {:<6} median {:<14.6} min {:<14.6} max {:<14.6} n {}  spread {:.4}",
            m.name,
            m.unit,
            s.median,
            s.min,
            s.max,
            s.n,
            s.spread()
        );
    }
    let t = e2e.first().tally;
    println!(
        "  {:<34} {:<6} {} ({} failed of {} operations; exact, repeats bit for bit)",
        "failed_share",
        "ratio",
        e2e.failed_share(),
        t.failed,
        t.attempted
    );
    println!(
        "  digest {:016x}  events {}  scanner_tx {}  exact {}  underestimates {}  missed {}  duplicates {}",
        e2e.first().digest,
        e2e.first().events,
        e2e.first().scanner_tx,
        t.exact,
        t.underestimates,
        t.missed,
        t.duplicates
    );
}

pub fn print_rows(rows: &[Metric]) {
    for m in rows {
        println!("  {:<34} {:<6} {}", m.name, m.unit, m.value);
    }
}

fn metrics_object(rows: &[Metric]) -> Value {
    json::obj(rows.iter().map(|m| {
        let entry = json::obj([
            ("value", Value::Num(m.value)),
            ("unit", Value::Str(m.unit.into())),
        ]);
        (m.name.clone(), entry)
    }))
}

/// The last stdout line of a contract run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, rows: &[Metric]) -> String {
    json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_object(rows)),
    ])
    .render()
}

/// One workload's section of the suite's result file.
pub fn workload_section(e2e: &EndToEnd, traced: &[Metric]) -> Value {
    let end_to_end = json::obj(e2e.summaries().into_iter().map(|(m, s)| {
        let entry = json::obj([
            ("unit", Value::Str(m.unit.into())),
            ("median", Value::Num(s.median)),
            ("min", Value::Num(s.min)),
            ("max", Value::Num(s.max)),
            ("n", Value::Num(s.n as f64)),
            ("spread", Value::Num(s.spread())),
        ]);
        (m.name, entry)
    }));
    let t = e2e.first().tally;
    json::obj([
        ("end_to_end", end_to_end),
        ("attempted", Value::Num(t.attempted as f64)),
        ("failed", Value::Num(t.failed as f64)),
        ("failed_share", Value::Num(e2e.failed_share())),
        ("digest", Value::Str(format!("{:016x}", e2e.first().digest))),
        ("per_layer", metrics_object(traced)),
    ])
}

pub fn suite_doc(header: Value, workloads: Vec<(String, Value)>, layers: &[Metric]) -> Value {
    json::obj([
        ("header", header),
        ("workloads", Value::Obj(workloads)),
        ("layers", metrics_object(layers)),
    ])
}

fn summary_of(entry: &Value) -> Option<Summary> {
    Some(Summary {
        median: entry.get("median")?.num()?,
        min: entry.get("min")?.num()?,
        max: entry.get("max")?.num()?,
        n: entry.get("n")?.num()? as usize,
    })
}

const REGRESSED: &str = "REGRESSED";

/// By how much `b` is worse than `a` as a share of `a`'s median (negative
/// = better), and what that means under `bound`. A pair whose run-to-run
/// spread exceeds the bound is unresolved, not unchanged, unless every run
/// of `b` beats every run of `a`.
fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, &'static str) {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b.median - a.median) / a.median;
    let b_beats_a = if higher_is_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    let noisy = a.spread() > bound || b.spread() > bound;
    let verdict = if worse_by > bound {
        REGRESSED
    } else if noisy && !b_beats_a {
        "unresolved"
    } else if worse_by < -bound {
        "better"
    } else {
        "within bound"
    };
    (worse_by, verdict)
}

/// Compare result file `b` against `a` under the bounds `benchmark`
/// (`BENCHMARK.json`) fixes. Returns the report and whether anything is
/// past its bound.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<(String, bool), String> {
    for (label, doc) in [("A", a), ("B", b)] {
        let h = doc.get("header").ok_or(format!("{label}: no header"))?;
        if h.get("schema").and_then(Value::str) != Some(SCHEMA) {
            return Err(format!("{label}: not an {SCHEMA} result file"));
        }
        if h.get("scale").and_then(Value::str) != Some(Scale::Standard.name()) {
            return Err(format!(
                "{label}: stamped {:?}; only standard-scale results compare",
                h.get("scale").and_then(Value::str).unwrap_or("?")
            ));
        }
    }
    let declared = benchmark
        .get("end_to_end")
        .and_then(Value::items)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut report = String::new();
    let mut regressed = false;
    let workloads = a
        .get("workloads")
        .and_then(Value::members)
        .unwrap_or_default();
    for (name, section_a) in workloads {
        let section_b = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or(format!("B: no workload {name}"))?;
        for decl in declared {
            let field = |k: &str| decl.get(k).and_then(Value::str);
            let (Some(metric), Some(better)) = (field("name"), field("better")) else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            let bound = decl.get("bound").and_then(Value::num).unwrap_or(0.0);
            let read = |section: &Value| {
                section
                    .get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(summary_of)
            };
            let (Some(sa), Some(sb)) = (read(section_a), read(section_b)) else {
                return Err(format!("{name}: {metric} missing from a result file"));
            };
            let (worse_by, verdict) = judge(&sa, &sb, better == "higher", bound);
            regressed |= verdict == REGRESSED;
            report.push_str(&format!(
                "{name:<18} {metric:<16} A {:<14.6} B {:<14.6} worse by {:+.4} (bound {bound}, spread A {:.4} B {:.4})  {verdict}\n",
                sa.median,
                sb.median,
                worse_by,
                sa.spread(),
                sb.spread(),
            ));
        }
        let failed = |s: &Value| s.get("failed").and_then(Value::num).unwrap_or(f64::NAN);
        let (fa, fb) = (failed(section_a), failed(section_b));
        let verdict = if fb > fa {
            regressed = true;
            REGRESSED
        } else {
            "within bound"
        };
        report.push_str(&format!(
            "{name:<18} {:<16} A {fa:<14} B {fb:<14} (bound +0)  {verdict}\n",
            "failed"
        ));
        // Simulated statistics: two runs of one commit must agree on all
        // of them, and a change meant only to speed the program up too.
        let digest = |s: &Value| s.get("digest").and_then(Value::str).map(String::from);
        if digest(section_a) != digest(section_b) {
            report.push_str(&format!(
                "{name:<18} digest differs: the verdicts changed\n"
            ));
        }
        let counts = section_a.get("per_layer").and_then(Value::members);
        for (metric, entry) in counts.unwrap_or_default() {
            let other = section_b.get("per_layer").and_then(|p| p.get(metric));
            let value = |e: &Value| e.get("value").and_then(Value::num);
            let is_count = entry.get("unit").and_then(Value::str) == Some("count");
            if is_count && other.and_then(value) != value(entry) {
                report.push_str(&format!(
                    "{name:<18} {metric:<16} A {:?} B {:?}  count differs\n",
                    value(entry),
                    other.and_then(value),
                ));
            }
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(scale: &str, tps: (f64, f64, f64), failed: f64) -> Value {
        let text = format!(
            r#"{{"header":{{"schema":"iwbench/v1","scale":"{scale}"}},
                "workloads":{{"dense_http":{{"end_to_end":{{"targets_per_s":
                {{"unit":"1/s","median":{},"min":{},"max":{},"n":5}}}},"failed":{failed}}}}}}}"#,
            tps.0, tps.1, tps.2
        );
        json::parse(&text).unwrap()
    }

    fn bench() -> Value {
        json::parse(
            r#"{"end_to_end":[{"name":"targets_per_s","unit":"1/s","better":"higher","bound":0.07}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_flags_regression_past_the_bound() {
        let a = doc("standard", (100.0, 99.0, 101.0), 0.0);
        let (report, bad) = compare(&a, &a, &bench()).unwrap();
        assert!(!bad && report.contains("within bound"), "{report}");
        let slower = doc("standard", (90.0, 89.0, 91.0), 0.0);
        let (report, bad) = compare(&a, &slower, &bench()).unwrap();
        assert!(bad && report.contains("REGRESSED"), "{report}");
        let (report, bad) = compare(&slower, &a, &bench()).unwrap();
        assert!(!bad && report.contains("better"), "{report}");
    }

    #[test]
    fn compare_says_unresolved_when_noise_exceeds_the_bound() {
        let a = doc("standard", (100.0, 90.0, 110.0), 0.0);
        let b = doc("standard", (99.0, 95.0, 104.0), 0.0);
        let (report, bad) = compare(&a, &b, &bench()).unwrap();
        assert!(!bad && report.contains("unresolved"), "{report}");
    }

    #[test]
    fn compare_counts_new_failures_and_refuses_smoke() {
        let a = doc("standard", (100.0, 99.0, 101.0), 0.0);
        let b = doc("standard", (100.0, 99.0, 101.0), 2.0);
        assert!(compare(&a, &b, &bench()).unwrap().1);
        let smoke = doc("smoke", (100.0, 99.0, 101.0), 0.0);
        assert!(compare(&a, &smoke, &bench()).unwrap_err().contains("smoke"));
    }
}
