//! Run every experiment in sequence, sharing the scans, and print a
//! combined paper-vs-measured report — the generator behind
//! EXPERIMENTS.md. Writes machine-readable results to
//! `target/experiments/` as JSON.

use iw_analysis::compare::{
    check_fig3, check_fig4, check_table1, check_table2, check_table3, render_checks, Check,
};
use iw_analysis::dbscan::{dbscan, summarize, AsPoint};
use iw_analysis::figures::{render_iw_bars, Fig2};
use iw_analysis::histogram::IwHistogram;
use iw_analysis::sampling::repeated_sample_stats;
use iw_analysis::tables::{Table1, Table2, Table3};
use iw_bench::{alexa_scan, banner, full_scan, standard_population, Scale, SEED};
use iw_core::telemetry::json::{push_bool_field, push_key, push_str_literal};
use iw_core::{HostVerdict, Protocol};
use iw_internet::certs;
use std::collections::HashMap;

fn main() {
    let scale = Scale::from_env();
    banner(&format!(
        "Full reproduction run ({scale:?} scale; IW_SCALE=medium|large for more)"
    ));
    let population = standard_population(scale);
    let mut all_checks: Vec<Check> = Vec::new();

    println!("\nscanning HTTP + TLS (full space) ...");
    let http = full_scan(&population, Protocol::Http);
    let tls = full_scan(&population, Protocol::Tls);

    // ---- Table 1 ----
    banner("Table 1");
    let t1 = Table1::new(&[("HTTP", &http.summary), ("TLS", &tls.summary)]);
    print!("{}", t1.render());
    all_checks.extend(check_table1(&t1));

    // ---- Table 2 ----
    banner("Table 2");
    let t2h = Table2::new(&http.results);
    let t2t = Table2::new(&tls.results);
    print!("{}", t2h.render("HTTP"));
    print!("{}", t2t.render("TLS"));
    all_checks.extend(check_table2(&t2h, &t2t));

    // ---- Table 3 ----
    banner("Table 3");
    let t3h = Table3::new(&http.results, &population);
    let t3t = Table3::new(&tls.results, &population);
    println!("HTTP:\n{}", t3h.render());
    println!("TLS:\n{}", t3t.render());
    all_checks.extend(check_table3(&t3h, &t3t));

    // ---- Figure 2 ----
    banner("Figure 2");
    let fig2 = Fig2::new(certs::censys_sample(SEED, 200_000));
    print!("{}", fig2.render());
    all_checks.push(Check {
        name: "F2: censys statistics calibrated".into(),
        pass: (fig2.ccdf.mean() - 2186.0).abs() < 250.0 && (fig2.ccdf.at(640) - 0.86).abs() < 0.03,
        detail: format!(
            "mean {:.0} (paper 2186), P(>=640) {:.2} (paper 0.86)",
            fig2.ccdf.mean(),
            fig2.ccdf.at(640)
        ),
    });

    // ---- Figure 3 ----
    banner("Figure 3");
    let h_http = IwHistogram::from_results(&http.results);
    let h_tls = IwHistogram::from_results(&tls.results);
    print!("{}", render_iw_bars("HTTP", &h_http, 0.001, false));
    print!("{}", render_iw_bars("TLS", &h_tls, 0.001, false));
    all_checks.extend(check_fig3(&h_http, &h_tls));
    let _ = repeated_sample_stats(&http.results, 0.1, 10, 1);

    // ---- Figure 4 ----
    banner("Figure 4 (Alexa)");
    let a_http = alexa_scan(&population, Protocol::Http, scale.alexa_n());
    let a_tls = alexa_scan(&population, Protocol::Tls, scale.alexa_n());
    let ah = IwHistogram::from_results(&a_http.results);
    let at = IwHistogram::from_results(&a_tls.results);
    print!("{}", render_iw_bars("Alexa HTTP", &ah, 0.0, true));
    print!("{}", render_iw_bars("Alexa TLS", &at, 0.0, true));
    all_checks.extend(check_fig4(&ah, &at, &h_http));

    // ---- Figure 5 ----
    banner("Figure 5 (DBSCAN)");
    for (label, out) in [("HTTP", &http), ("TLS", &tls)] {
        let mut per_as: HashMap<u32, HashMap<u32, u64>> = HashMap::new();
        for r in &out.results {
            if let (Some(iw), Some(meta)) = (r.iw_estimate(), population.meta(r.ip)) {
                *per_as.entry(meta.asn).or_default().entry(iw).or_insert(0) += 1;
            }
        }
        let points: Vec<AsPoint> = per_as
            .into_iter()
            .filter(|(_, c)| c.values().sum::<u64>() >= 3)
            .map(|(asn, c)| AsPoint::from_counts(asn, &c.into_iter().collect::<Vec<_>>()))
            .collect();
        let labels = dbscan(&points, 0.12, 5);
        let clusters = summarize(&points, &labels);
        println!(
            "{label}: {} clusters over {} ASes",
            clusters.len(),
            points.len()
        );
        all_checks.push(Check {
            name: format!("F5: {label} forms ≥3 AS clusters"),
            pass: clusters.len() >= 3,
            detail: format!("{} clusters (paper: 3 each)", clusters.len()),
        });
    }

    // ---- §4.2 byte limits ----
    banner("§4.2 byte-limited hosts");
    let mut four_k = 0u64;
    let mut mtu_fill = 0u64;
    for r in &http.results {
        match r.host_verdict {
            HostVerdict::ByteBased(4096) => four_k += 1,
            HostVerdict::ByteBased(1536) => mtu_fill += 1,
            _ => {}
        }
    }
    println!("4096 B hosts: {four_k}; 1536 B hosts: {mtu_fill}");
    all_checks.push(Check {
        name: "S42: both byte-limit groups detected".into(),
        pass: four_k > 0 && mtu_fill > 0,
        detail: format!("4kB {four_k}, 1536B {mtu_fill}"),
    });

    // ---- Verdict ----
    banner("combined shape-check verdict");
    print!("{}", render_checks(&all_checks));
    let failed = all_checks.iter().filter(|c| !c.pass).count();
    println!(
        "\n{} of {} checks passed",
        all_checks.len() - failed,
        all_checks.len()
    );

    // Machine-readable dump.
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).expect("create target/experiments");
    // CSV series for external plotting.
    use iw_analysis::export;
    let thresholds: Vec<u32> = (0..=65).map(|k| k * 1000).collect();
    export::to_file(&dir.join("fig2_ccdf.csv"), |b| {
        export::ccdf_csv(&fig2.ccdf, &thresholds, b)
    })
    .expect("fig2 csv");
    export::to_file(&dir.join("fig3_http.csv"), |b| {
        export::histogram_csv(&h_http, b)
    })
    .expect("fig3 http csv");
    export::to_file(&dir.join("fig3_tls.csv"), |b| {
        export::histogram_csv(&h_tls, b)
    })
    .expect("fig3 tls csv");
    export::to_file(&dir.join("fig4_alexa_http.csv"), |b| {
        export::histogram_csv(&ah, b)
    })
    .expect("fig4 csv");
    let mut json = String::from("{");
    push_key(&mut json, "scale");
    push_str_literal(&mut json, &format!("{scale:?}"));
    for (key, summary) in [
        ("http_summary", &http.summary),
        ("tls_summary", &tls.summary),
    ] {
        json.push(',');
        push_key(&mut json, key);
        summary.write_json(&mut json);
    }
    json.push_str(",\"checks\":[");
    for (i, c) in all_checks.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('{');
        push_key(&mut json, "name");
        push_str_literal(&mut json, &c.name);
        json.push(',');
        push_bool_field(&mut json, "pass", c.pass);
        json.push(',');
        push_key(&mut json, "detail");
        push_str_literal(&mut json, &c.detail);
        json.push('}');
    }
    json.push_str("]}");
    std::fs::write(dir.join("exp_all.json"), json).expect("write results");
    println!("results written to target/experiments/exp_all.json");
    std::process::exit(i32::from(failed > 0));
}
