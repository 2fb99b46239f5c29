//! The paper's acceptance run: every scan once ([`Reproduction`]), every
//! table and figure rendered against the paper's numbers, every shape
//! check judged — the generator behind EXPERIMENTS.md. Writes CSV series
//! and `exp_all.json` (summaries, confusion matrices, checks) to
//! `target/experiments/`, and exits 1 if any check fails.

use iw_analysis::classify::{rdns_encodes_ip, rdns_is_access};
use iw_analysis::compare::{
    render_checks, wrong_share, wrong_verdicts, PAPER_TABLE2_HTTP, PAPER_TABLE2_TLS,
    PAPER_TABLE3_HTTP, PAPER_TABLE3_TLS,
};
use iw_analysis::export;
use iw_analysis::figures::{render_iw_bars, render_sampling_panel, Fig5};
use iw_analysis::histogram::IwHistogram;
use iw_analysis::sampling::{repeated_sample_stats, subsample_histogram};
use iw_analysis::tables::{ByteLimits, Table1, Table2, Table3};
use iw_bench::{banner, Reproduction, Scale, ABLATION_SAMPLE};
use iw_core::telemetry::json::{push_bool_field, push_key, push_str_literal};
use std::collections::{BTreeMap, HashSet};

/// `println!` that drops its line once stdout is gone (`exp_all | head`),
/// so the run still writes its files and its exit code.
macro_rules! say {
    ($($arg:tt)*) => {
        iw_core::telemetry::print_line(format_args!($($arg)*))
    };
}

/// Print a rendered block, whose lines each end in `\n`, through `say!`.
fn put(block: &str) {
    say!("{}", block.strip_suffix('\n').unwrap_or(block));
}

fn main() {
    let scale = Scale::from_env();
    banner(&format!(
        "Full reproduction run ({scale:?} scale; IW_SCALE=medium|large for more)"
    ));
    let r = Reproduction::run(scale);
    let pop = &r.population;
    let (http, tls) = (&r.http, &r.tls);

    banner("Table 1");
    put(&Table1::new(&[("HTTP", &http.summary), ("TLS", &tls.summary)]).render());
    // §4.1: 7 M dual-protocol hosts, 6.2 M of them agree.
    let http_iw: BTreeMap<u32, u32> = http
        .results
        .iter()
        .filter_map(|h| Some((h.ip, h.iw_estimate()?)))
        .collect();
    let dual: Vec<bool> = tls
        .results
        .iter()
        .filter_map(|t| Some(*http_iw.get(&t.ip)? == t.iw_estimate()?))
        .collect();
    let agree = dual.iter().filter(|a| **a).count();
    say!(
        "dual-protocol hosts with estimates: {}; agreeing: {agree} ({:.1}%; paper 6.2M/7M = 88.6%)",
        dual.len(),
        agree as f64 / dual.len().max(1) as f64 * 100.0
    );

    banner("Table 2");
    put(&Table2::new(&http.results).render("HTTP"));
    put(&Table2::new(&tls.results).render("TLS"));
    for (label, row) in [("HTTP", PAPER_TABLE2_HTTP), ("TLS", PAPER_TABLE2_TLS)] {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:>4.1}%")).collect();
        say!("paper {label:<5} {}", cells.join(" "));
    }

    banner("Table 3");
    for (label, out, paper) in [
        ("HTTP", http, PAPER_TABLE3_HTTP),
        ("TLS", tls, PAPER_TABLE3_TLS),
    ] {
        say!(
            "measured {label}:\n{}",
            Table3::new(&out.results, pop).render()
        );
        say!("paper {label} (IW1, IW2, IW4, IW10):");
        for (svc, vals) in paper {
            say!(
                "  {svc:?} {}",
                vals.map_or("–".into(), |v| format!("{v:?}"))
            );
        }
    }
    // §4.3: 38.6 % (62.5 %) of HTTP (TLS) IPs encode their address in the
    // PTR record; the access heuristic classifies 16 % (18.1 %).
    say!("\nreverse-DNS statistics (paper: encode 38.6/62.5, access 16.0/18.1):");
    for (label, out) in [("HTTP", http), ("TLS", tls)] {
        let ptrs: Vec<(u32, Option<String>)> = out
            .results
            .iter()
            .filter_map(|h| Some((h.ip, pop.meta(h.ip)?.rdns)))
            .collect();
        let share = |f: fn(&str, u32) -> bool| {
            let hits = ptrs
                .iter()
                .filter(|(ip, rdns)| rdns.as_deref().is_some_and(|name| f(name, *ip)))
                .count();
            hits as f64 / ptrs.len().max(1) as f64 * 100.0
        };
        say!(
            "  {label}: IP-encoded PTR {:.1}%, classified access {:.1}% (n={})",
            share(rdns_encodes_ip),
            share(rdns_is_access),
            ptrs.len()
        );
    }

    banner("Figure 2");
    put(&r.censys.render());

    banner("Figure 3");
    let h_http = IwHistogram::from_results(&http.results);
    let h_tls = IwHistogram::from_results(&tls.results);
    put(&render_iw_bars("HTTP", &h_http, 0.001, false));
    put(&render_iw_bars("TLS", &h_tls, 0.001, false));
    let small = r.sample_fraction();
    let subsamples: Vec<(String, IwHistogram)> = [0.5, 0.3, small]
        .iter()
        .map(|f| {
            let h = subsample_histogram(&http.results, *f, 0xfeed);
            (format!("{:.0}%", f * 100.0), h)
        })
        .collect();
    let stats = repeated_sample_stats(&http.results, small, 30, 0xfade);
    say!(
        "\nHTTP sampling panel (last two columns: 30 samples at {:.0}%):",
        small * 100.0
    );
    put(&render_sampling_panel(&h_http, &subsamples, &stats));

    banner("Figure 4 (Alexa)");
    let (a_http, a_tls) = (&r.alexa_http, &r.alexa_tls);
    let ah = IwHistogram::from_results(&a_http.results);
    let at = IwHistogram::from_results(&a_tls.results);
    put(&render_iw_bars("Alexa HTTP", &ah, 0.0, true));
    put(&render_iw_bars("Alexa TLS", &at, 0.0, true));
    say!(
        "success rate: HTTP {:.1}% (paper 80), TLS {:.1}% (paper 85)",
        a_http.summary.rates().0,
        a_tls.summary.rates().0
    );
    rank_quartiles(&r);

    banner("Figure 5 (DBSCAN)");
    for (label, out) in [("HTTP", http), ("TLS", tls)] {
        say!(
            "--- {label} ---\n{}",
            Fig5::new(&out.results, pop).render(pop)
        );
    }

    banner("§4.2 byte-limited hosts (HTTP)");
    put(&ByteLimits::new(&http.results).render());

    banner("§3.5 verdicts against ground truth");
    let (http_truth, tls_truth) = (http.telemetry.truth(), tls.telemetry.truth());
    say!("HTTP: {http_truth:?}\nTLS:  {tls_truth:?}");

    // §3.4 (report only): the paper's IW scan took 7.5 h against 6.8 h
    // for a port scan. A lossless port scan sends one SYN per target and
    // one RST per open host.
    banner("§3.4 efficiency (HTTP)");
    let (targets, reachable) = (http.summary.targets, http.summary.reachable);
    let (iw_tx, port_tx) = (http.sim_stats.scanner_tx, targets + reachable);
    say!(
        "S34: {:.3} scanner packets per target ({iw_tx} for {targets}); \
         {:.1} extra per responder over a port scan's {port_tx}",
        iw_tx as f64 / targets as f64,
        (iw_tx as f64 - port_tx as f64) / reachable.max(1) as f64
    );

    banner(&format!(
        "ablations of the starred choices ({:.0}% space sample)",
        ABLATION_SAMPLE * 100.0
    ));
    let a = &r.ablations;
    say!(
        "HTTP success: MSS 64 {:.1}%, MSS 1336 only {:.1}%",
        http.summary.rates().0,
        a.mss1336_success
    );
    say!(
        "wrong share under 1.5x loss at MSS 64: 1 probe {:.2}%, 3 probes {:.2}%",
        wrong_share(&a.one_probe) * 100.0,
        wrong_share(&a.three_probes) * 100.0
    );
    say!(
        "wrong TLS verdicts: verified (full space) {}, unverified {}",
        wrong_verdicts(&tls_truth),
        wrong_verdicts(&a.unverified_tls)
    );

    banner("combined shape-check verdict");
    let checks = r.checks();
    put(&render_checks(&checks));
    let failed = checks.iter().filter(|c| !c.pass).count();
    say!(
        "\n{} of {} checks passed",
        checks.len() - failed,
        checks.len()
    );

    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir).expect("create target/experiments");
    let thresholds: Vec<u32> = (0..=65).map(|k| k * 1000).collect();
    export::to_file(&dir.join("fig2_ccdf.csv"), |b| {
        export::ccdf_csv(&r.censys.ccdf, &thresholds, b)
    })
    .expect("fig2 csv");
    for (name, h) in [
        ("fig3_http.csv", &h_http),
        ("fig3_tls.csv", &h_tls),
        ("fig4_alexa_http.csv", &ah),
    ] {
        export::to_file(&dir.join(name), |b| export::histogram_csv(h, b)).expect(name);
    }
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
    json.push(',');
    push_key(&mut json, "confusion");
    json.push('{');
    push_key(&mut json, "http");
    http_truth.write_json(&mut json);
    json.push(',');
    push_key(&mut json, "tls");
    tls_truth.write_json(&mut json);
    json.push_str("},\"checks\":[");
    for (i, c) in checks.iter().enumerate() {
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
    say!("results written to target/experiments/exp_all.json");
    std::process::exit(i32::from(failed > 0));
}

/// The paper's rank observation: IW10 is more pronounced at the top of
/// the list. The list is rank-ordered, so quartile slices show the
/// gradient.
fn rank_quartiles(r: &Reproduction) {
    let n = r.scale.alexa_n();
    let list = iw_internet::alexa::build(&r.population, n, 1);
    say!("IW10 share by rank quartile (rank 1 = most popular):");
    for q in 0..4 {
        let ips: HashSet<u32> = list[q * n / 4..(q + 1) * n / 4]
            .iter()
            .map(|e| e.ip)
            .collect();
        let h = IwHistogram::from_estimates(
            r.alexa_http
                .results
                .iter()
                .filter(|h| ips.contains(&h.ip))
                .filter_map(|h| h.iw_estimate()),
        );
        say!(
            "  Q{} {:>5.1}%  (n={})",
            q + 1,
            h.fraction(10) * 100.0,
            h.total()
        );
    }
}
