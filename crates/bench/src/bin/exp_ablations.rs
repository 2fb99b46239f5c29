//! Ablations of the methodology's three starred design choices
//! (DESIGN.md §5), measuring *quality*, not runtime:
//!
//! 1. **Tiny advertised MSS** — success rates collapse as the announced
//!    MSS grows, because responses stop covering the IW in bytes.
//! 2. **3-probe maximum vote** — single probes under loss misestimate;
//!    three probes with the maximum rule recover.
//! 3. **Exhaustion verification** — without the 2·MSS-window ACK check,
//!    out-of-data hosts are silently misreported as confident successes.

use iw_bench::{banner, lossy_population, standard_population, Scale, SEED};
use iw_core::{Confusion, Protocol, ScanConfig, ScanRunner};

fn main() {
    let scale = Scale::from_env();
    banner(&format!("Methodology ablations ({scale:?} scale)"));
    let mut failures = 0;

    // ---- 1. announced MSS ----
    println!("\nablation 1: announced MSS (HTTP success rate)");
    println!("  MSS    success%  few-data%");
    let pop = standard_population(scale);
    let mut success_at = Vec::new();
    for mss in [64u16, 128, 256, 536, 1336] {
        let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), SEED);
        config.mss_list = vec![mss];
        config.rate_pps = 4_000_000;
        let out = ScanRunner::new(&pop)
            .config(config)
            .topology(iw_bench::bench_topology())
            .run();
        let (s, f, _) = out.summary.rates();
        println!("  {mss:<6} {s:>7.1}  {f:>8.1}");
        success_at.push((mss, s));
    }
    let s64 = success_at[0].1;
    let s1336 = success_at.last().expect("non-empty").1;
    if s64 <= s1336 + 15.0 {
        failures += 1;
        println!("  FAIL: tiny MSS should dominate large MSS by >15 points");
    } else {
        println!(
            "  PASS: MSS 64 succeeds on {s64:.1}% vs {s1336:.1}% at MSS 1336 — \
             the §3.1 design choice earns its keep"
        );
    }

    // ---- 2. probes per host under loss ----
    println!("\nablation 2: probes per MSS under calibrated loss (exact-recovery rate)");
    let lossy = lossy_population(scale, 1.5);
    println!("  probes  exact  wrong  inconclusive  missed");
    let mut exact_at = Vec::new();
    for probes in [1u32, 3] {
        let mut config = ScanConfig::study(Protocol::Http, lossy.space_size(), SEED);
        config.probes_per_mss = probes;
        config.mss_list = vec![64];
        config.rate_pps = 4_000_000;
        let out = ScanRunner::new(&lossy)
            .config(config)
            .topology(iw_bench::bench_topology())
            .run();
        let c = Confusion::of_population(&lossy, Protocol::Http, &out.results);
        let wrong = c.underestimate + c.overestimate;
        println!(
            "  {probes:<7} {:<6} {wrong:<6} {:<13} {}",
            c.exact, c.inconclusive, c.missed
        );
        exact_at.push((probes, c.exact, wrong));
    }
    let wrong_ratio_1 = exact_at[0].2 as f64 / (exact_at[0].1 + exact_at[0].2).max(1) as f64;
    let wrong_ratio_3 = exact_at[1].2 as f64 / (exact_at[1].1 + exact_at[1].2).max(1) as f64;
    if wrong_ratio_3 < wrong_ratio_1 {
        println!(
            "  PASS: voting cuts wrong confident estimates from {:.1}% to {:.1}%",
            wrong_ratio_1 * 100.0,
            wrong_ratio_3 * 100.0
        );
    } else {
        failures += 1;
        println!("  FAIL: 3-probe voting did not reduce wrong estimates");
    }

    // ---- 3. exhaustion verification ----
    println!("\nablation 3: exhaustion verification (TLS; wrong-success rate)");
    println!("  verify  exact  wrong  inconclusive");
    let mut wrongs = Vec::new();
    for verify in [true, false] {
        let mut config = ScanConfig::study(Protocol::Tls, pop.space_size(), SEED);
        config.verify_exhaustion = verify;
        config.rate_pps = 4_000_000;
        let out = ScanRunner::new(&pop)
            .config(config)
            .topology(iw_bench::bench_topology())
            .run();
        let c = Confusion::of_population(&pop, Protocol::Tls, &out.results);
        let wrong = c.underestimate + c.overestimate;
        println!("  {verify:<7} {:<6} {wrong:<6} {}", c.exact, c.inconclusive);
        wrongs.push(wrong);
    }
    if wrongs[1] > wrongs[0] * 3 {
        println!(
            "  PASS: disabling the check multiplies silent misestimates ({} → {})",
            wrongs[0], wrongs[1]
        );
    } else {
        failures += 1;
        println!("  FAIL: verification ablation showed no effect ({wrongs:?})");
    }

    println!("\n{failures} ablation failures");
    std::process::exit(i32::from(failures > 0));
}
