//! The paper's published numbers and shape checks.
//!
//! EXPERIMENTS.md reports "paper vs measured" for every artifact; the
//! constants here are the paper side, and the `check_*` functions encode
//! the *shape* properties that must hold for the reproduction to count
//! (who wins, by roughly what factor, where crossovers fall) — absolute
//! host counts are scaled and not compared.

use crate::classify::Service;
use crate::figures::{Fig2, Fig5};
use crate::histogram::IwHistogram;
use crate::sampling::{repeated_sample_stats, subsample_histogram};
use crate::tables::{ByteLimits, Table1, Table2, Table3};
use iw_core::{Confusion, HostResult};

/// Paper Table 1: (reachable millions, success %, few-data %, error %).
pub const PAPER_TABLE1_HTTP: (f64, f64, f64, f64) = (48.3, 50.8, 47.6, 1.6);
/// Paper Table 1, TLS row.
pub const PAPER_TABLE1_TLS: (f64, f64, f64, f64) = (42.6, 85.6, 13.3, 1.1);

/// Paper Table 2 rows: `[NoData, IW1..IW10]` in percent.
pub const PAPER_TABLE2_HTTP: [f64; 11] = [4.8, 16.5, 7.1, 7.2, 2.9, 3.6, 2.0, 45.0, 2.7, 1.1, 0.9];
/// Paper Table 2, TLS row.
pub const PAPER_TABLE2_TLS: [f64; 11] = [17.8, 56.3, 5.6, 0.7, 1.9, 2.8, 2.4, 2.4, 3.4, 0.4, 0.8];

/// Paper Table 3: per-service `[IW1, IW2, IW4, IW10]` percents.
/// `None` = the paper prints "–" (Akamai HTTP).
pub const PAPER_TABLE3_HTTP: [(Service, Option<[f64; 4]>); 5] = [
    (Service::Akamai, None),
    (Service::Ec2, Some([0.0, 1.8, 3.4, 94.7])),
    (Service::Cloudflare, Some([0.0, 0.0, 0.0, 100.0])),
    (Service::Azure, Some([0.0, 7.8, 54.9, 37.1])),
    (Service::AccessNetwork, Some([3.5, 50.2, 20.8, 21.7])),
];
/// Paper Table 3, TLS half.
pub const PAPER_TABLE3_TLS: [(Service, Option<[f64; 4]>); 5] = [
    (Service::Akamai, Some([0.0, 0.0, 100.0, 0.0])),
    (Service::Ec2, Some([0.2, 1.3, 2.6, 95.8])),
    (Service::Cloudflare, Some([0.0, 0.0, 0.0, 100.0])),
    (Service::Azure, Some([0.1, 4.1, 73.3, 21.9])),
    (Service::AccessNetwork, Some([4.5, 17.6, 67.1, 10.4])),
];

/// Fig. 2 reference statistics: mean 2186 B, ≥640 B at 86 %, ≥2176 B at
/// 50 % of 36.5 M hosts.
pub const PAPER_FIG2: (f64, f64, f64) = (2186.0, 0.86, 0.50);

/// A single shape-check outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether the shape holds.
    pub pass: bool,
    /// Human-readable detail (paper vs measured).
    pub detail: String,
}

impl Check {
    fn new(name: &str, pass: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            pass,
            detail,
        }
    }
}

/// Table 1 shape: TLS succeeds far more often than HTTP; HTTP's few-data
/// share is near half; errors are marginal for both.
pub fn check_table1(table: &Table1) -> Vec<Check> {
    let mut out = Vec::new();
    let http = &table.rows[0];
    let tls = &table.rows[1];
    out.push(Check::new(
        "T1: TLS success > HTTP success by ≥20 points",
        tls.2 - http.2 >= 20.0,
        format!("paper 85.6 vs 50.8; measured {:.1} vs {:.1}", tls.2, http.2),
    ));
    out.push(Check::new(
        "T1: HTTP few-data near half (30–60%)",
        (30.0..=60.0).contains(&http.3),
        format!("paper 47.6; measured {:.1}", http.3),
    ));
    out.push(Check::new(
        "T1: TLS few-data well below HTTP's",
        tls.3 < http.3 / 2.0,
        format!("paper 13.3 vs 47.6; measured {:.1} vs {:.1}", tls.3, http.3),
    ));
    out.push(Check::new(
        "T1: errors marginal (<5%) on both",
        http.4 < 5.0 && tls.4 < 5.0,
        format!("measured {:.1} / {:.1}", http.4, tls.4),
    ));
    out
}

/// Table 2 shape: HTTP peaks at IW7 (the default-error-page bucket); TLS
/// is dominated by IW1 (alerts) with a large NoData share.
pub fn check_table2(http: &Table2, tls: &Table2) -> Vec<Check> {
    let http_peak = http
        .iw
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i + 1)
        .unwrap_or(0);
    let tls_peak = tls
        .iw
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i + 1)
        .unwrap_or(0);
    vec![
        Check::new(
            "T2: HTTP lower bounds peak at IW7",
            http_peak == 7,
            format!("paper peak IW7 (45.0%); measured peak IW{http_peak}"),
        ),
        Check::new(
            "T2: HTTP IW7 share dominant (>25%)",
            http.iw[6] > 25.0,
            format!("paper 45.0; measured {:.1}", http.iw[6]),
        ),
        Check::new(
            "T2: TLS lower bounds peak at IW1 (alert-sized answers)",
            tls_peak == 1 && tls.iw[0] > 30.0,
            format!("paper 56.3; measured {:.1} at peak IW{tls_peak}", tls.iw[0]),
        ),
        Check::new(
            "T2: TLS NoData share ≫ HTTP NoData share",
            tls.no_data > http.no_data * 2.0,
            format!(
                "paper 17.8 vs 4.8; measured {:.1} vs {:.1}",
                tls.no_data, http.no_data
            ),
        ),
    ]
}

/// Table 3 shape: the per-service signatures.
pub fn check_table3(http: &Table3, tls: &Table3) -> Vec<Check> {
    let get = |t: &Table3, svc: Service| t.row(svc).map(|(_, p, n)| (*p, *n));
    let mut out = Vec::new();
    if let Some((p, n)) = get(tls, Service::Akamai) {
        out.push(Check::new(
            "T3: Akamai TLS is ~pure IW4",
            n > 0 && p[2] > 90.0,
            format!("paper 100.0; measured {:.1} (n={n})", p[2]),
        ));
    }
    for (label, table) in [("HTTP", http), ("TLS", tls)] {
        if let Some((p, n)) = get(table, Service::Cloudflare) {
            out.push(Check::new(
                &format!("T3: Cloudflare {label} is ~pure IW10"),
                n > 0 && p[3] > 95.0,
                format!("paper 100.0; measured {:.1} (n={n})", p[3]),
            ));
        }
        if let Some((p, n)) = get(table, Service::Ec2) {
            out.push(Check::new(
                &format!("T3: EC2 {label} dominated by IW10"),
                n > 0 && p[3] > 80.0,
                format!("paper ~95; measured {:.1} (n={n})", p[3]),
            ));
        }
        if let Some((p, n)) = get(table, Service::Azure) {
            out.push(Check::new(
                &format!("T3: Azure {label} IW4 beats IW10"),
                n > 0 && p[2] > p[3],
                format!(
                    "paper 54.9/73.3 vs 37.1/21.9; measured {:.1} vs {:.1}",
                    p[2], p[3]
                ),
            ));
        }
    }
    if let Some((p, n)) = get(http, Service::AccessNetwork) {
        out.push(Check::new(
            "T3: Access HTTP dominated by IW2",
            n > 0 && p[1] > p[0] && p[1] > p[2] && p[1] > p[3],
            format!("paper 50.2; measured IW2={:.1} (n={n})", p[1]),
        ));
    }
    if let Some((p, n)) = get(tls, Service::AccessNetwork) {
        out.push(Check::new(
            "T3: Access TLS dominated by IW4",
            n > 0 && p[2] > p[1] && p[2] > p[3],
            format!("paper 67.1; measured IW4={:.1} (n={n})", p[2]),
        ));
    }
    out
}

/// Fig. 3 shape: IW {1,2,4,10} dominate both protocols (>90 % of
/// successful hosts); TLS has relatively more IW4 than HTTP; IW10 is the
/// single biggest bar on both.
pub fn check_fig3(http: &IwHistogram, tls: &IwHistogram) -> Vec<Check> {
    let dominated = |h: &IwHistogram| {
        [1u32, 2, 4, 10]
            .iter()
            .map(|iw| h.fraction(*iw))
            .sum::<f64>()
    };
    vec![
        Check::new(
            "F3: IW {1,2,4,10} cover >90% (HTTP)",
            dominated(http) > 0.90,
            format!("paper >97%; measured {:.1}%", dominated(http) * 100.0),
        ),
        Check::new(
            "F3: IW {1,2,4,10} cover >90% (TLS)",
            dominated(tls) > 0.90,
            format!("paper >97%; measured {:.1}%", dominated(tls) * 100.0),
        ),
        Check::new(
            "F3: TLS IW4 share exceeds HTTP IW4 share",
            tls.fraction(4) > http.fraction(4),
            format!(
                "measured TLS {:.1}% vs HTTP {:.1}%",
                tls.fraction(4) * 100.0,
                http.fraction(4) * 100.0
            ),
        ),
        Check::new(
            "F3: IW10 is the modal IW on both",
            [1u32, 2, 4]
                .iter()
                .all(|iw| http.fraction(10) > http.fraction(*iw))
                && [1u32, 2, 4]
                    .iter()
                    .all(|iw| tls.fraction(10) > tls.fraction(*iw)),
            format!(
                "measured HTTP IW10 {:.1}%, TLS IW10 {:.1}%",
                http.fraction(10) * 100.0,
                tls.fraction(10) * 100.0
            ),
        ),
    ]
}

/// Fig. 4 shape: the popular population is IW10-heavy (>70 % both
/// protocols) — far above the full-space share.
pub fn check_fig4(
    alexa_http: &IwHistogram,
    alexa_tls: &IwHistogram,
    full_http: &IwHistogram,
) -> Vec<Check> {
    vec![
        Check::new(
            "F4: Alexa HTTP IW10 >70%",
            alexa_http.fraction(10) > 0.70,
            format!(
                "paper ~85%; measured {:.1}%",
                alexa_http.fraction(10) * 100.0
            ),
        ),
        Check::new(
            "F4: Alexa TLS IW10 >70%",
            alexa_tls.fraction(10) > 0.70,
            format!(
                "paper ~80%; measured {:.1}%",
                alexa_tls.fraction(10) * 100.0
            ),
        ),
        Check::new(
            "F4: popularity shifts IW10 up vs full space",
            alexa_http.fraction(10) > full_http.fraction(10) + 0.15,
            format!(
                "measured Alexa {:.1}% vs full {:.1}%",
                alexa_http.fraction(10) * 100.0,
                full_http.fraction(10) * 100.0
            ),
        ),
    ]
}

/// Fig. 2 calibration: the chain-length sample's mean and its coverage
/// of `MSS 64 · IW 10` and `MSS 64 · IW 34`.
pub fn check_fig2(fig: &Fig2) -> Vec<Check> {
    let (mean, at_640, at_2176) = (fig.ccdf.mean(), fig.ccdf.at(640), fig.ccdf.at(2176));
    let (paper_mean, paper_640, paper_2176) = PAPER_FIG2;
    vec![Check::new(
        "F2: censys statistics calibrated",
        (mean - paper_mean).abs() < 250.0
            && (at_640 - paper_640).abs() < 0.03
            && (at_2176 - paper_2176).abs() < 0.03,
        format!(
            "mean {mean:.0} (paper 2186), P(>=640) {at_640:.3} (paper 0.86), \
             P(>=2176) {at_2176:.3} (paper 0.50)"
        ),
    )]
}

/// §4.1's "scanning 1 % is enough" on the result set (Fig. 3's sampling
/// panel): 30 samples at `fraction` stay within a binomial 3.5σ of every
/// bar of at least 1 %, a 30 % subsample is within L1 0.12, and the
/// range of 20 samples at 20 % brackets every dominant bar.
pub fn check_sampling(results: &[HostResult], fraction: f64) -> Vec<Check> {
    let full = IwHistogram::from_results(results);
    let worst = repeated_sample_stats(results, fraction, 30, 0xfade)
        .iter()
        .filter(|b| full.fraction(b.iw) >= 0.01)
        .map(|b| {
            let f = full.fraction(b.iw);
            (b.max - f).abs().max((b.min - f).abs())
        })
        .fold(0.0f64, f64::max);
    // The paper's 1 % of 24 M hosts gives σ ≈ 0.001; a scaled sample of
    // n hosts is judged against its own binomial σ.
    let n = (full.total() as f64 * fraction).max(1.0);
    let band = 3.5 * (0.25 / n).sqrt();
    let l1_30 = full.l1_distance(&subsample_histogram(results, 0.3, 99));
    let ranges = repeated_sample_stats(results, 0.2, 20, 7);
    let outside: Vec<u32> = full
        .dominant(0.05)
        .into_iter()
        .filter(|(iw, f)| {
            !ranges
                .iter()
                .any(|b| b.iw == *iw && b.min <= *f && *f <= b.max)
        })
        .map(|(iw, _)| iw)
        .collect();
    vec![
        Check::new(
            &format!(
                "F3 sampling: 30 × {:.0}% samples within 3.5σ on every bar ≥1%",
                fraction * 100.0
            ),
            worst < band,
            format!("worst bar deviation {worst:.4} vs 3.5σ {band:.4} at n={n:.0}"),
        ),
        Check::new(
            "F3 sampling: a 30% subsample is within L1 0.12",
            l1_30 < 0.12,
            format!("measured L1 {l1_30:.4}"),
        ),
        Check::new(
            "F3 sampling: 20 × 20% samples bracket every dominant bar",
            outside.is_empty(),
            format!("bars outside the sample range: {outside:?}"),
        ),
    ]
}

/// §4.1's claim on the address space: a scan of a sample of the space
/// reads IW 1/2/4/10 within 8 points of the full scan.
pub fn check_space_sample(full: &IwHistogram, sample: &IwHistogram) -> Vec<Check> {
    let gap = [1u32, 2, 4, 10]
        .iter()
        .map(|iw| (full.fraction(*iw) - sample.fraction(*iw)).abs())
        .fold(0.0f64, f64::max);
    vec![Check::new(
        "F3 space sample: within 8 points of the full scan on IW 1/2/4/10",
        gap < 0.08,
        format!(
            "largest gap {:.1} points (sample n={}, full n={})",
            gap * 100.0,
            sample.total(),
            full.total()
        ),
    )]
}

/// Fig. 5 shape. Per protocol: ≥ 3 clusters covering > 40 % of the
/// measured hosts, whose four largest have ≥ 2 distinct leading IWs, one
/// of them IW10. On HTTP also: the largest cluster is IW10-led (content
/// infrastructure) and some cluster is IW2-led (access and legacy).
pub fn check_fig5(http: &Fig5, tls: &Fig5) -> Vec<Check> {
    let mut out = Vec::new();
    for (label, fig) in [("HTTP", http), ("TLS", tls)] {
        let mut top: Vec<&str> = fig.leads().into_iter().take(4).collect();
        top.sort_unstable();
        top.dedup();
        out.push(Check::new(
            &format!("F5: {label} forms ≥3 AS clusters"),
            fig.clusters.len() >= 3,
            format!("{} clusters (paper: 3 each)", fig.clusters.len()),
        ));
        out.push(Check::new(
            &format!("F5: {label} clusters cover >40% of hosts"),
            fig.coverage() > 0.40,
            format!("paper ≈49%; measured {:.0}%", fig.coverage() * 100.0),
        ));
        out.push(Check::new(
            &format!("F5: {label} top clusters have ≥2 leads, one IW10"),
            top.len() >= 2 && top.contains(&"IW10"),
            format!("distinct leads {top:?}"),
        ));
    }
    let leads = http.leads();
    out.push(Check::new(
        "F5: the largest HTTP cluster is IW10-led",
        leads.first() == Some(&"IW10"),
        format!("leads by size {leads:?}"),
    ));
    out.push(Check::new(
        "F5: an HTTP cluster is IW2-led",
        leads.contains(&"IW2"),
        format!("leads by size {leads:?}"),
    ));
    out
}

/// §4.2 shape: the dual-MSS scan finds both byte-budget groups (4 kB and
/// 1 536 B), byte-configured hosts are a small minority (paper ≈1 %),
/// and GoDaddy-style IW48 hosts read as segment-configured.
pub fn check_bytelimit(limits: &ByteLimits) -> Vec<Check> {
    let share = limits.byte_share();
    vec![
        Check::new(
            "S42: both byte-limit groups detected",
            limits.at(4096) > 0 && limits.at(1536) > 0,
            format!("4kB {}, 1536B {}", limits.at(4096), limits.at(1536)),
        ),
        Check::new(
            "S42: byte-configured share within 0.2–4%",
            (0.2..=4.0).contains(&share),
            format!("paper ≈1%; measured {share:.1}%"),
        ),
        Check::new(
            "S42: a static IW48 fleet is segment-configured",
            limits.iw48_static > 0,
            format!("{} hosts SegmentBased(48)", limits.iw48_static),
        ),
    ]
}

/// §3.5 on full scans of a lossless population: no verdict exceeds the
/// configured window and no record is spurious; without loss nothing is
/// underestimated, missed or duplicated either.
pub fn check_confusion(http: &Confusion, tls: &Confusion) -> Vec<Check> {
    let mut out = Vec::new();
    for (label, c) in [("HTTP", http), ("TLS", tls)] {
        out.push(Check::new(
            &format!("S35: {label} never overestimates and has no spurious record"),
            c.overestimate == 0 && c.spurious == 0,
            format!("{c:?}"),
        ));
        out.push(Check::new(
            &format!("S35: {label} lossless: no underestimate, miss or duplicate"),
            c.underestimate == 0 && c.missed == 0 && c.duplicate == 0,
            format!("{c:?}"),
        ));
    }
    out
}

/// Confident verdicts that are wrong: under- plus overestimates.
pub fn wrong_verdicts(c: &Confusion) -> u64 {
    c.underestimate + c.overestimate
}

/// Share of confident verdicts that are wrong: (under + over) ÷
/// (exact + under + over).
pub fn wrong_share(c: &Confusion) -> f64 {
    let wrong = wrong_verdicts(c);
    wrong as f64 / (c.exact + wrong).max(1) as f64
}

/// The ablations of the three starred choices (DESIGN §5): each one
/// must make a difference. `success` is the HTTP success rate (%) at
/// MSS 64 and at MSS 1336; `votes` the confusion under loss with one
/// probe and with three; `verification` TLS with the 2·MSS exhaustion
/// check and without it.
pub fn check_ablations(
    success: (f64, f64),
    votes: (&Confusion, &Confusion),
    verification: (&Confusion, &Confusion),
) -> Vec<Check> {
    let (s64, s1336) = success;
    let (one, three) = (wrong_share(votes.0), wrong_share(votes.1));
    let (verified, unverified) = (
        wrong_verdicts(verification.0),
        wrong_verdicts(verification.1),
    );
    vec![
        Check::new(
            "ABL: MSS 64 beats MSS 1336 by >15 points of success",
            s64 > s1336 + 15.0,
            format!("{s64:.1}% vs {s1336:.1}%"),
        ),
        Check::new(
            "ABL: three probes cut the wrong share under loss",
            three < one,
            format!(
                "1 probe {:.2}% → 3 probes {:.2}%",
                one * 100.0,
                three * 100.0
            ),
        ),
        Check::new(
            "ABL: unverified TLS has >3× the wrong verdicts",
            unverified > verified * 3,
            format!("verified {verified}, unverified {unverified}"),
        ),
    ]
}

/// Render a check list as a pass/fail table.
pub fn render_checks(checks: &[Check]) -> String {
    let mut out = String::new();
    for c in checks {
        out.push_str(&format!(
            "[{}] {} — {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::ClusterSummary;

    #[test]
    fn paper_constants_are_self_consistent() {
        // Table 2 rows should sum close to 100 (tails omitted in paper).
        let sum_http: f64 = PAPER_TABLE2_HTTP.iter().sum();
        assert!((90.0..=101.0).contains(&sum_http), "{sum_http}");
        let sum_tls: f64 = PAPER_TABLE2_TLS.iter().sum();
        assert!((90.0..=101.0).contains(&sum_tls), "{sum_tls}");
    }

    #[test]
    fn fig3_checks_on_synthetic_histograms() {
        let mut http = IwHistogram::new();
        let mut tls = IwHistogram::new();
        for (iw, n_http, n_tls) in [(1u32, 12, 10), (2, 22, 15), (4, 12, 28), (10, 46, 40)] {
            for _ in 0..n_http {
                http.add(iw);
            }
            for _ in 0..n_tls {
                tls.add(iw);
            }
        }
        let checks = check_fig3(&http, &tls);
        assert!(checks.iter().all(|c| c.pass), "{}", render_checks(&checks));
    }

    #[test]
    fn fig3_checks_fail_on_flat_distribution() {
        let flat = IwHistogram::from_estimates([1, 2, 4, 10, 20, 30, 40, 50]);
        let checks = check_fig3(&flat, &flat);
        assert!(checks.iter().any(|c| !c.pass));
    }

    fn passes(checks: &[Check]) -> bool {
        checks.iter().all(|c| c.pass)
    }

    #[test]
    fn fig2_check_needs_all_three_bands() {
        // Mean 2186 B, 86 % at or above 640 B, 50 % at or above 2176 B.
        let calibrated = [vec![100; 14], vec![1000; 36], vec![3624; 50]].concat();
        assert!(passes(&check_fig2(&Fig2::new(calibrated))));
        assert!(!passes(&check_fig2(&Fig2::new(vec![2186; 100]))));
    }

    #[test]
    fn sampling_checks_pass_on_a_large_set_and_fail_on_a_tiny_one() {
        let result = |ip: u32, iw: u32| HostResult {
            ip,
            protocol: iw_core::Protocol::Http,
            runs: vec![],
            verdicts: vec![(64, iw_core::MssVerdict::Success(iw))],
            host_verdict: iw_core::HostVerdict::SegmentBased(iw),
        };
        let layout = [10, 10, 10, 10, 10, 2, 2, 2, 4, 1];
        let large: Vec<HostResult> = (0..20_000)
            .map(|i| result(i, layout[i as usize % 10]))
            .collect();
        let checks = check_sampling(&large, 0.1);
        assert!(passes(&checks), "{}", render_checks(&checks));
        let tiny: Vec<HostResult> = (0..10).map(|i| result(i, i + 1)).collect();
        assert!(!passes(&check_sampling(&tiny, 0.1)));
    }

    #[test]
    fn space_sample_check_allows_eight_points() {
        let full = IwHistogram::from_estimates([10, 10, 10, 10, 10, 2, 2, 2, 4, 1]);
        let close = IwHistogram::from_estimates([10, 10, 10, 10, 10, 10, 2, 2, 4, 1]);
        let far = IwHistogram::from_estimates([2, 2, 2, 2, 10]);
        assert!(!passes(&check_space_sample(&full, &close)), "10 points off");
        assert!(passes(&check_space_sample(&full, &full)));
        assert!(!passes(&check_space_sample(&full, &far)));
    }

    #[test]
    fn fig5_checks_want_three_clusters_led_by_iw10_and_iw2() {
        let cluster = |id: usize, hosts: u64, centroid: [f64; 5]| ClusterSummary {
            id,
            members: vec![],
            hosts,
            centroid,
        };
        let fig = |clusters: Vec<ClusterSummary>| Fig5 {
            points: vec![],
            clusters,
            hosts: 1_200,
        };
        let paper = fig(vec![
            cluster(0, 500, [0.0, 0.0, 0.1, 0.9, 0.0]),
            cluster(1, 300, [0.1, 0.7, 0.2, 0.0, 0.0]),
            cluster(2, 200, [0.0, 0.1, 0.8, 0.1, 0.0]),
        ]);
        assert!(passes(&check_fig5(&paper, &paper)));
        let one = fig(vec![cluster(0, 500, [0.0, 0.0, 0.1, 0.9, 0.0])]);
        assert!(!passes(&check_fig5(&one, &paper)));
        assert!(!passes(&check_fig5(&paper, &one)));
    }

    #[test]
    fn bytelimit_checks_want_both_groups_a_small_share_and_iw48() {
        let mut limits = ByteLimits {
            classified: 1_000,
            budgets: [(4096, 10), (1536, 2)].into(),
            iw48_static: 3,
        };
        assert!(passes(&check_bytelimit(&limits)));
        limits.budgets.remove(&1536);
        assert!(!passes(&check_bytelimit(&limits)));
        assert!(!passes(&check_bytelimit(&ByteLimits::default())));
    }

    #[test]
    fn confusion_checks_fail_on_any_error_cell() {
        let clean = Confusion {
            exact: 10,
            inconclusive: 5,
            ..Confusion::default()
        };
        assert!(passes(&check_confusion(&clean, &clean)));
        let over = Confusion {
            overestimate: 1,
            ..clean
        };
        assert!(!passes(&check_confusion(&over, &clean)));
        let missed = Confusion { missed: 1, ..clean };
        assert!(!passes(&check_confusion(&clean, &missed)));
    }

    #[test]
    fn ablation_checks_fail_when_the_choice_makes_no_difference() {
        let cells = |exact, underestimate| Confusion {
            exact,
            underestimate,
            ..Confusion::default()
        };
        // The small-scale measurement: 55.2 vs 21.1 %, 6.15 → 0.80 %
        // wrong, 0 vs 18 wrong TLS verdicts.
        let (one, three) = (cells(1_000, 66), cells(1_000, 8));
        let (verified, unverified) = (cells(500, 0), cells(500, 18));
        let measured = check_ablations((55.2, 21.1), (&one, &three), (&verified, &unverified));
        assert!(passes(&measured), "{}", render_checks(&measured));
        let defects = [
            check_ablations((55.2, 55.2), (&one, &three), (&verified, &unverified)),
            check_ablations((55.2, 21.1), (&one, &one), (&verified, &unverified)),
            check_ablations((55.2, 21.1), (&one, &three), (&unverified, &unverified)),
        ];
        for (i, checks) in defects.iter().enumerate() {
            let failed: Vec<usize> = (0..3).filter(|k| !checks[*k].pass).collect();
            assert_eq!(failed, [i], "{}", render_checks(checks));
        }
    }

    #[test]
    fn render_marks_pass_fail() {
        let checks = vec![
            Check::new("a", true, "x".into()),
            Check::new("b", false, "y".into()),
        ];
        let r = render_checks(&checks);
        assert!(r.contains("[PASS] a"));
        assert!(r.contains("[FAIL] b"));
    }
}
