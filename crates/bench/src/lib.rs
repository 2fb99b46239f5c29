//! # iw-bench — the experiment harness
//!
//! [`Reproduction`] runs every scan the paper's tables, figures and
//! methodology ablations read, once each, and [`Reproduction::checks`]
//! holds them against the paper's shapes. `exp_all` prints and writes
//! that report and `tests/pipeline.rs` asserts it; `tests/identity.rs`
//! is the thread-count byte-identity gate (at smoke unless `IW_SCALE`
//! is set). A result is a check or it goes: the testbed studies live in
//! the test suites.
//!
//! Scale is controlled by the `IW_SCALE` environment variable: `smoke`,
//! `small` (CI/tests, the default when unset), `medium`, or `large`
//! (closest to the paper's relative numbers; takes minutes). Any other
//! value is an error. `smoke` is a throughput population: the shape
//! checks are specified at `small` and above.
#![forbid(unsafe_code)]

use iw_analysis::compare::{self, Check};
use iw_analysis::figures::{Fig2, Fig5};
use iw_analysis::histogram::IwHistogram;
use iw_analysis::tables::{ByteLimits, Table1, Table2, Table3};
use iw_core::{
    Confusion, Protocol, RunDisposition, ScanConfig, ScanOutput, ScanRunner, TargetSpec, Topology,
};
use iw_internet::{alexa, certs, Population, PopulationConfig};
use std::sync::Arc;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~200 hosts in a 2¹³ space — sub-second even in debug builds
    /// (the CI bench-smoke population).
    Smoke,
    /// ~2.5 k hosts in a 2¹⁷ space — seconds.
    Small,
    /// ~12 k hosts in a 2¹⁹ space — tens of seconds.
    Medium,
    /// ~60 k hosts in a 2²² space — minutes.
    Large,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(name: &str) -> Result<Scale, String> {
        match name {
            "smoke" => Ok(Scale::Smoke),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            _ => Err(format!(
                "IW_SCALE={name:?} is not a scale: use smoke, small, medium or large"
            )),
        }
    }
}

impl Scale {
    /// Read from `IW_SCALE` (small when unset); exit 2 on any other name.
    pub fn from_env() -> Scale {
        let Some(name) = std::env::var_os("IW_SCALE") else {
            return Scale::Small;
        };
        name.to_string_lossy().parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// `(space_size, target_responsive)`.
    pub fn dimensions(self) -> (u32, u32) {
        match self {
            Scale::Smoke => (1 << 13, 200),
            Scale::Small => (1 << 17, 2_500),
            Scale::Medium => (1 << 19, 12_000),
            Scale::Large => (1 << 22, 60_000),
        }
    }

    /// Alexa-list size for this scale.
    pub fn alexa_n(self) -> usize {
        match self {
            Scale::Smoke => 50,
            Scale::Small => 400,
            Scale::Medium => 2_000,
            Scale::Large => 10_000,
        }
    }
}

/// The default experiment seed (fixed: experiments must be reproducible).
pub const SEED: u64 = 0x1307_2017;

/// Build the standard (lossless) population at a scale.
pub fn standard_population(scale: Scale) -> Arc<Population> {
    lossy_population(scale, 0.0)
}

/// The standard population with calibrated link loss scaled by
/// `loss_scale` (validation studies).
pub fn lossy_population(scale: Scale, loss_scale: f64) -> Arc<Population> {
    let (space_size, target_responsive) = scale.dimensions();
    Arc::new(Population::new(PopulationConfig {
        seed: SEED,
        space_size,
        target_responsive,
        loss_scale,
    }))
}

/// Threads to shard scans over.
pub fn threads() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(4)
        .min(16)
}

/// The standard bench topology: all cores (results are byte-identical
/// at every thread count).
pub fn bench_topology() -> Topology {
    Topology::threads(threads())
}

/// Scan with study parameters, after `edit` has changed the
/// configuration. A run that does not complete feeds no check: it fails
/// here with the invariants it violated named, the truth tally's
/// included.
fn study_scan(
    population: &Arc<Population>,
    protocol: Protocol,
    edit: impl FnOnce(&mut ScanConfig),
) -> ScanOutput {
    let mut config = ScanConfig::study(protocol, population.space_size(), SEED);
    edit(&mut config);
    let out = ScanRunner::new(population)
        .config(config)
        .topology(bench_topology())
        .run();
    assert!(
        out.disposition == RunDisposition::Completed,
        "{protocol:?} scan ended {:?}, violating {:?}",
        out.disposition,
        out.telemetry.violations()
    );
    out
}

/// Run a full-space scan of one protocol with study parameters.
pub fn full_scan(population: &Arc<Population>, protocol: Protocol) -> ScanOutput {
    study_scan(population, protocol, |_| {})
}

/// Scan the synthetic Alexa list (domains known → Host header + SNI).
pub fn alexa_scan(population: &Arc<Population>, protocol: Protocol, n: usize) -> ScanOutput {
    let list = alexa::build(population, n, 1);
    let targets = list.into_iter().map(|e| (e.ip, Some(e.domain))).collect();
    study_scan(population, protocol, |c| {
        c.targets = TargetSpec::List(targets)
    })
}

/// Scan `fraction` of the address space (salt 5) with study parameters,
/// after `ablate` has changed the configuration.
fn sample_scan(
    population: &Arc<Population>,
    protocol: Protocol,
    fraction: f64,
    ablate: impl FnOnce(&mut ScanConfig),
) -> ScanOutput {
    study_scan(population, protocol, |c| {
        c.sample_fraction = fraction;
        c.sample_salt = 5;
        ablate(c);
    })
}

/// Share of the address space the ablation scans sample.
pub const ABLATION_SAMPLE: f64 = 0.1;

/// The methodology's three starred choices (DESIGN §5), each switched
/// off on one [`ABLATION_SAMPLE`] of the address space.
pub struct Ablations {
    /// HTTP success rate (%) when only MSS 1336 is announced.
    pub mss1336_success: f64,
    /// HTTP at MSS 64 on the population with 1.5× calibrated loss, one
    /// probe per MSS.
    pub one_probe: Confusion,
    /// The same with the study's three probes.
    pub three_probes: Confusion,
    /// TLS without the 2·MSS exhaustion check.
    pub unverified_tls: Confusion,
}

impl Ablations {
    /// Run the four ablation scans; `population` is the standard one at
    /// `scale`.
    fn run(scale: Scale, population: &Arc<Population>) -> Ablations {
        let lossy = lossy_population(scale, 1.5);
        let voted = |probes| {
            let out = sample_scan(&lossy, Protocol::Http, ABLATION_SAMPLE, |c| {
                c.mss_list = vec![64];
                c.probes_per_mss = probes;
            });
            out.telemetry.truth()
        };
        let unverified = sample_scan(population, Protocol::Tls, ABLATION_SAMPLE, |c| {
            c.verify_exhaustion = false;
        });
        Ablations {
            mss1336_success: sample_scan(population, Protocol::Http, ABLATION_SAMPLE, |c| {
                c.mss_list = vec![1336];
            })
            .summary
            .rates()
            .0,
            one_probe: voted(1),
            three_probes: voted(3),
            unverified_tls: unverified.telemetry.truth(),
        }
    }
}

/// Every scan the paper's shape checks read, each run once at one scale.
pub struct Reproduction {
    /// The scale everything ran at.
    pub scale: Scale,
    /// The standard population at that scale.
    pub population: Arc<Population>,
    /// Full-space HTTP scan (Tables 1–3, Figs. 3 and 5, §4.2).
    pub http: ScanOutput,
    /// Full-space TLS scan.
    pub tls: ScanOutput,
    /// The synthetic Alexa list over HTTP (Fig. 4).
    pub alexa_http: ScanOutput,
    /// The Alexa list over TLS.
    pub alexa_tls: ScanOutput,
    /// HTTP over a 20 % sample of the address space (§4.1).
    pub space_sample: ScanOutput,
    /// The certificate-chain sample behind Fig. 2.
    pub censys: Fig2,
    /// The methodology ablations; the MSS one compares against `http`,
    /// the verification one against `tls`'s truth tally.
    pub ablations: Ablations,
}

impl Reproduction {
    /// Run every scan at `scale`.
    pub fn run(scale: Scale) -> Reproduction {
        let population = standard_population(scale);
        let http = full_scan(&population, Protocol::Http);
        let tls = full_scan(&population, Protocol::Tls);
        Reproduction {
            scale,
            alexa_http: alexa_scan(&population, Protocol::Http, scale.alexa_n()),
            alexa_tls: alexa_scan(&population, Protocol::Tls, scale.alexa_n()),
            space_sample: sample_scan(&population, Protocol::Http, 0.2, |_| {}),
            ablations: Ablations::run(scale, &population),
            censys: Fig2::new(certs::censys_sample(SEED, 200_000)),
            http,
            tls,
            population,
        }
    }

    /// Share of the HTTP results each F3 sampling draw takes: the
    /// paper's 1 % needs a population of its size, so smaller scales
    /// sample more.
    pub fn sample_fraction(&self) -> f64 {
        match self.scale {
            Scale::Smoke | Scale::Small => 0.10,
            Scale::Medium => 0.05,
            Scale::Large => 0.01,
        }
    }

    /// Every shape check, section by section (the name's prefix up to
    /// the colon names the section).
    pub fn checks(&self) -> Vec<Check> {
        let (http, tls) = (&self.http.results, &self.tls.results);
        let pop = &self.population;
        let h_http = IwHistogram::from_results(http);
        let h_tls = IwHistogram::from_results(tls);
        let mut out = compare::check_table1(&Table1::new(&[
            ("HTTP", &self.http.summary),
            ("TLS", &self.tls.summary),
        ]));
        out.extend(compare::check_table2(&Table2::new(http), &Table2::new(tls)));
        out.extend(compare::check_table3(
            &Table3::new(http, pop),
            &Table3::new(tls, pop),
        ));
        out.extend(compare::check_fig2(&self.censys));
        out.extend(compare::check_fig3(&h_http, &h_tls));
        out.extend(compare::check_sampling(http, self.sample_fraction()));
        out.extend(compare::check_space_sample(
            &h_http,
            &IwHistogram::from_results(&self.space_sample.results),
        ));
        out.extend(compare::check_fig4(
            &IwHistogram::from_results(&self.alexa_http.results),
            &IwHistogram::from_results(&self.alexa_tls.results),
            &h_http,
        ));
        out.extend(compare::check_fig5(
            &Fig5::new(http, pop),
            &Fig5::new(tls, pop),
        ));
        out.extend(compare::check_bytelimit(&ByteLimits::new(http)));
        let tls_truth = self.tls.telemetry.truth();
        out.extend(compare::check_confusion(
            &self.http.telemetry.truth(),
            &tls_truth,
        ));
        let a = &self.ablations;
        out.extend(compare::check_ablations(
            (self.http.summary.rates().0, a.mss1336_success),
            (&a.one_probe, &a.three_probes),
            (&tls_truth, &a.unverified_tls),
        ));
        out
    }
}

/// Pretty-print a paper-vs-measured header for an experiment.
pub fn banner(title: &str) {
    let rule = "==============================================================";
    iw_core::telemetry::print_line(format_args!("{rule}\n{title}\n{rule}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_dimensions_are_ordered() {
        let (x, xh) = Scale::Smoke.dimensions();
        let (s, sh) = Scale::Small.dimensions();
        let (m, mh) = Scale::Medium.dimensions();
        let (l, lh) = Scale::Large.dimensions();
        assert!(x < s && s < m && m < l);
        assert!(xh < sh && sh < mh && mh < lh);
    }

    #[test]
    fn scale_names_parse_strictly() {
        assert_eq!("smoke".parse(), Ok(Scale::Smoke));
        assert_eq!("small".parse(), Ok(Scale::Small));
        assert_eq!("medium".parse(), Ok(Scale::Medium));
        assert_eq!("large".parse(), Ok(Scale::Large));
        for typo in ["meduim", "Medium", "", " small"] {
            let err = typo.parse::<Scale>().expect_err(typo);
            assert!(err.contains("smoke, small, medium or large"), "{err}");
        }
    }

    #[test]
    fn standard_population_shape() {
        let p = standard_population(Scale::Small);
        assert_eq!(p.space_size(), 1 << 17);
        assert!(p.registry().ases().len() > 150);
    }

    #[test]
    fn threads_positive() {
        assert!(threads() >= 1);
    }
}
