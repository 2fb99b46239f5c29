//! The paper is the acceptance test: one small-scale [`Reproduction`]
//! (every scan once), and one test per section of the paper asserting
//! that section's shape checks.

use iw_analysis::classify::{Classifier, Service};
use iw_analysis::compare::render_checks;
use iw_analysis::figures::Fig5;
use iw_analysis::histogram::IwHistogram;
use iw_analysis::tables::Table2;
use iw_bench::{Reproduction, Scale};
use std::sync::OnceLock;

fn reproduction() -> &'static Reproduction {
    static RUN: OnceLock<Reproduction> = OnceLock::new();
    RUN.get_or_init(|| Reproduction::run(Scale::Small))
}

/// Assert every check of `section` passes, and that it has at least one.
fn assert_section(section: &str) {
    let checks: Vec<_> = reproduction()
        .checks()
        .into_iter()
        .filter(|c| c.name.split(':').next() == Some(section))
        .collect();
    assert!(!checks.is_empty(), "no checks in section {section}");
    assert!(checks.iter().all(|c| c.pass), "{}", render_checks(&checks));
}

/// One test per section, each asserting its checks and then `$extra`;
/// `SECTIONS` lists the sections the tests cover.
macro_rules! sections {
    ($($test:ident: $section:literal $extra:block)*) => {
        const SECTIONS: &[&str] = &[$($section),*];
        $(
            #[test]
            fn $test() {
                assert_section($section);
                $extra
            }
        )*
    };
}

sections! {
    table1_scan_overview: "T1" {}
    table2_rows_reflect_configured_page_model: "T2" {
        let t2 = Table2::new(&reproduction().http.results);
        assert!(t2.total > 300, "few-data set size {}", t2.total);
    }
    table3_service_signatures: "T3" {}
    fig2_certificate_chains: "F2" {}
    fig3_iw_distribution: "F3" {}
    subsampling_study_on_real_scan: "F3 sampling" {}
    // §4.1's experiment samples the address space, not the result set.
    one_percent_of_space_scan_matches_full_distribution: "F3 space sample" {
        let sample = IwHistogram::from_results(&reproduction().space_sample.results);
        assert!(sample.total() > 150, "sample produced {}", sample.total());
    }
    fig4_alexa_top_list: "F4" {}
    dbscan_separates_network_families_on_scan_data: "F5" {
        let r = reproduction();
        let fig = Fig5::new(&r.http.results, &r.population);
        assert!(fig.points.len() > 40, "{} ASes with data", fig.points.len());
    }
    byte_limited_hosts_are_found: "S42" {}
    verdicts_match_ground_truth: "S35" {}
    starred_choices_earn_their_keep: "ABL" {}
}

#[test]
fn every_check_belongs_to_a_tested_section() {
    for c in reproduction().checks() {
        let section = c.name.split(':').next().unwrap_or_default();
        assert!(SECTIONS.contains(&section), "untested section: {}", c.name);
    }
}

#[test]
fn classifier_never_reads_ground_truth_yet_matches_it() {
    let pop = &reproduction().population;
    let classifier = Classifier::new(pop);
    let mut disagreements = 0u32;
    let mut checked = 0u32;
    for ip in 0..pop.space_size() {
        let Some(meta) = pop.meta(ip) else { continue };
        checked += 1;
        let predicted = classifier.classify(ip, meta.rdns.as_deref());
        // Spot-check the exemplars only (fillers legitimately map to Other).
        let expected = match meta.asn {
            20940 => Some(Service::Akamai),
            16509 => Some(Service::Ec2),
            13335 => Some(Service::Cloudflare),
            8075 => Some(Service::Azure),
            _ => None,
        };
        if let Some(expected) = expected {
            if predicted != expected {
                disagreements += 1;
            }
        }
    }
    assert!(checked > 1000);
    assert_eq!(disagreements, 0, "published ranges must classify exactly");
}
