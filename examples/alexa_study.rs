//! The popularity study (Fig. 4): how the IW landscape changes when you
//! scan *popular* sites instead of the whole address space.
//!
//! ```sh
//! cargo run --release -p iw-bench --example alexa_study
//! ```
//!
//! Also demonstrates the one thing the top-list scan has that the
//! full-space scan lacks: prior knowledge. Each entry carries a domain,
//! which becomes the Host header (unlocking virtual hosts) and the SNI
//! name (unlocking SNI-requiring TLS servers).

use iw_analysis::figures::render_iw_bars;
use iw_analysis::histogram::IwHistogram;
use iw_core::{Protocol, ScanConfig, ScanRunner, TargetSpec, Topology};
use iw_internet::{alexa, Population, PopulationConfig};
use std::sync::Arc;

fn main() {
    let population = Arc::new(Population::new(PopulationConfig {
        seed: 7,
        space_size: 1 << 17,
        target_responsive: 2_500,
        loss_scale: 0.0,
    }));

    // Build the synthetic top list.
    let list = alexa::build(&population, 400, 1);
    println!("top of the list:");
    for e in list.iter().take(5) {
        println!(
            "  #{:<3} {} @ {}",
            e.rank,
            e.domain,
            iw_wire::ipv4::Ipv4Addr::from_u32(e.ip)
        );
    }

    // Scan it (domains known!) and the full space (no prior knowledge).
    let targets: Vec<(u32, Option<String>)> =
        list.into_iter().map(|e| (e.ip, Some(e.domain))).collect();
    let mut cfg = ScanConfig::study(Protocol::Http, population.space_size(), 7);
    cfg.targets = TargetSpec::List(targets);
    let alexa_scan = ScanRunner::new(&population).config(cfg).run();

    let full_cfg = ScanConfig::study(Protocol::Http, population.space_size(), 7);
    let full_scan = ScanRunner::new(&population)
        .config(full_cfg)
        .topology(Topology::threads(4))
        .run();

    let alexa_hist = IwHistogram::from_results(&alexa_scan.results);
    let full_hist = IwHistogram::from_results(&full_scan.results);

    print!(
        "{}",
        render_iw_bars("Alexa top list", &alexa_hist, 0.0, true)
    );
    println!();
    print!(
        "{}",
        render_iw_bars("entire space", &full_hist, 0.001, false)
    );

    let (alexa_success, ..) = alexa_scan.summary.rates();
    let (full_success, ..) = full_scan.summary.rates();
    println!("\nsuccess rate: top list {alexa_success:.1}% vs full space {full_success:.1}%");
    println!(
        "IW10 share:   top list {:.1}% vs full space {:.1}%",
        alexa_hist.fraction(10) * 100.0,
        full_hist.fraction(10) * 100.0
    );
    println!("\npopular infrastructure chases performance: IW10 everywhere (paper §4.1).");
}
