//! Scan a synthetic Internet and reproduce the study's headline view.
//!
//! ```sh
//! cargo run --release -p iw-bench --example internet_scan
//! ```
//!
//! Builds a scaled IPv4 world (~2.5 k responsive hosts across cloud,
//! CDN, hosting, access-ISP, university and legacy networks), runs the
//! full-space HTTP and TLS scans sharded over all cores, and prints the
//! Table-1 overview plus both IW distributions.

use iw_analysis::figures::render_iw_bars;
use iw_analysis::histogram::IwHistogram;
use iw_analysis::tables::Table1;
use iw_core::{Protocol, ScanConfig, ScanRunner, Topology};
use iw_internet::{Population, PopulationConfig};
use std::sync::Arc;

fn main() {
    let population = Arc::new(Population::new(PopulationConfig {
        seed: 42,
        space_size: 1 << 17,
        target_responsive: 2_500,
        loss_scale: 0.0,
    }));
    println!(
        "world: {} addresses, {} ASes, ~{} responsive hosts",
        population.space_size(),
        population.registry().ases().len(),
        population.config().target_responsive
    );

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get() as u32);
    let scan = |protocol| {
        let config = ScanConfig::study(protocol, population.space_size(), 42);
        ScanRunner::new(&population)
            .config(config)
            .topology(Topology::threads(threads))
            .run()
    };

    let http = scan(Protocol::Http);
    let tls = scan(Protocol::Tls);

    println!(
        "\n{}",
        Table1::new(&[("HTTP", &http.summary), ("TLS", &tls.summary)]).render()
    );
    print!(
        "{}",
        render_iw_bars(
            "HTTP IW distribution",
            &IwHistogram::from_results(&http.results),
            0.001,
            false
        )
    );
    println!();
    print!(
        "{}",
        render_iw_bars(
            "TLS IW distribution",
            &IwHistogram::from_results(&tls.results),
            0.001,
            false
        )
    );
    println!(
        "\nscan stats: {} packets sent, {} received, {} simulated events",
        http.sim_stats.scanner_tx + tls.sim_stats.scanner_tx,
        http.sim_stats.scanner_rx + tls.sim_stats.scanner_rx,
        http.sim_stats.events + tls.sim_stats.events,
    );
}
