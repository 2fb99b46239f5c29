//! Data series and plain-text renderings for the paper's figures.

use crate::ccdf::Ccdf;
use crate::dbscan::{dbscan, summarize, AsPoint, ClusterSummary};
use crate::histogram::IwHistogram;
use crate::sampling::BarStats;
use iw_core::HostResult;
use iw_internet::Population;
use std::collections::BTreeMap;

/// Figure 2: CCDF of certificate chain lengths, annotated with the byte
/// thresholds `IW · MSS` the paper overlays.
pub struct Fig2 {
    /// The CCDF.
    pub ccdf: Ccdf,
}

/// The threshold series the paper overlays: (label, bytes).
pub fn fig2_thresholds() -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for iw in [1u32, 2, 4, 10] {
        out.push((format!("MSS 64, IW {iw}"), 64 * iw));
    }
    for iw in [1u32, 2, 4] {
        out.push((format!("MSS 1336, IW {iw}"), 1336 * iw));
    }
    out
}

impl Fig2 {
    /// Build from chain-length samples.
    pub fn new(samples: Vec<u32>) -> Fig2 {
        Fig2 {
            ccdf: Ccdf::new(samples),
        }
    }

    /// Render: stats line + coverage at each threshold.
    pub fn render(&self) -> String {
        let mut out = format!(
            "certificate chains: n={} mean={:.0}B min={}B max={}B\n",
            self.ccdf.len(),
            self.ccdf.mean(),
            self.ccdf.min(),
            self.ccdf.max()
        );
        out.push_str("threshold              bytes   P(chain >= bytes)\n");
        for (label, bytes) in fig2_thresholds() {
            out.push_str(&format!(
                "{label:<22} {bytes:>5}   {:.3}\n",
                self.ccdf.at(bytes)
            ));
        }
        out
    }
}

/// Render an IW histogram as a labelled bar chart (Figs. 3 & 4).
pub fn render_iw_bars(label: &str, hist: &IwHistogram, threshold: f64, log_counts: bool) -> String {
    let mut out = format!("{label} (n={})\n", hist.total());
    for (iw, frac) in hist.dominant(threshold) {
        let count = hist.count(iw);
        let bar_len = if log_counts {
            // Fig. 4 uses a log scale: bar length ∝ log10(count).
            ((count.max(1) as f64).log10() * 8.0) as usize
        } else {
            (frac * 100.0) as usize
        };
        let bar: String = std::iter::repeat_n('#', bar_len.min(70)).collect();
        out.push_str(&format!(
            "IW{iw:<3} {:>6.2}% {count:>9}  {bar}\n",
            frac * 100.0
        ));
    }
    out
}

/// Render the Fig. 3 sampling panel: full vs subsample fractions plus the
/// 30×1 % mean/q99 bars.
pub fn render_sampling_panel(
    full: &IwHistogram,
    subsamples: &[(String, IwHistogram)],
    one_percent_stats: &[BarStats],
) -> String {
    let mut iws: Vec<u32> = full.dominant(0.001).iter().map(|(iw, _)| *iw).collect();
    iws.sort_unstable();
    let mut out = String::from("IW    full%");
    for (label, _) in subsamples {
        out.push_str(&format!(" {label:>6}"));
    }
    out.push_str("   1%mean  1%q99\n");
    for iw in iws {
        out.push_str(&format!("{iw:<5} {:>5.2}", full.fraction(iw) * 100.0));
        for (_, h) in subsamples {
            out.push_str(&format!(" {:>6.2}", h.fraction(iw) * 100.0));
        }
        let stats = one_percent_stats.iter().find(|b| b.iw == iw);
        match stats {
            Some(b) => out.push_str(&format!(
                "   {:>6.2} {:>6.2}\n",
                b.mean * 100.0,
                b.q99 * 100.0
            )),
            None => out.push_str("        -      -\n"),
        }
    }
    out
}

/// Figure 5: DBSCAN over the per-AS IW feature vectors (IW 1/2/4/10/
/// other) of every AS with at least three estimates.
pub struct Fig5 {
    /// One point per AS.
    pub points: Vec<AsPoint>,
    /// Clusters, largest first.
    pub clusters: Vec<ClusterSummary>,
    /// Hosts with an estimate in a known AS: the coverage denominator.
    pub hosts: u64,
}

impl Fig5 {
    /// Cluster the estimates in `results` by the AS `population` places
    /// them in.
    pub fn new(results: &[HostResult], population: &Population) -> Fig5 {
        let mut per_as: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        let mut hosts = 0u64;
        for r in results {
            if let (Some(iw), Some(meta)) = (r.iw_estimate(), population.meta(r.ip)) {
                *per_as.entry(meta.asn).or_default().entry(iw).or_insert(0) += 1;
                hosts += 1;
            }
        }
        let points: Vec<AsPoint> = per_as
            .into_iter()
            .filter(|(_, counts)| counts.values().sum::<u64>() >= 3)
            .map(|(asn, counts)| AsPoint::from_counts(asn, &counts.into_iter().collect::<Vec<_>>()))
            .collect();
        let clusters = summarize(&points, &dbscan(&points, 0.12, 5));
        Fig5 {
            points,
            clusters,
            hosts,
        }
    }

    /// Share of `hosts` inside a cluster.
    pub fn coverage(&self) -> f64 {
        self.clusters.iter().map(|c| c.hosts).sum::<u64>() as f64 / self.hosts.max(1) as f64
    }

    /// Each cluster's leading feature ("IW1", "IW2", "IW4", "IW10" or
    /// "other"), largest cluster first.
    pub fn leads(&self) -> Vec<&'static str> {
        const FEATURES: [&str; 5] = ["IW1", "IW2", "IW4", "IW10", "other"];
        self.clusters
            .iter()
            .map(|c| {
                let lead = (0..5).max_by(|&a, &b| c.centroid[a].total_cmp(&c.centroid[b]));
                FEATURES[lead.unwrap_or(4)]
            })
            .collect()
    }

    /// Render the clusters and the paper's named representatives.
    pub fn render(&self, population: &Population) -> String {
        let mut out = String::from("DBSCAN clusters (features: IW1/IW2/IW4/IW10/other)\n");
        let clustered: u64 = self.clusters.iter().map(|c| c.hosts).sum();
        out.push_str(&format!(
            "clustered hosts: {clustered} of {} ({:.0}%)\n",
            self.hosts,
            self.coverage() * 100.0
        ));
        let bars = |f: &[f64; 5]| {
            format!(
                "[{:.2} {:.2} {:.2} {:.2} {:.2}]",
                f[0], f[1], f[2], f[3], f[4]
            )
        };
        for c in &self.clusters {
            out.push_str(&format!(
                "cluster {}: {} ASes, {} hosts, centroid {}\n",
                c.id,
                c.members.len(),
                c.hosts,
                bars(&c.centroid)
            ));
        }
        out.push_str("\nrepresentative ASes (IW1/IW2/IW4/IW10/other):\n");
        // Amazon, Comcast, GoDaddy, backbone, Cloudflare, Vodafone IT,
        // Akamai, Korea Telecom: the ASes the paper names.
        for asn in [16509u32, 7922, 26496, 9121, 13335, 30722, 20940, 4766] {
            let Some(p) = self.points.iter().find(|p| p.asn == asn) else {
                continue;
            };
            let name = population
                .registry()
                .by_asn(asn)
                .map_or_else(|| format!("AS{asn}"), |a| a.name.clone());
            out.push_str(&format!("{name:<22} {}\n", bars(&p.features)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_paper_legend() {
        let t = fig2_thresholds();
        assert_eq!(t.len(), 7);
        assert!(t.contains(&("MSS 64, IW 10".to_string(), 640)));
        assert!(t.contains(&("MSS 1336, IW 4".to_string(), 5344)));
    }

    #[test]
    fn fig2_render_contains_stats() {
        let f = Fig2::new(vec![36, 640, 2186, 65000]);
        let r = f.render();
        assert!(r.contains("n=4"));
        assert!(r.contains("MSS 64, IW 1"));
    }

    #[test]
    fn bars_render() {
        let h = IwHistogram::from_estimates([10, 10, 10, 2]);
        let linear = render_iw_bars("HTTP", &h, 0.001, false);
        assert!(linear.contains("IW10"));
        assert!(linear.contains("75.00%"));
        let log = render_iw_bars("Alexa", &h, 0.001, true);
        assert!(log.contains("IW2"));
    }

    #[test]
    fn sampling_panel_renders_all_columns() {
        let full = IwHistogram::from_estimates([1, 2, 10, 10, 10, 10]);
        let sub = vec![("50%".to_string(), IwHistogram::from_estimates([10, 2]))];
        let stats = vec![BarStats {
            iw: 10,
            mean: 0.66,
            q99: 0.7,
            min: 0.6,
            max: 0.7,
        }];
        let panel = render_sampling_panel(&full, &sub, &stats);
        assert!(panel.contains("full%"));
        assert!(panel.contains("50%"));
        assert!(panel.contains("66.00"));
    }
}
