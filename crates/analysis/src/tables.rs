//! Builders and plain-text renderers for the paper's three tables.

use crate::classify::{Classifier, Service};
use crate::histogram::IwHistogram;
use iw_core::{HostResult, HostVerdict, MssVerdict, ScanSummary};
use iw_internet::population::Population;
// Keyed by `Service` (Ord): deterministic iteration keeps the rendered
// tables byte-stable (this crate's clippy.toml bans hash containers).
use std::collections::BTreeMap;

/// Table 1: scan data-set overview.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows: `(label, reachable, success %, few-data %, error %)`.
    pub rows: Vec<(String, u64, f64, f64, f64)>,
}

impl Table1 {
    /// Build from per-protocol summaries.
    pub fn new(rows: &[(&str, &ScanSummary)]) -> Table1 {
        Table1 {
            rows: rows
                .iter()
                .map(|(label, s)| {
                    let (su, fd, er) = s.rates();
                    (label.to_string(), s.reachable, su, fd, er)
                })
                .collect(),
        }
    }

    /// Render like the paper's Table 1.
    pub fn render(&self) -> String {
        let mut out = String::from("Scan   Reachable    Success   Few Data   Error\n");
        for (label, reach, su, fd, er) in &self.rows {
            out.push_str(&format!(
                "{label:<6} {reach:>9}   {su:>6.1}%   {fd:>7.1}%   {er:>4.1}%\n"
            ));
        }
        out
    }
}

/// Table 2: lower-bound IW distribution of few-data hosts.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Fraction (of the few-data set) with zero bytes.
    pub no_data: f64,
    /// Fractions for lower bounds 1..=10.
    pub iw: [f64; 10],
    /// Fraction with lower bound above 10.
    pub above_10: f64,
    /// Size of the few-data set.
    pub total: u64,
}

impl Table2 {
    /// Build from one protocol's results.
    pub fn new(results: &[HostResult]) -> Table2 {
        let mut counts = [0u64; 12]; // 0 = NoData, 1..=10, 11 = >10
        let mut total = 0u64;
        for r in results {
            if let Some(MssVerdict::FewData(lb)) = r.primary_verdict() {
                total += 1;
                let idx = match lb {
                    0 => 0,
                    1..=10 => lb as usize,
                    _ => 11,
                };
                counts[idx] += 1;
            }
        }
        let frac = |c: u64| c as f64 / total.max(1) as f64 * 100.0;
        let mut iw = [0.0; 10];
        for (i, slot) in iw.iter_mut().enumerate() {
            *slot = frac(counts[i + 1]);
        }
        Table2 {
            no_data: frac(counts[0]),
            iw,
            above_10: frac(counts[11]),
            total,
        }
    }

    /// Render like the paper's Table 2.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!("{label:<5} NoData ");
        for i in 1..=10 {
            out.push_str(&format!("IW{i:<4}"));
        }
        out.push('\n');
        out.push_str(&format!("{:<5} {:>5.1}% ", "", self.no_data));
        for v in self.iw {
            out.push_str(&format!("{v:>4.1}% "));
        }
        out.push('\n');
        out
    }
}

/// Table 3: per-service IW distribution.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows: `(service, [IW1 %, IW2 %, IW4 %, IW10 %], hosts)`.
    pub rows: Vec<(Service, [f64; 4], u64)>,
}

/// The services reported in the paper's Table 3, in row order.
pub const TABLE3_SERVICES: [Service; 5] = [
    Service::Akamai,
    Service::Ec2,
    Service::Cloudflare,
    Service::Azure,
    Service::AccessNetwork,
];

impl Table3 {
    /// Build from one protocol's results using public classification
    /// signals (ranges + reverse DNS looked up from the population).
    pub fn new(results: &[HostResult], population: &Population) -> Table3 {
        let classifier = Classifier::new(population);
        let mut hists: BTreeMap<Service, IwHistogram> = BTreeMap::new();
        for r in results {
            let Some(iw) = r.iw_estimate() else { continue };
            let rdns = population.meta(r.ip).and_then(|m| m.rdns);
            let service = classifier.classify(r.ip, rdns.as_deref());
            hists.entry(service).or_default().add(iw);
        }
        let rows = TABLE3_SERVICES
            .iter()
            .map(|svc| {
                let h = hists.remove(svc).unwrap_or_default();
                let pct = |iw: u32| h.fraction(iw) * 100.0;
                (*svc, [pct(1), pct(2), pct(4), pct(10)], h.total())
            })
            .collect();
        Table3 { rows }
    }

    /// Render like the paper's Table 3 (one protocol's half).
    pub fn render(&self) -> String {
        let mut out = String::from("Service        IW1     IW2     IW4     IW10    (hosts)\n");
        for (svc, pct, hosts) in &self.rows {
            let name = match svc {
                Service::Akamai => "Akamai",
                Service::Ec2 => "EC2",
                Service::Cloudflare => "Cloudflare",
                Service::Azure => "Azure",
                Service::AccessNetwork => "Access NW",
                Service::Other => "Other",
            };
            if *hosts == 0 {
                out.push_str(&format!(
                    "{name:<12}     –       –       –       –      (0)\n"
                ));
            } else {
                out.push_str(&format!(
                    "{name:<12} {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}   ({hosts})\n",
                    pct[0], pct[1], pct[2], pct[3]
                ));
            }
        }
        out
    }

    /// Row accessor by service.
    pub fn row(&self, svc: Service) -> Option<&(Service, [f64; 4], u64)> {
        self.rows.iter().find(|(s, _, _)| *s == svc)
    }
}

/// §4.2: the hosts whose two MSS runs show how their IW is configured.
#[derive(Debug, Clone, Default)]
pub struct ByteLimits {
    /// Hosts with a segment- or byte-based verdict.
    pub classified: u64,
    /// Byte-configured hosts per byte budget.
    pub budgets: BTreeMap<u32, u64>,
    /// Segment-configured hosts at IW48 (GoDaddy's static fleet).
    pub iw48_static: u64,
}

impl ByteLimits {
    /// Count the cross-MSS verdicts in `results`.
    pub fn new(results: &[HostResult]) -> ByteLimits {
        let mut out = ByteLimits::default();
        for r in results {
            match r.host_verdict {
                HostVerdict::ByteBased(bytes) => *out.budgets.entry(bytes).or_insert(0) += 1,
                HostVerdict::SegmentBased(iw) => out.iw48_static += u64::from(iw == 48),
                _ => continue,
            }
            out.classified += 1;
        }
        out
    }

    /// Byte-configured hosts with `bytes` of budget.
    pub fn at(&self, bytes: u32) -> u64 {
        self.budgets.get(&bytes).copied().unwrap_or(0)
    }

    /// Byte-configured share of the classified hosts, in percent.
    pub fn byte_share(&self) -> f64 {
        self.budgets.values().sum::<u64>() as f64 / self.classified.max(1) as f64 * 100.0
    }

    /// Render the breakdown.
    pub fn render(&self) -> String {
        let bytes: u64 = self.budgets.values().sum();
        let mut out = format!(
            "hosts classified at both MSS values: {}\nsegment-configured: {}\n\
             byte-configured: {bytes} ({:.1}%; paper ≈1%)\n",
            self.classified,
            self.classified - bytes,
            self.byte_share()
        );
        for (budget, n) in &self.budgets {
            out.push_str(&format!(
                "  {budget} B budget: {n} hosts ({} segs @64 / {} @128)\n",
                budget / 64,
                budget / 128
            ));
        }
        out.push_str(&format!(
            "4 kB share of byte-configured: {:.1}% (paper ≈50%)\n\
             static IW48 hosts (MSS-independent): {}\n",
            self.at(4096) as f64 / bytes.max(1) as f64 * 100.0,
            self.iw48_static
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_core::Protocol;

    fn result(ip: u32, verdict: MssVerdict) -> HostResult {
        HostResult {
            ip,
            protocol: Protocol::Http,
            runs: vec![],
            verdicts: vec![(64, verdict)],
            host_verdict: HostVerdict::Unclassified,
        }
    }

    #[test]
    fn table1_formats_rates() {
        let s = ScanSummary {
            targets: 1_000,
            reachable: 483,
            success: 245,
            few_data: 230,
            error: 8,
            refused: 2,
            ..ScanSummary::default()
        };
        let t = Table1::new(&[("HTTP", &s)]);
        let rendered = t.render();
        assert!(rendered.contains("HTTP"));
        assert!(rendered.contains("483"));
        assert!(rendered.contains("50.7%"), "{rendered}");
    }

    #[test]
    fn table2_distribution() {
        let mut results = Vec::new();
        for i in 0..10 {
            results.push(result(i, MssVerdict::FewData(7)));
        }
        results.push(result(100, MssVerdict::FewData(0)));
        results.push(result(101, MssVerdict::FewData(1)));
        results.push(result(102, MssVerdict::FewData(34)));
        results.push(result(103, MssVerdict::Success(10))); // ignored
        let t = Table2::new(&results);
        assert_eq!(t.total, 13);
        assert!((t.iw[6] - 10.0 / 13.0 * 100.0).abs() < 1e-9);
        assert!((t.no_data - 100.0 / 13.0).abs() < 1e-9);
        assert!((t.above_10 - 100.0 / 13.0).abs() < 1e-9);
        let rendered = t.render("HTTP");
        assert!(rendered.contains("NoData"));
    }

    #[test]
    fn table2_empty_is_all_zero() {
        let t = Table2::new(&[]);
        assert_eq!(t.total, 0);
        assert_eq!(t.no_data, 0.0);
    }
}
