//! The four campaign workloads and the scales they run at, as plain data.
//! Nothing here touches the repo's crates; `adapter` turns a [`Workload`]
//! into a population and a scan configuration.

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x1307_2017;

/// Seed of every workload's population. The world is part of the workload
/// definition; `--seed` drives the scan over it (permutation order, cookie
/// keys, probe randomness and every link's loss and jitter draws). Seeding
/// the population too moves its responsive-host count by +-4 %, and with it
/// every end-to-end metric by more than a regression bound.
pub const WORLD_SEED: u64 = 0x1307_2017;

/// Virtual send rate of every campaign (the paper's 150 kpps).
pub const RATE_PPS: u64 = 150_000;

/// Protocol module a workload scans with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Http,
    Tls,
}

/// One deterministic campaign, at standard scale.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses (one line; the
    /// same text is the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    pub space_log2: u32,
    pub responsive: u32,
    /// 0 = lossless world, 1 = the population's calibrated link loss.
    pub loss_scale: f64,
    pub proto: Proto,
    pub stateless_first: bool,
    /// `ResilienceConfig::hardened()` instead of the default.
    pub hardened: bool,
    pub threads: u32,
    pub products: Products,
}

/// The operator's debugging switches: the six telemetry products and
/// periodic checkpoint capture. All off except on `observed_tls` and in
/// the one-product-at-a-time overhead rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Products {
    pub events: bool,
    pub rtt: bool,
    pub spans: bool,
    pub flight: bool,
    /// 1 s streaming JSONL telemetry.
    pub stream: bool,
    /// 1 s captured progress monitor.
    pub monitor: bool,
    /// Capture and serialise a checkpoint every this many virtual seconds
    /// (0 = off).
    pub checkpoint_s: u64,
}

impl Products {
    pub const NONE: Products = Products {
        events: false,
        rtt: false,
        spans: false,
        flight: false,
        stream: false,
        monitor: false,
        checkpoint_s: 0,
    };
    pub const ALL: Products = Products {
        events: true,
        rtt: true,
        spans: true,
        flight: true,
        stream: true,
        monitor: true,
        checkpoint_s: 5,
    };

    /// The `--products` argument a child process is started with.
    pub fn to_arg(self) -> String {
        let flags = [
            (self.events, "events"),
            (self.rtt, "rtt"),
            (self.spans, "spans"),
            (self.flight, "flight"),
            (self.stream, "stream"),
            (self.monitor, "monitor"),
        ];
        let mut names: Vec<String> = flags
            .iter()
            .filter(|(on, _)| *on)
            .map(|(_, name)| name.to_string())
            .collect();
        if self.checkpoint_s > 0 {
            names.push(format!("checkpoint={}", self.checkpoint_s));
        }
        names.join(",")
    }

    pub fn from_arg(arg: &str) -> Result<Products, String> {
        let mut p = Products::NONE;
        for name in arg.split(',').filter(|s| !s.is_empty()) {
            match name {
                "events" => p.events = true,
                "rtt" => p.rtt = true,
                "spans" => p.spans = true,
                "flight" => p.flight = true,
                "stream" => p.stream = true,
                "monitor" => p.monitor = true,
                other => {
                    let secs = other
                        .strip_prefix("checkpoint=")
                        .and_then(|s| s.parse().ok());
                    p.checkpoint_s = secs.ok_or_else(|| format!("unknown product {other:?}"))?;
                }
            }
        }
        Ok(p)
    }
}

impl Workload {
    pub fn lossless(&self) -> bool {
        self.loss_scale == 0.0
    }

    pub fn space(&self) -> u32 {
        1 << self.space_log2
    }

    /// This workload at `scale`.
    pub fn at(self, scale: Scale) -> Workload {
        match scale {
            Scale::Standard => self,
            Scale::Smoke => self.shrunk(6),
        }
    }

    /// Space and responsive count divided by `2^by`. The registry lays out
    /// some 8 300 addresses however few hosts are asked for, so shrinking
    /// stops at 2^14.
    pub fn shrunk(self, by: u32) -> Workload {
        let space_log2 = self.space_log2.saturating_sub(by).max(14);
        Workload {
            space_log2,
            responsive: (self.responsive >> (self.space_log2 - space_log2)).max(64),
            ..self
        }
    }
}

/// The suite. Each is a batch: open-loop in virtual time at 150 kpps, run
/// to completion in host time. Sizes are the standard scale: one
/// repetition takes 2-6 s on the 2-core reference runner, so that a
/// 20 s run of the benchmark holds at least three (see README for how
/// they relate to the sizes first proposed).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense_http",
        why: "Session-dominated: all sessions live at once, so hoststack/wire/inference time and per-session state show; discovery is noise",
        space_log2: 17,
        responsive: 15_000,
        loss_scale: 0.0,
        proto: Proto::Http,
        stateless_first: false,
        hardened: false,
        threads: 1,
        products: Products::NONE,
    },
    Workload {
        name: "sparse_discovery",
        why: "Discovery-dominated stateless-first sweep of a sparse space: wheel, pacing, permutation, cookie and miss path; hoststack about 2 percent",
        space_log2: 23,
        responsive: 625,
        loss_scale: 0.0,
        proto: Proto::Http,
        stateless_first: true,
        hardened: true,
        threads: 1,
        products: Products::NONE,
    },
    Workload {
        name: "campaign_2t",
        why: "Paper-shaped campaign (calibrated loss, retries, watchdog) on two threads: the only workload where feeders, ring and merge run",
        space_log2: 20,
        responsive: 15_000,
        loss_scale: 1.0,
        proto: Proto::Http,
        stateless_first: false,
        hardened: true,
        threads: 2,
        products: Products::NONE,
    },
    Workload {
        name: "observed_tls",
        why: "TLS module with every telemetry product and periodic checkpoint capture on: the cost of the operator's debugging switches",
        space_log2: 16,
        responsive: 11_250,
        loss_scale: 0.0,
        proto: Proto::Tls,
        stateless_first: false,
        hardened: false,
        threads: 1,
        products: Products::ALL,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input size of a run. `Smoke` divides every space (and its responsive
/// count) by 64 for the self-tests; its numbers are stamped and `compare`
/// refuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Standard,
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "standard" => Some(Scale::Standard),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Standard => "standard",
            Scale::Smoke => "smoke",
        }
    }
}
