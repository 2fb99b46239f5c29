//! The synthetic AS registry.
//!
//! Mirrors the structures the paper's §4.3 analysis keys on: autonomous
//! systems with names, network classes, address blocks, reverse-DNS
//! conventions and — crucially — class-specific cohort mixtures whose
//! aggregate reproduces the published IW distributions. Named exemplars
//! (EC2, Cloudflare, Akamai, Azure, GoDaddy, Comcast, Vodafone IT, Korea
//! Telecom, Telmex, a national backbone) anchor Table 3 and Figure 5;
//! jittered filler ASes populate the DBSCAN clusters around them.

use crate::cohort::{CohortSpec, HttpTemplate, OsKind, TlsTemplate};
use crate::util::HashStream;
use iw_hoststack::IwPolicy;

/// Network classes (the paper's informal taxonomy made explicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetClass {
    /// Generic IW10 cloud/IaaS (EC2 and friends).
    Cloud,
    /// IW10 CDN (Cloudflare-like).
    Cdn,
    /// The IW4 CDN (Akamai-like; `GHost` server string).
    CdnAkamai,
    /// Azure-like cloud with an IW4-heavy mix.
    CloudAzure,
    /// GoDaddy-like mass hoster with the static-IW48 fleet.
    HosterGoDaddy,
    /// Generic shared hosting.
    Hosting,
    /// Residential/business access ISPs.
    Access,
    /// The Telmex-style modem fleet (4 kB byte-limited IWs, §4.2).
    AccessModems,
    /// University networks (IW2 legacy).
    University,
    /// National backbones / legacy enterprise.
    Backbone,
    /// Miscellaneous embedded devices with exotic IWs.
    Embedded,
}

impl NetClass {
    /// All classes, for iteration.
    pub const ALL: [NetClass; 11] = [
        NetClass::Cloud,
        NetClass::Cdn,
        NetClass::CdnAkamai,
        NetClass::CloudAzure,
        NetClass::HosterGoDaddy,
        NetClass::Hosting,
        NetClass::Access,
        NetClass::AccessModems,
        NetClass::University,
        NetClass::Backbone,
        NetClass::Embedded,
    ];

    /// Share of all responsive hosts this class should contribute.
    pub fn responsive_share(self) -> f64 {
        match self {
            // The paper classifies only 16% of HTTP IPs as access (§4.3);
            // server-side infrastructure dominates the responsive space.
            NetClass::Cloud => 0.26,
            NetClass::Cdn => 0.05,
            NetClass::CdnAkamai => 0.03,
            NetClass::CloudAzure => 0.03,
            NetClass::HosterGoDaddy => 0.02,
            NetClass::Hosting => 0.24,
            NetClass::Access => 0.18,
            NetClass::AccessModems => 0.012,
            NetClass::University => 0.035,
            NetClass::Backbone => 0.11,
            NetClass::Embedded => 0.008,
        }
    }

    /// Fraction of the class's address block that hosts a responsive
    /// machine (server farms are dense, access space is sparse).
    pub fn density(self) -> f64 {
        match self {
            NetClass::Cloud | NetClass::CloudAzure => 0.5,
            NetClass::Cdn | NetClass::CdnAkamai => 0.7,
            NetClass::HosterGoDaddy => 0.6,
            NetClass::Hosting => 0.4,
            NetClass::Access => 0.08,
            NetClass::AccessModems => 0.08,
            NetClass::University => 0.15,
            NetClass::Backbone => 0.10,
            NetClass::Embedded => 0.05,
        }
    }

    /// Number of filler ASes (beyond the named exemplar) per class.
    pub fn filler_as_count(self) -> u32 {
        match self {
            NetClass::Cloud => 24,
            NetClass::Cdn => 6,
            NetClass::CdnAkamai => 2,
            NetClass::CloudAzure => 3,
            NetClass::HosterGoDaddy => 2,
            NetClass::Hosting => 40,
            NetClass::Access => 60,
            NetClass::AccessModems => 2,
            NetClass::University => 14,
            NetClass::Backbone => 18,
            NetClass::Embedded => 6,
        }
    }

    /// The HTTP `Server:` header style for hosts in this class.
    pub fn server_header(self) -> &'static str {
        match self {
            NetClass::CdnAkamai => "GHost",
            NetClass::Cdn => "cloudflare",
            NetClass::CloudAzure | NetClass::HosterGoDaddy => "Microsoft-IIS/8.5",
            NetClass::AccessModems | NetClass::Embedded => "RomPager/4.07",
            _ => "nginx",
        }
    }

    /// The cohort mixture defining this class (weights relative).
    pub fn cohorts(self) -> &'static [CohortSpec] {
        use HttpTemplate as H;
        use IwPolicy as P;
        use OsKind as O;
        use TlsTemplate as T;
        macro_rules! c {
            ($tag:literal, $w:expr, $iw:expr, $os:expr, $http:expr, $tls:expr) => {
                CohortSpec {
                    tag: $tag,
                    weight: $w,
                    iw: $iw,
                    os: $os,
                    http: $http,
                    tls: $tls,
                }
            };
        }
        match self {
            NetClass::Cloud => &[
                c!(
                    "cloud-small",
                    0.47,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-large",
                    0.15,
                    P::Segments(10),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-redir",
                    0.12,
                    P::Segments(10),
                    O::Linux,
                    Some(H::RedirectSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-http-only",
                    0.08,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "cloud-tls-only",
                    0.05,
                    P::Segments(10),
                    O::Linux,
                    None,
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-echo",
                    0.04,
                    P::Segments(10),
                    O::Linux,
                    Some(H::ErrorEcho),
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-win",
                    0.02,
                    P::Segments(10),
                    O::Windows,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-iw4",
                    0.02,
                    P::Segments(4),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cloud-mute",
                    0.015,
                    P::Segments(10),
                    O::Linux,
                    Some(H::MuteSite),
                    Some(T::MuteTls)
                ),
                c!(
                    "cloud-rst",
                    0.01,
                    P::Segments(10),
                    O::Linux,
                    Some(H::ResetSite),
                    Some(T::ResetTls)
                ),
                c!(
                    "cloud-sni",
                    0.025,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::AlertNoSni)
                ),
            ],
            NetClass::Cdn => &[
                c!(
                    "cdn-redir",
                    0.55,
                    P::Segments(10),
                    O::Linux,
                    Some(H::RedirectSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cdn-large",
                    0.40,
                    P::Segments(10),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "cdn-small",
                    0.05,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
            ],
            NetClass::CdnAkamai => &[
                c!(
                    "akamai-noecho",
                    0.60,
                    P::Segments(4),
                    O::Linux,
                    Some(H::ErrorNoEcho),
                    Some(T::ServeChain)
                ),
                c!(
                    "akamai-small",
                    0.25,
                    P::Segments(4),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "akamai-tls",
                    0.15,
                    P::Segments(4),
                    O::Linux,
                    None,
                    Some(T::ServeChain)
                ),
            ],
            // Azure's HTTP successes come almost exclusively from hosts
            // serving real content (Windows small pages fit one 536 B
            // segment and always land in few-data), so the Large cohorts
            // carry Table 3's HTTP row: IW4 > IW10 > IW2.
            NetClass::CloudAzure => &[
                c!(
                    "azure-iw4-small",
                    0.25,
                    P::Segments(4),
                    O::Windows,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "azure-iw4-tls",
                    0.25,
                    P::Segments(4),
                    O::Windows,
                    None,
                    Some(T::ServeChain)
                ),
                c!(
                    "azure-iw4-http",
                    0.22,
                    P::Segments(4),
                    O::Windows,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "azure-iw10-large",
                    0.15,
                    P::Segments(10),
                    O::Windows,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "azure-iw10-small",
                    0.05,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "azure-iw2-small",
                    0.05,
                    P::Segments(2),
                    O::Windows,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "azure-iw2-http",
                    0.03,
                    P::Segments(2),
                    O::Windows,
                    Some(H::LargeSite),
                    None
                ),
            ],
            NetClass::HosterGoDaddy => &[
                c!(
                    "gd-iw48-tls",
                    0.25,
                    P::Segments(48),
                    O::Linux,
                    None,
                    Some(T::ServeChain)
                ),
                c!(
                    "gd-iw48-park",
                    0.15,
                    P::Segments(48),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "gd-iw10-small",
                    0.33,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "gd-iw10-large",
                    0.17,
                    P::Segments(10),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "gd-iw4-small",
                    0.10,
                    P::Segments(4),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
            ],
            NetClass::Hosting => &[
                c!(
                    "host-iw10-small",
                    0.41,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "host-iw10-large",
                    0.10,
                    P::Segments(10),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "host-iw10-redir",
                    0.10,
                    P::Segments(10),
                    O::Linux,
                    Some(H::RedirectSite),
                    None
                ),
                c!(
                    "host-iw4-small",
                    0.10,
                    P::Segments(4),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "host-iw2-smallchain",
                    0.07,
                    P::Segments(2),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeSmallChain)
                ),
                c!(
                    "host-cipher-mismatch",
                    0.04,
                    P::Segments(10),
                    O::Windows,
                    Some(H::SmallSite),
                    Some(T::CipherMismatch)
                ),
                c!(
                    "host-sni-close",
                    0.06,
                    P::Segments(10),
                    O::Linux,
                    Some(H::MuteSite),
                    Some(T::CloseNoSni)
                ),
                c!(
                    "host-iw2-win",
                    0.03,
                    P::Segments(2),
                    O::Windows,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "host-echo-snialert",
                    0.04,
                    P::Segments(10),
                    O::Linux,
                    Some(H::ErrorEcho),
                    Some(T::AlertNoSni)
                ),
                c!(
                    "host-iw1-legacy",
                    0.03,
                    P::Segments(1),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "host-rst",
                    0.02,
                    P::Segments(10),
                    O::Linux,
                    Some(H::ResetSite),
                    Some(T::ResetTls)
                ),
            ],
            NetClass::Access => &[
                c!(
                    "acc-router-iw2",
                    0.35,
                    P::Segments(2),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "acc-router-iw2-tls",
                    0.06,
                    P::Segments(2),
                    O::Embedded,
                    Some(H::SmallSite),
                    Some(T::ServeSmallChain)
                ),
                c!(
                    "acc-gw-iw4-tls",
                    0.14,
                    P::Segments(4),
                    O::Embedded,
                    None,
                    Some(T::ServeChain)
                ),
                c!(
                    "acc-gw-iw4-both",
                    0.10,
                    P::Segments(4),
                    O::Embedded,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "acc-iw4-http",
                    0.05,
                    P::Segments(4),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "acc-cust-iw10",
                    0.13,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "acc-cust-iw10-both",
                    0.035,
                    P::Segments(10),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "acc-ancient-iw1-tls",
                    0.025,
                    P::Segments(1),
                    O::Embedded,
                    Some(H::SmallSite),
                    Some(T::ServeSmallChain)
                ),
                c!(
                    "acc-ancient-iw1",
                    0.02,
                    P::Segments(1),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "acc-odd-iw3",
                    0.032,
                    P::Segments(3),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "acc-win-iw2",
                    0.01,
                    P::Segments(2),
                    O::Windows,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "acc-mute",
                    0.02,
                    P::Segments(10),
                    O::Linux,
                    Some(H::MuteSite),
                    Some(T::MuteTls)
                ),
                c!(
                    "acc-rst",
                    0.015,
                    P::Segments(10),
                    O::Linux,
                    Some(H::ResetSite),
                    None
                ),
                c!(
                    "acc-iw64",
                    0.003,
                    P::Segments(64),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
            ],
            NetClass::AccessModems => &[
                c!(
                    "modem-4k-login",
                    0.55,
                    P::Bytes(4096),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "modem-4k-monitor",
                    0.25,
                    P::Bytes(4096),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "modem-mtufill",
                    0.12,
                    P::MtuFill(1536),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "modem-iw2",
                    0.08,
                    P::Segments(2),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
            ],
            NetClass::University => &[
                c!(
                    "uni-iw2-small",
                    0.45,
                    P::Segments(2),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "uni-iw2-large",
                    0.20,
                    P::Segments(2),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "uni-iw10",
                    0.20,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "uni-iw4-bsd",
                    0.15,
                    P::Segments(4),
                    O::Bsd,
                    Some(H::SmallSite),
                    Some(T::ServeSmallChain)
                ),
            ],
            NetClass::Backbone => &[
                c!(
                    "bb-iw1",
                    0.30,
                    P::Segments(1),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "bb-iw2",
                    0.30,
                    P::Segments(2),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "bb-iw2-win",
                    0.07,
                    P::Segments(2),
                    O::Windows,
                    Some(H::SmallSite),
                    Some(T::ServeSmallChain)
                ),
                c!(
                    "bb-iw1-tls",
                    0.10,
                    P::Segments(1),
                    O::Linux,
                    None,
                    Some(T::ServeChain)
                ),
                c!(
                    "bb-iw4",
                    0.08,
                    P::Segments(4),
                    O::Linux,
                    Some(H::SmallSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "bb-iw10",
                    0.07,
                    P::Segments(10),
                    O::Linux,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "bb-iw5",
                    0.05,
                    P::Segments(5),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
                c!(
                    "bb-iw6",
                    0.03,
                    P::Segments(6),
                    O::Embedded,
                    Some(H::SmallSite),
                    None
                ),
            ],
            NetClass::Embedded => &[
                c!(
                    "emb-iw25-tls",
                    0.15,
                    P::Segments(25),
                    O::Linux,
                    None,
                    Some(T::ServeChain)
                ),
                c!(
                    "emb-iw64",
                    0.15,
                    P::Segments(64),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "emb-iw20",
                    0.10,
                    P::Segments(20),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "emb-iw30",
                    0.10,
                    P::Segments(30),
                    O::Linux,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "emb-iw9",
                    0.10,
                    P::Segments(9),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "emb-iw11",
                    0.10,
                    P::Segments(11),
                    O::Linux,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "emb-iw5",
                    0.10,
                    P::Segments(5),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "emb-iw6",
                    0.10,
                    P::Segments(6),
                    O::Embedded,
                    Some(H::LargeSite),
                    Some(T::ServeChain)
                ),
                c!(
                    "emb-iw16",
                    0.05,
                    P::Segments(16),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
                c!(
                    "emb-iw24",
                    0.05,
                    P::Segments(24),
                    O::Embedded,
                    Some(H::LargeSite),
                    None
                ),
            ],
        }
    }
}

/// Reverse-DNS naming convention per network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdnsStyle {
    /// No PTR record.
    None,
    /// Server-style, IP encoded: `ec2-1-2-3-4.compute.example`.
    ServerIpEncoded {
        /// Domain suffix.
        domain: String,
    },
    /// Access-style, IP encoded with an ISP keyword:
    /// `customer-1-2-3-4.dsl.isp.example`.
    AccessIpEncoded {
        /// Domain suffix.
        domain: String,
        /// Keyword ("customer", "dialin", "dsl", "cable", "pool").
        keyword: &'static str,
    },
    /// Static name, no IP.
    StaticHost {
        /// Domain suffix.
        domain: String,
    },
}

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsSpec {
    /// AS number.
    pub asn: u32,
    /// Operator name.
    pub name: String,
    /// Network class.
    pub class: NetClass,
    /// First address of the block (scan-space coordinates).
    pub start: u32,
    /// Block length.
    pub len: u32,
    /// Responsive-host density inside the block.
    pub density: f64,
    /// Per-AS cohort-weight jitter seed (gives DBSCAN its spread).
    pub jitter: u64,
    /// Reverse-DNS convention.
    pub rdns: RdnsStyle,
    /// Domain used for redirects / SNI content.
    pub domain: String,
}

impl AsSpec {
    /// Whether `ip` (scan-space) falls into this AS.
    pub fn contains(&self, ip: u32) -> bool {
        ip >= self.start && (u64::from(ip)) < u64::from(self.start) + u64::from(self.len)
    }

    /// Jittered cohort weights for this AS (class weights × U[0.45, 1.75]):
    /// operators of the same class deploy similar but not identical device
    /// mixes — this spread is what gives Fig. 5's DBSCAN both clusters and
    /// noise points.
    pub fn cohort_weights(&self) -> impl Iterator<Item = f64> + Clone {
        let mut s = HashStream::new(self.jitter, self.asn, 0xa5a5);
        self.class
            .cohorts()
            .iter()
            .map(move |c| c.weight * (0.45 + 1.3 * s.next_f64()))
    }

    /// Render the PTR record for a host, if the convention has one.
    pub fn rdns_for(&self, ip: u32) -> Option<String> {
        let o = ip.to_be_bytes();
        match &self.rdns {
            RdnsStyle::None => None,
            RdnsStyle::ServerIpEncoded { domain } => {
                Some(format!("srv-{}-{}-{}-{}.{domain}", o[0], o[1], o[2], o[3]))
            }
            RdnsStyle::AccessIpEncoded { domain, keyword } => Some(format!(
                "{keyword}-{}-{}-{}-{}.{domain}",
                o[0], o[1], o[2], o[3]
            )),
            RdnsStyle::StaticHost { domain } => Some(format!("host.{domain}")),
        }
    }
}

/// The full registry: every AS, blocks sorted by `start`.
#[derive(Debug, Clone)]
pub struct Registry {
    ases: Vec<AsSpec>,
    /// `ases[i].start`, packed: what [`Registry::as_of`] searches (4 B a
    /// probe instead of an `AsSpec` cache line and a half).
    starts: Vec<u32>,
    /// The routed extent `[first block's start, end of the last block)`.
    /// Almost every address of a sparse space lies outside it, and is
    /// answered without a search.
    routed: std::ops::Range<u32>,
    space_size: u32,
}

/// Named exemplars per class: (asn, name, domain, how many exemplars of
/// the class's block budget they take).
fn exemplars(class: NetClass) -> Vec<(u32, &'static str, &'static str)> {
    match class {
        NetClass::Cloud => vec![(16509, "Amazon EC2", "ec2.cloud-a.example")],
        NetClass::Cdn => vec![(13335, "Cloudflare", "cdn-c.example")],
        NetClass::CdnAkamai => vec![(20940, "Akamai", "akamai-edge.example")],
        NetClass::CloudAzure => vec![(8075, "Microsoft Azure", "azure.example")],
        NetClass::HosterGoDaddy => vec![(26496, "GoDaddy", "secureserver.example")],
        NetClass::Hosting => vec![(24940, "Hetzner-like Hosting", "hosted.example")],
        NetClass::Access => vec![
            (7922, "Comcast", "comcastlike.example"),
            (30722, "Vodafone IT", "vodafoneit.example"),
            (4766, "Korea Telecom", "koreatel.example"),
        ],
        NetClass::AccessModems => vec![(8151, "Telmex", "telmexlike.example")],
        NetClass::University => vec![(680, "National Research Net", "uni-net.example")],
        NetClass::Backbone => vec![(9121, "Nat. Int. Backbone", "natbackbone.example")],
        NetClass::Embedded => vec![(64512, "Device Cloud", "devices.example")],
    }
}

fn rdns_style_for(class: NetClass, domain: &str, jitter: u64, exemplar: bool) -> RdnsStyle {
    match class {
        // EC2 and Akamai famously encode IPs in PTR records
        // (ec2-1-2-3-4…, aNN-NN-NN-NN.deploy…); most other server
        // networks do not — the paper measures 38.6 % of HTTP IPs (and
        // 62.5 % of TLS IPs) with IP-encoding overall (§4.3).
        NetClass::Cloud if exemplar => RdnsStyle::ServerIpEncoded {
            domain: domain.to_string(),
        },
        NetClass::CdnAkamai => RdnsStyle::ServerIpEncoded {
            domain: domain.to_string(),
        },
        NetClass::Cdn | NetClass::CloudAzure => RdnsStyle::StaticHost {
            domain: domain.to_string(),
        },
        NetClass::Cloud | NetClass::HosterGoDaddy | NetClass::Hosting => match jitter % 10 {
            0..=2 => RdnsStyle::ServerIpEncoded {
                domain: domain.to_string(),
            },
            3..=6 => RdnsStyle::StaticHost {
                domain: domain.to_string(),
            },
            _ => RdnsStyle::None,
        },
        NetClass::Access | NetClass::AccessModems => {
            const KEYWORDS: [&str; 5] = ["customer", "dialin", "dsl", "cable", "pool"];
            RdnsStyle::AccessIpEncoded {
                domain: domain.to_string(),
                keyword: KEYWORDS[(jitter % 5) as usize],
            }
        }
        NetClass::University => RdnsStyle::StaticHost {
            domain: domain.to_string(),
        },
        NetClass::Backbone | NetClass::Embedded => {
            if jitter.is_multiple_of(2) {
                RdnsStyle::None
            } else {
                RdnsStyle::StaticHost {
                    domain: domain.to_string(),
                }
            }
        }
    }
}

impl Registry {
    /// Build the registry for a scan space of `space_size` addresses.
    ///
    /// Roughly `target_responsive` hosts are distributed over the classes
    /// by [`NetClass::responsive_share`]; block sizes follow from each
    /// class's density. The remaining space is unrouted.
    pub fn build(space_size: u32, target_responsive: u32, seed: u64) -> Registry {
        let mut ases = Vec::new();
        let first: u64 = 1024; // skip a small reserved region
        let mut cursor = first; // blocks are laid end to end from here
        let mut next_filler_asn = 100_000u32;

        for class in NetClass::ALL {
            let class_hosts = NetClass::responsive_share(class) * f64::from(target_responsive);
            let density = class.density();
            let class_block = (class_hosts / density).ceil() as u64;
            let ex = exemplars(class);
            let fillers = class.filler_as_count();
            let total_units = ex.len() as u64 * 4 + u64::from(fillers); // exemplars 4× a filler
            let unit = (class_block / total_units.max(1)).max(16);

            for (asn, name, domain) in &ex {
                let len = (unit * 4).min(u64::from(u32::MAX)) as u32;
                let jitter = crate::util::mix(&[seed, u64::from(*asn)]);
                ases.push(AsSpec {
                    asn: *asn,
                    name: (*name).to_string(),
                    class,
                    start: cursor as u32,
                    len,
                    density,
                    jitter,
                    rdns: rdns_style_for(class, domain, jitter, true),
                    domain: (*domain).to_string(),
                });
                cursor += u64::from(len);
            }
            for i in 0..fillers {
                let asn = next_filler_asn;
                next_filler_asn += 1;
                let jitter = crate::util::mix(&[seed, u64::from(asn)]);
                // Filler sizes vary ×[0.5, 1.5] for realism.
                let scale = 0.5 + (jitter % 1000) as f64 / 1000.0;
                let len = ((unit as f64 * scale) as u64).max(16) as u32;
                let domain = format!("{}-{i:03}.example", class_slug(class));
                ases.push(AsSpec {
                    asn,
                    name: format!("{} {i:03}", class_name(class)),
                    class,
                    start: cursor as u32,
                    len,
                    density,
                    jitter,
                    rdns: rdns_style_for(class, &domain, jitter, false),
                    domain,
                });
                cursor += u64::from(len);
            }
        }
        assert!(
            cursor < u64::from(space_size),
            "scan space {space_size} too small for the target population \
             (need at least {cursor} addresses)"
        );
        Registry {
            starts: ases.iter().map(|a| a.start).collect(),
            ases,
            routed: first as u32..cursor as u32, // cursor < space_size, asserted above
            space_size,
        }
    }

    /// All ASes, ordered by block start.
    pub fn ases(&self) -> &[AsSpec] {
        &self.ases
    }

    /// The scan-space size the registry was built for.
    pub fn space_size(&self) -> u32 {
        self.space_size
    }

    /// Total routed (allocated) addresses.
    pub fn routed_addresses(&self) -> u64 {
        self.ases.iter().map(|a| u64::from(a.len)).sum()
    }

    /// Find the AS containing `ip`, if any: O(1) outside the routed
    /// extent, a binary search over the block starts inside it.
    pub fn as_of(&self, ip: u32) -> Option<&AsSpec> {
        if !self.routed.contains(&ip) {
            return None;
        }
        let idx = self.starts.partition_point(|start| *start <= ip);
        let candidate = &self.ases[idx.checked_sub(1)?];
        candidate.contains(ip).then_some(candidate)
    }

    /// Look up an AS by number.
    pub fn by_asn(&self, asn: u32) -> Option<&AsSpec> {
        self.ases.iter().find(|a| a.asn == asn)
    }
}

fn class_slug(class: NetClass) -> &'static str {
    match class {
        NetClass::Cloud => "cloud",
        NetClass::Cdn => "cdn",
        NetClass::CdnAkamai => "akam",
        NetClass::CloudAzure => "azure",
        NetClass::HosterGoDaddy => "gd",
        NetClass::Hosting => "hosting",
        NetClass::Access => "isp",
        NetClass::AccessModems => "modems",
        NetClass::University => "uni",
        NetClass::Backbone => "backbone",
        NetClass::Embedded => "devices",
    }
}

fn class_name(class: NetClass) -> &'static str {
    match class {
        NetClass::Cloud => "Cloud Provider",
        NetClass::Cdn => "CDN",
        NetClass::CdnAkamai => "Edge CDN",
        NetClass::CloudAzure => "Enterprise Cloud",
        NetClass::HosterGoDaddy => "Mass Hoster",
        NetClass::Hosting => "Hosting",
        NetClass::Access => "Access ISP",
        NetClass::AccessModems => "Modem Fleet",
        NetClass::University => "University",
        NetClass::Backbone => "Backbone",
        NetClass::Embedded => "Device Network",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::build(1 << 22, 60_000, 7)
    }

    #[test]
    fn blocks_are_disjoint_and_sorted() {
        let reg = registry();
        let ases = reg.ases();
        assert!(ases.len() > 150, "need many ASes for DBSCAN");
        for w in ases.windows(2) {
            assert!(
                u64::from(w[0].start) + u64::from(w[0].len) <= u64::from(w[1].start),
                "blocks overlap"
            );
        }
    }

    #[test]
    fn as_lookup_matches_contains() {
        let reg = registry();
        for a in reg.ases() {
            assert_eq!(reg.as_of(a.start).unwrap().asn, a.asn);
            assert_eq!(reg.as_of(a.start + a.len - 1).unwrap().asn, a.asn);
        }
        // Before first block and after the last: unrouted.
        assert!(reg.as_of(0).is_none());
        assert!(reg.as_of(reg.space_size() - 1).is_none());
    }

    #[test]
    fn as_lookup_equals_a_linear_scan_everywhere() {
        // The smallest space the population builds: every address, which
        // takes in 0, the reserved region's end (1023/1024), every block
        // seam, the last routed address and the first unrouted one.
        let reg = Registry::build(1 << 13, 400, 7);
        let (first, end) = (reg.routed.start, reg.routed.end);
        assert_eq!(first, 1024);
        assert!(end < reg.space_size());
        for ip in 0..reg.space_size() {
            let linear = reg.ases().iter().find(|a| a.contains(ip));
            assert_eq!(
                reg.as_of(ip).map(|a| a.asn),
                linear.map(|a| a.asn),
                "address {ip}"
            );
            assert_eq!(linear.is_some(), (first..end).contains(&ip), "address {ip}");
        }
        // And at the ends of `u32`, far outside any space.
        assert!(reg.as_of(u32::MAX).is_none());
    }

    #[test]
    fn exemplars_present() {
        let reg = registry();
        for asn in [16509, 13335, 20940, 8075, 26496, 7922, 8151] {
            assert!(reg.by_asn(asn).is_some(), "missing exemplar AS{asn}");
        }
        assert_eq!(reg.by_asn(20940).unwrap().class, NetClass::CdnAkamai);
    }

    #[test]
    fn cohort_weights_sum_to_one_ish() {
        for class in NetClass::ALL {
            let total: f64 = class.cohorts().iter().map(|c| c.weight).sum();
            assert!(
                (0.98..=1.02).contains(&total),
                "{class:?} weights sum to {total}"
            );
        }
    }

    #[test]
    fn jitter_varies_weights_across_ases() {
        let reg = registry();
        let access: Vec<_> = reg
            .ases()
            .iter()
            .filter(|a| a.class == NetClass::Access)
            .take(2)
            .collect();
        assert!(!access[0].cohort_weights().eq(access[1].cohort_weights()));
    }

    #[test]
    fn rdns_conventions() {
        let reg = registry();
        let comcast = reg.by_asn(7922).unwrap();
        let name = comcast.rdns_for(comcast.start).unwrap();
        assert!(
            ["customer", "dialin", "dsl", "cable", "pool"]
                .iter()
                .any(|k| name.starts_with(k)),
            "{name}"
        );
        let ec2 = reg.by_asn(16509).unwrap();
        assert!(ec2.rdns_for(ec2.start).unwrap().starts_with("srv-"));
    }

    #[test]
    fn server_ptr_styles_are_mixed() {
        // §4.3 calibration: EC2/Akamai encode IPs; filler clouds and
        // hosting are a mix, so the global IP-encoding share can sit
        // near the paper's 38.6% rather than ~100%.
        let reg = registry();
        let ec2 = reg.by_asn(16509).unwrap();
        assert!(matches!(ec2.rdns, RdnsStyle::ServerIpEncoded { .. }));
        let akamai = reg.by_asn(20940).unwrap();
        assert!(matches!(akamai.rdns, RdnsStyle::ServerIpEncoded { .. }));
        let mut styles = std::collections::HashSet::new();
        for a in reg
            .ases()
            .iter()
            .filter(|a| matches!(a.class, NetClass::Hosting | NetClass::Cloud))
        {
            styles.insert(match &a.rdns {
                RdnsStyle::ServerIpEncoded { .. } => "enc",
                RdnsStyle::StaticHost { .. } => "static",
                RdnsStyle::None => "none",
                RdnsStyle::AccessIpEncoded { .. } => "access",
            });
        }
        assert!(
            styles.contains("enc") && styles.contains("static") && styles.contains("none"),
            "hosting/cloud PTR styles must be mixed: {styles:?}"
        );
    }

    #[test]
    fn deterministic_build() {
        let a = Registry::build(1 << 22, 60_000, 7);
        let b = Registry::build(1 << 22, 60_000, 7);
        assert_eq!(a.ases().len(), b.ases().len());
        for (x, y) in a.ases().iter().zip(b.ases()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.start, y.start);
            assert_eq!(x.jitter, y.jitter);
        }
    }

    #[test]
    fn space_too_small_panics() {
        let result = std::panic::catch_unwind(|| Registry::build(1 << 10, 60_000, 7));
        assert!(result.is_err());
    }

    #[test]
    fn routed_fraction_reasonable() {
        let reg = registry();
        let frac = reg.routed_addresses() as f64 / f64::from(reg.space_size());
        assert!(
            (0.05..0.80).contains(&frac),
            "routed fraction {frac} out of band"
        );
    }
}
