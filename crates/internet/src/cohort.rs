//! Device cohorts: the unit of population calibration.
//!
//! A cohort is "a kind of host": an IW policy, an OS personality, and an
//! HTTP/TLS behaviour template. Network classes (see [`crate::registry`])
//! are weighted mixtures of cohorts; every concrete host samples its
//! configuration deterministically from its cohort's templates.

use crate::certs;
use crate::content;
use crate::util::HashStream;
use iw_hoststack::config::ports;
use iw_hoststack::{
    HostConfig, HttpBehavior, HttpConfig, IwPolicy, OsProfile, TlsBehavior, TlsConfig,
};
use iw_wire::tls::CipherSuite;

/// OS personality selector (maps onto [`OsProfile`] constructors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsKind {
    /// Modern Linux (MSS floor 64).
    Linux,
    /// Windows (MSS fallback 536).
    Windows,
    /// Embedded/router firmware.
    Embedded,
    /// BSD family.
    Bsd,
}

impl OsKind {
    /// Materialize the TCP personality.
    pub fn profile(self) -> OsProfile {
        match self {
            OsKind::Linux => OsProfile::linux(),
            OsKind::Windows => OsProfile::windows(),
            OsKind::Embedded => OsProfile::embedded(),
            OsKind::Bsd => OsProfile::bsd(),
        }
    }
}

/// HTTP behaviour templates (§3.2 response taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpTemplate {
    /// A large root page — always fills the IW.
    LargeSite,
    /// `301` to a canonical vhost which serves a large page; the probe
    /// succeeds only by following the redirect.
    RedirectSite,
    /// A small root page drawn from the Table 2 size model.
    SmallSite,
    /// 404-for-everything with URI echo — the long-URI bloat succeeds.
    ErrorEcho,
    /// 404 without URI echo (Akamai-after-the-change): stays small.
    ErrorNoEcho,
    /// Accepts and never answers.
    MuteSite,
    /// FIN without a byte.
    SilentSite,
    /// RST upon request.
    ResetSite,
}

/// TLS behaviour templates (§3.3 response taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsTemplate {
    /// Serve a censys-calibrated chain (OCSP/ECDHE mix sampled).
    ServeChain,
    /// Serve a deliberately tiny chain (50–560 B, static RSA, no OCSP) —
    /// the emergent IW2…IW9 rows of Table 2.
    ServeSmallChain,
    /// Fatal `unrecognized_name` without SNI; serves with SNI.
    AlertNoSni,
    /// Silent FIN without SNI; serves with SNI (Table 2's TLS NoData).
    CloseNoSni,
    /// No cipher overlap ever: `handshake_failure`.
    CipherMismatch,
    /// Accepts the ClientHello and never answers.
    MuteTls,
    /// RST upon the ClientHello.
    ResetTls,
}

/// One cohort row in a class mixture.
#[derive(Debug, Clone, Copy)]
pub struct CohortSpec {
    /// Stable identifier (used in ground truth and ablation reports).
    pub tag: &'static str,
    /// Mixture weight inside the class (relative, not normalized).
    pub weight: f64,
    /// Initial-window policy.
    pub iw: IwPolicy,
    /// TCP personality.
    pub os: OsKind,
    /// HTTP service template, if port 80 is open.
    pub http: Option<HttpTemplate>,
    /// TLS service template, if port 443 is open.
    pub tls: Option<TlsTemplate>,
}

/// Purpose tags for per-attribute hash streams.
mod purpose {
    pub const HTTP_SIZE: u64 = 0x11;
    pub const TLS_CHAIN: u64 = 0x22;
    pub const REDIRECT: u64 = 0x33;
}

/// Build the HTTP service config for a host of this cohort.
fn http_config(
    template: HttpTemplate,
    seed: u64,
    ip: u32,
    server_header: &str,
    canonical_domain: &str,
    vhost_iw: Vec<(String, IwPolicy)>,
) -> HttpConfig {
    let mut s = HashStream::new(seed, ip, purpose::HTTP_SIZE);
    let behavior = match template {
        HttpTemplate::LargeSite => HttpBehavior::Direct {
            root_size: content::body_for_total(content::large_page_total(&mut s)),
            echo_404: true,
        },
        HttpTemplate::RedirectSite => {
            let mut r = HashStream::new(seed, ip, purpose::REDIRECT);
            HttpBehavior::Redirect {
                host: format!("www.{}", canonical_domain),
                path: format!("/index-{}.html", r.next_range(1, 9999)),
                target_size: content::large_page_total(&mut s),
            }
        }
        // Small sites do NOT echo URIs into their 404s — if they did, the
        // bloat retry would rescue them and Table 1's ~48% few-data bucket
        // (and all of Table 2) would vanish.
        HttpTemplate::SmallSite => HttpBehavior::Direct {
            root_size: content::body_for_total(content::small_page_total(&mut s)),
            echo_404: false,
        },
        HttpTemplate::ErrorEcho => HttpBehavior::NotFound {
            base_size: s.next_range(250, 600) as u32,
            echo_uri: true,
        },
        HttpTemplate::ErrorNoEcho => HttpBehavior::NotFound {
            base_size: content::body_for_total(content::small_page_total(&mut s)),
            echo_uri: false,
        },
        HttpTemplate::MuteSite => HttpBehavior::Mute,
        HttpTemplate::SilentSite => HttpBehavior::SilentClose,
        HttpTemplate::ResetSite => HttpBehavior::Reset,
    };
    HttpConfig {
        behavior,
        server_header: server_header.to_string(),
        vhost_iw,
    }
}

/// Build the TLS service config for a host of this cohort.
fn tls_config(
    template: TlsTemplate,
    seed: u64,
    ip: u32,
    sni_iw: Vec<(String, IwPolicy)>,
) -> TlsConfig {
    let mut s = HashStream::new(seed, ip, purpose::TLS_CHAIN);
    match template {
        TlsTemplate::ServeChain | TlsTemplate::AlertNoSni | TlsTemplate::CloseNoSni => {
            let total = certs::chain_len(&mut s);
            let cert_lens = certs::split_chain(&mut s, total);
            // 70 % ECDHE (adds a ServerKeyExchange), 30 % static RSA;
            // 40 % staple OCSP when asked.
            let cipher = if s.next_f64() < 0.7 {
                CipherSuite::ECDHE_RSA_AES128_GCM
            } else {
                CipherSuite::RSA_AES128_CBC
            };
            let ocsp_len = if s.next_f64() < 0.4 {
                Some(s.next_range(300, 600) as u32)
            } else {
                None
            };
            let behavior = match template {
                TlsTemplate::ServeChain => TlsBehavior::Serve,
                TlsTemplate::AlertNoSni => TlsBehavior::AlertWithoutSni,
                TlsTemplate::CloseNoSni => TlsBehavior::CloseWithoutSni,
                #[expect(
                    clippy::unreachable,
                    reason = "the outer match arm only covers the three TLS templates"
                )]
                _ => unreachable!(),
            };
            TlsConfig {
                behavior,
                cipher,
                cert_lens,
                ocsp_len,
                sni_iw,
            }
        }
        TlsTemplate::ServeSmallChain => TlsConfig {
            behavior: TlsBehavior::Serve,
            cipher: CipherSuite::RSA_AES128_CBC,
            cert_lens: vec![s.next_range(50, 560) as u32],
            ocsp_len: None,
            sni_iw,
        },
        TlsTemplate::CipherMismatch => TlsConfig {
            behavior: TlsBehavior::CipherMismatch,
            cipher: CipherSuite(0xfef0),
            cert_lens: vec![600],
            ocsp_len: None,
            sni_iw: Vec::new(),
        },
        TlsTemplate::MuteTls => TlsConfig {
            behavior: TlsBehavior::Mute,
            cipher: CipherSuite::RSA_AES128_CBC,
            cert_lens: vec![600],
            ocsp_len: None,
            sni_iw: Vec::new(),
        },
        TlsTemplate::ResetTls => TlsConfig {
            behavior: TlsBehavior::Reset,
            cipher: CipherSuite::RSA_AES128_CBC,
            cert_lens: vec![600],
            ocsp_len: None,
            sni_iw: Vec::new(),
        },
    }
}

impl CohortSpec {
    /// Per-service IW overrides for cohorts that do Akamai-style
    /// per-customer configuration (§4.3: "we used our scanner to
    /// manually probe few Akamai HTTP hosted sites and found different
    /// IW configurations (e.g., IW 16 and 32)"). Keyed to named
    /// properties of the host's canonical domain — only a scan with a
    /// curated host list can see them.
    pub fn service_iw_overrides(&self, canonical_domain: &str) -> Vec<(String, IwPolicy)> {
        if self.tag.starts_with("akamai") {
            vec![
                (format!("www.{canonical_domain}"), IwPolicy::Segments(16)),
                (format!("media.{canonical_domain}"), IwPolicy::Segments(32)),
            ]
        } else {
            Vec::new()
        }
    }

    /// Materialize a concrete host configuration for `ip`.
    pub fn host_config(
        &self,
        seed: u64,
        ip: u32,
        server_header: &str,
        canonical_domain: &str,
        path_mtu: u32,
    ) -> HostConfig {
        self.host_config_on(seed, ip, server_header, canonical_domain, path_mtu, None)
    }

    /// As [`Self::host_config`], building only the service on `port`
    /// when one is named (none for a port the study does not probe).
    /// Each service draws from its own hash streams, so the one built is
    /// the one [`Self::host_config`] builds.
    pub fn host_config_on(
        &self,
        seed: u64,
        ip: u32,
        server_header: &str,
        canonical_domain: &str,
        path_mtu: u32,
        port: Option<u16>,
    ) -> HostConfig {
        let serves = |service: u16| port.is_none_or(|port| port == service);
        let overrides = self.service_iw_overrides(canonical_domain);
        HostConfig {
            os: self.os.profile(),
            iw: self.iw,
            http: self.http.filter(|_| serves(ports::HTTP)).map(|t| {
                http_config(
                    t,
                    seed,
                    ip,
                    server_header,
                    canonical_domain,
                    overrides.clone(),
                )
            }),
            tls: self
                .tls
                .filter(|_| serves(ports::TLS))
                .map(|t| tls_config(t, seed, ip, overrides.clone())),
            path_mtu,
            icmp: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(http: Option<HttpTemplate>, tls: Option<TlsTemplate>) -> CohortSpec {
        CohortSpec {
            tag: "test",
            weight: 1.0,
            iw: IwPolicy::Segments(10),
            os: OsKind::Linux,
            http,
            tls,
        }
    }

    #[test]
    fn deterministic_configs() {
        let s = spec(Some(HttpTemplate::SmallSite), Some(TlsTemplate::ServeChain));
        let a = s.host_config(1, 42, "nginx", "example.org", 1500);
        let b = s.host_config(1, 42, "nginx", "example.org", 1500);
        assert_eq!(a, b);
        let c = s.host_config(1, 43, "nginx", "example.org", 1500);
        assert_ne!(a, c, "different IPs draw different sizes");
    }

    #[test]
    fn small_site_sizes_stay_small() {
        let s = spec(Some(HttpTemplate::SmallSite), None);
        for ip in 0..500 {
            let cfg = s.host_config(7, ip, "nginx", "d", 1500);
            match cfg.http.unwrap().behavior {
                HttpBehavior::Direct {
                    root_size,
                    echo_404,
                } => {
                    assert!(root_size < 704);
                    assert!(!echo_404);
                }
                other => panic!("unexpected behavior {other:?}"),
            }
        }
    }

    #[test]
    fn redirect_has_canonical_host() {
        let s = spec(Some(HttpTemplate::RedirectSite), None);
        let cfg = s.host_config(7, 9, "Apache", "great-site.example", 1500);
        match cfg.http.unwrap().behavior {
            HttpBehavior::Redirect {
                host,
                path,
                target_size,
            } => {
                assert_eq!(host, "www.great-site.example");
                assert!(path.starts_with("/index-"));
                assert!(target_size >= 8000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn small_chain_is_static_rsa_without_ocsp() {
        let s = spec(None, Some(TlsTemplate::ServeSmallChain));
        let cfg = s.host_config(7, 11, "x", "d", 1500).tls.unwrap();
        assert_eq!(cfg.cipher, CipherSuite::RSA_AES128_CBC);
        assert_eq!(cfg.ocsp_len, None);
        assert!(cfg.chain_len() < 600);
        assert_eq!(cfg.behavior, TlsBehavior::Serve);
    }

    #[test]
    fn serve_chain_matches_censys_stats_roughly() {
        let s = spec(None, Some(TlsTemplate::ServeChain));
        let mut ge640 = 0;
        let n = 3000;
        for ip in 0..n {
            let cfg = s.host_config(3, ip, "x", "d", 1500).tls.unwrap();
            if cfg.chain_len() >= 640 {
                ge640 += 1;
            }
        }
        let frac = f64::from(ge640) / f64::from(n);
        assert!((0.80..0.92).contains(&frac), "{frac}");
    }

    #[test]
    fn echo_and_noecho_templates() {
        let s = spec(Some(HttpTemplate::ErrorEcho), None);
        match s
            .host_config(1, 1, "GHost", "d", 1500)
            .http
            .unwrap()
            .behavior
        {
            HttpBehavior::NotFound { echo_uri, .. } => assert!(echo_uri),
            other => panic!("{other:?}"),
        }
        let s = spec(Some(HttpTemplate::ErrorNoEcho), None);
        match s
            .host_config(1, 1, "GHost", "d", 1500)
            .http
            .unwrap()
            .behavior
        {
            HttpBehavior::NotFound { echo_uri, .. } => assert!(!echo_uri),
            other => panic!("{other:?}"),
        }
    }
}
