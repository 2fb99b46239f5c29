//! Static per-host configuration: which services a host runs and how they
//! behave. The population model in `iw-internet` produces these.

use crate::os::OsProfile;
use crate::policy::IwPolicy;
use iw_wire::tls::CipherSuite;

/// How a host's HTTP service responds to the probe (§3.2 taxonomy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpBehavior {
    /// `GET /` answers `200 OK` with a body of `root_size` bytes; any
    /// other URI 404s, echoing the URI when `echo_404` is set (the
    /// error-page-bloating lever only works against echoing servers).
    Direct {
        /// Body size of the root page.
        root_size: u32,
        /// Whether 404 pages embed the request URI.
        echo_404: bool,
    },
    /// `GET /` answers `301 Moved Permanently` to `http://<host><path>`;
    /// the redirect target serves `target_size` bytes. This is the
    /// virtual-hosting pattern the prober exploits to learn a valid Host
    /// header.
    Redirect {
        /// The canonical host name placed in the Location header.
        host: String,
        /// Path component of the Location header.
        path: String,
        /// Body size served at the redirect target.
        target_size: u32,
    },
    /// Everything 404s with an error page of `base_size` bytes which, when
    /// `echo_uri` is set, additionally contains the request URI — the
    /// error-page-bloating lever. (Akamai turned URI echoing *off* during
    /// the paper's scans.)
    NotFound {
        /// Error-page size before any URI echo.
        base_size: u32,
        /// Whether the page embeds the request URI.
        echo_uri: bool,
    },
    /// Accepts the request and never answers (scanner times out).
    Mute,
    /// Closes gracefully (FIN) without sending a byte.
    SilentClose,
    /// Resets the connection upon the request.
    Reset,
}

/// Configuration of a host's HTTP service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpConfig {
    /// Response behaviour.
    pub behavior: HttpBehavior,
    /// `Server:` header value (e.g. `GHost` identifies Akamai in the
    /// paper's §4.3 service classification).
    pub server_header: String,
    /// Per-virtual-host IW overrides (Akamai's per-service/per-customer
    /// configuration): when the request's Host header matches, the
    /// connection's IW is reconfigured before the first flight.
    pub vhost_iw: Vec<(String, IwPolicy)>,
}

/// How a host's TLS service responds to the probe (§3.3 taxonomy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsBehavior {
    /// Serve the ServerHello…ServerHelloDone flight.
    Serve,
    /// Send a fatal `unrecognized_name` alert when the ClientHello lacks
    /// SNI (a major cause of the TLS "few data" bucket, §4).
    AlertWithoutSni,
    /// Close silently (FIN, zero bytes) when the ClientHello lacks SNI —
    /// the TLS "NoData" row of Table 2.
    CloseWithoutSni,
    /// No cipher overlap with the probe's 40-suite list: fatal
    /// `handshake_failure` alert.
    CipherMismatch,
    /// Accept the ClientHello and never answer.
    Mute,
    /// Reset upon the ClientHello.
    Reset,
}

/// Configuration of a host's TLS service.
#[derive(Debug, Clone, PartialEq)]
pub struct TlsConfig {
    /// Response behaviour.
    pub behavior: TlsBehavior,
    /// The cipher suite the server selects when serving.
    pub cipher: CipherSuite,
    /// Certificate chain: DER lengths of each certificate. The sum is the
    /// Fig. 2 "certificate chain length".
    pub cert_lens: Vec<u32>,
    /// Length of a stapled OCSP response, when the server supports the
    /// probe's status_request extension.
    pub ocsp_len: Option<u32>,
    /// Per-SNI IW overrides (the TLS face of Akamai-style per-service
    /// configuration).
    pub sni_iw: Vec<(String, IwPolicy)>,
}

impl TlsConfig {
    /// Total chain length in bytes (the Fig. 2 metric).
    pub fn chain_len(&self) -> u32 {
        self.cert_lens.iter().sum()
    }
}

/// Everything that defines one simulated host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// TCP personality.
    pub os: OsProfile,
    /// Initial-window policy (the quantity under measurement).
    pub iw: IwPolicy,
    /// HTTP service on port 80, if deployed.
    pub http: Option<HttpConfig>,
    /// TLS service on port 443, if deployed.
    pub tls: Option<TlsConfig>,
    /// Path MTU towards this host, reported by the simulated
    /// constricting router via ICMP Fragmentation Needed (footnote 1).
    pub path_mtu: u32,
    /// Whether the host answers ICMP echo at all.
    pub icmp: bool,
}

impl HostConfig {
    /// A plain Linux IW10 web server — the common case.
    pub fn simple_web(root_size: u32) -> HostConfig {
        HostConfig {
            os: OsProfile::linux(),
            iw: IwPolicy::Segments(10),
            http: Some(HttpConfig {
                behavior: HttpBehavior::Direct {
                    root_size,
                    echo_404: true,
                },
                server_header: "nginx".into(),
                vhost_iw: Vec::new(),
            }),
            tls: None,
            path_mtu: 1500,
            icmp: true,
        }
    }
}

/// The well-known ports the study probes.
pub mod ports {
    /// HTTP.
    pub const HTTP: u16 = 80;
    /// HTTPS/TLS.
    pub const TLS: u16 = 443;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_len_sums() {
        let tls = TlsConfig {
            behavior: TlsBehavior::Serve,
            cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
            cert_lens: vec![1200, 800, 186],
            ocsp_len: None,
            sni_iw: Vec::new(),
        };
        assert_eq!(tls.chain_len(), 2186);
    }

    #[test]
    fn simple_web_has_http_only() {
        let h = HostConfig::simple_web(4096);
        assert!(h.http.is_some());
        assert!(h.tls.is_none());
        assert_eq!(h.iw, IwPolicy::Segments(10));
    }
}
