//! Cross-crate integration: scanner ↔ host stack ↔ population, driven
//! end-to-end, checked against ground truth.

use iw_core::testbed::{probe_host, TestbedSpec};
use iw_core::{MssVerdict, Protocol};
use iw_hoststack::{
    HostConfig, HttpBehavior, HttpConfig, IwPolicy, OsProfile, TlsBehavior, TlsConfig,
};
use iw_wire::tls::CipherSuite;

fn http_host(os: OsProfile, iw: IwPolicy, body: u32) -> HostConfig {
    HostConfig {
        os,
        iw,
        http: Some(HttpConfig {
            behavior: HttpBehavior::Direct {
                root_size: body,
                echo_404: false,
            },
            server_header: "it".into(),
            vhost_iw: Vec::new(),
        }),
        tls: None,
        path_mtu: 1500,
        icmp: true,
    }
}

fn tls_host(iw: IwPolicy, chain: Vec<u32>, behavior: TlsBehavior) -> HostConfig {
    HostConfig {
        os: OsProfile::linux(),
        iw,
        http: None,
        tls: Some(TlsConfig {
            behavior,
            cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
            cert_lens: chain,
            ocsp_len: Some(471),
            sni_iw: Vec::new(),
        }),
        path_mtu: 1500,
        icmp: true,
    }
}

#[test]
fn full_matrix_of_os_and_iw_policies() {
    // The §3.5 validation matrix as an automated test: every OS × IW
    // combination with plentiful data must be recovered exactly.
    for os in [
        OsProfile::linux(),
        OsProfile::windows(),
        OsProfile::embedded(),
        OsProfile::bsd(),
    ] {
        for iw in [
            IwPolicy::Segments(1),
            IwPolicy::Segments(2),
            IwPolicy::Segments(3),
            IwPolicy::Segments(4),
            IwPolicy::Segments(10),
            IwPolicy::Segments(25),
            IwPolicy::Segments(48),
            IwPolicy::Segments(64),
            IwPolicy::Bytes(4096),
            IwPolicy::MtuFill(1536),
            IwPolicy::Rfc6928,
        ] {
            let expected = iw.initial_segments(os.effective_mss(Some(64)));
            let spec = TestbedSpec::new(http_host(os.clone(), iw, 80_000), Protocol::Http);
            let (result, _) = probe_host(&spec);
            let result = result.expect("host answered");
            assert_eq!(
                result.primary_verdict(),
                Some(MssVerdict::Success(expected)),
                "os={} iw={iw:?}",
                os.name
            );
        }
    }
}

#[test]
fn dual_mss_classification_matrix() {
    use iw_core::HostVerdict;
    let cases = [
        (IwPolicy::Segments(10), HostVerdict::SegmentBased(10)),
        (IwPolicy::Segments(48), HostVerdict::SegmentBased(48)),
        (IwPolicy::Bytes(4096), HostVerdict::ByteBased(4096)),
        (IwPolicy::MtuFill(1536), HostVerdict::ByteBased(1536)),
        (IwPolicy::Rfc6928, HostVerdict::SegmentBased(10)),
    ];
    for (iw, expected) in cases {
        let spec = TestbedSpec::new(http_host(OsProfile::linux(), iw, 80_000), Protocol::Http);
        let (result, _) = probe_host(&spec);
        assert_eq!(result.unwrap().host_verdict, expected, "iw={iw:?}");
    }
}

#[test]
fn tls_chain_sizes_drive_success_vs_few_data() {
    // A 2.1 kB chain fills IW10 at MSS 64 comfortably.
    let spec = TestbedSpec::new(
        tls_host(IwPolicy::Segments(10), vec![1200, 900], TlsBehavior::Serve),
        Protocol::Tls,
    );
    let (result, _) = probe_host(&spec);
    assert_eq!(
        result.unwrap().primary_verdict(),
        Some(MssVerdict::Success(10))
    );

    // A 36 B chain with ECDHE + stapled OCSP still fills IW10: "these
    // calculations neglect the actual size of the server hello and
    // possible extensions that follow, yielding even more payload to
    // rely on" (§3.3). The flight, not the chain, is what counts.
    let spec = TestbedSpec::new(
        tls_host(IwPolicy::Segments(10), vec![36], TlsBehavior::Serve),
        Protocol::Tls,
    );
    let (result, _) = probe_host(&spec);
    assert_eq!(
        result.unwrap().primary_verdict(),
        Some(MssVerdict::Success(10))
    );

    // Strip the extras (static RSA, no OCSP): now the tiny chain leaves
    // the flight below the IW — few data with a meaningful lower bound.
    let bare = HostConfig {
        os: OsProfile::linux(),
        iw: IwPolicy::Segments(10),
        http: None,
        tls: Some(TlsConfig {
            behavior: TlsBehavior::Serve,
            cipher: CipherSuite::RSA_AES128_CBC,
            cert_lens: vec![36],
            ocsp_len: None,
            sni_iw: Vec::new(),
        }),
        path_mtu: 1500,
        icmp: true,
    };
    let (result, _) = probe_host(&TestbedSpec::new(bare, Protocol::Tls));
    match result.unwrap().primary_verdict().unwrap() {
        MssVerdict::FewData(lb) => assert!((1..10).contains(&lb), "bound {lb}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn sni_gate_flips_with_domain_knowledge() {
    // Without SNI: silent close → NoData.
    let host = tls_host(
        IwPolicy::Segments(10),
        vec![1500, 800],
        TlsBehavior::CloseWithoutSni,
    );
    let spec = TestbedSpec::new(host.clone(), Protocol::Tls);
    let (result, _) = probe_host(&spec);
    assert_eq!(
        result.unwrap().primary_verdict(),
        Some(MssVerdict::FewData(0)),
        "no SNI → zero bytes"
    );

    // With a domain (the Alexa case) the same host serves.
    let mut spec = TestbedSpec::new(host, Protocol::Tls);
    spec.domain = Some("www.known-site.example".into());
    let (result, _) = probe_host(&spec);
    assert_eq!(
        result.unwrap().primary_verdict(),
        Some(MssVerdict::Success(10))
    );
}

#[test]
fn vhost_iw_flips_with_domain_knowledge() {
    // A CDN edge (§4.3): IW 4 by default, per-property windows only a
    // request naming the property reaches.
    let mut host = http_host(OsProfile::linux(), IwPolicy::Segments(4), 80_000);
    if let Some(http) = &mut host.http {
        http.vhost_iw = vec![
            ("www.site.example".into(), IwPolicy::Segments(16)),
            ("media.site.example".into(), IwPolicy::Segments(32)),
        ];
    }
    let verdict = |domain: Option<&str>| {
        let mut spec = TestbedSpec::new(host.clone(), Protocol::Http);
        spec.domain = domain.map(Into::into);
        probe_host(&spec)
            .0
            .expect("host answered")
            .primary_verdict()
    };
    assert_eq!(verdict(None), Some(MssVerdict::Success(4)), "anonymous");
    assert_eq!(
        verdict(Some("www.site.example")),
        Some(MssVerdict::Success(16))
    );
    assert_eq!(
        verdict(Some("media.site.example")),
        Some(MssVerdict::Success(32))
    );
}

#[test]
fn http_redirect_chain_recovers_iw() {
    // Host serves a tiny 301 at "/" but a big page at the redirect
    // target — only the follow-up connection can fill the IW.
    let host = HostConfig {
        os: OsProfile::linux(),
        iw: IwPolicy::Segments(10),
        http: Some(HttpConfig {
            behavior: HttpBehavior::Redirect {
                host: "www.vhost.example".into(),
                path: "/landing.html".into(),
                target_size: 40_000,
            },
            server_header: "it".into(),
            vhost_iw: Vec::new(),
        }),
        tls: None,
        path_mtu: 1500,
        icmp: true,
    };
    let spec = TestbedSpec::new(host, Protocol::Http);
    let (result, _) = probe_host(&spec);
    let result = result.unwrap();
    assert_eq!(result.primary_verdict(), Some(MssVerdict::Success(10)));
    // The success must come from the redirected connection.
    let (_, outcomes) = &result.runs[0];
    match &outcomes[0] {
        iw_core::ProbeOutcome::Success { redirected, .. } => assert!(redirected),
        other => panic!("{other:?}"),
    }
}

#[test]
fn windows_servers_are_measured_via_observed_segments() {
    // IW 4 on Windows: announces 64, gets 536-byte segments back.
    let spec = TestbedSpec::new(
        http_host(OsProfile::windows(), IwPolicy::Segments(4), 80_000),
        Protocol::Http,
    );
    let (result, _) = probe_host(&spec);
    let result = result.unwrap();
    assert_eq!(result.primary_verdict(), Some(MssVerdict::Success(4)));
    match &result.runs[0].1[0] {
        iw_core::ProbeOutcome::Success { max_seg, bytes, .. } => {
            assert_eq!(*max_seg, 536, "observed segment size");
            assert_eq!(*bytes, 4 * 536);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn mute_and_reset_hosts_categorized() {
    let mut mute = http_host(OsProfile::linux(), IwPolicy::Segments(10), 0);
    mute.http.as_mut().unwrap().behavior = HttpBehavior::Mute;
    let (result, _) = probe_host(&TestbedSpec::new(mute, Protocol::Http));
    assert_eq!(
        result.unwrap().primary_verdict(),
        Some(MssVerdict::FewData(0)),
        "mute host = NoData row"
    );

    let mut rst = http_host(OsProfile::linux(), IwPolicy::Segments(10), 0);
    rst.http.as_mut().unwrap().behavior = HttpBehavior::Reset;
    let (result, _) = probe_host(&TestbedSpec::new(rst, Protocol::Http));
    assert_eq!(result.unwrap().primary_verdict(), Some(MssVerdict::Error));
}

#[test]
fn ablation_disabling_verification_misclassifies() {
    use iw_core::{ScanConfig, TargetSpec};
    // A TLS host that runs out of data but never FINs (waits for the
    // client): without the exhaustion check this becomes a false
    // "success" with an underestimate. Static RSA, no OCSP — the whole
    // flight is ~280 B, well under IW10's 640 B.
    let host = HostConfig {
        os: OsProfile::linux(),
        iw: IwPolicy::Segments(10),
        http: None,
        tls: Some(TlsConfig {
            behavior: TlsBehavior::Serve,
            cipher: CipherSuite::RSA_AES128_CBC,
            cert_lens: vec![200],
            ocsp_len: None,
            sni_iw: Vec::new(),
        }),
        path_mtu: 1500,
        icmp: true,
    };

    let run = |verify: bool| {
        let mut config = ScanConfig::study(Protocol::Tls, 1 << 8, 3);
        config.targets = TargetSpec::List(vec![(iw_core::testbed::TESTBED_HOST_IP, None)]);
        config.verify_exhaustion = verify;
        config.rate_pps = 1_000_000;
        let scanner = iw_core::Scanner::new(config);
        let host = host.clone();
        let factory = move |ip: u32| {
            (ip == iw_core::testbed::TESTBED_HOST_IP).then(|| {
                (
                    Box::new(iw_hoststack::Host::new(
                        iw_wire::ipv4::Ipv4Addr::from_u32(ip),
                        host.clone(),
                        3,
                    )) as Box<dyn iw_netsim::Endpoint>,
                    iw_netsim::LinkConfig::testbed(),
                )
            })
        };
        let mut sim = iw_netsim::Sim::new(scanner, factory, iw_netsim::sim::SimConfig::default());
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        sim.run_to_completion();
        sim.scanner().results().first().cloned().unwrap()
    };

    let with = run(true);
    match with.primary_verdict().unwrap() {
        MssVerdict::FewData(_) => {}
        other => panic!("verification on: {other:?}"),
    }
    let without = run(false);
    match without.primary_verdict().unwrap() {
        MssVerdict::Success(wrong) => {
            assert!(wrong < 10, "the ablation reports a confident underestimate");
        }
        other => panic!("verification off: {other:?}"),
    }
}
