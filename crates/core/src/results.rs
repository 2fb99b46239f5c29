//! Result types for probes, hosts and whole scans.

use crate::config::ScanConfig;
use iw_telemetry::json::{push_array, push_bool_field, push_u64_field};
use iw_telemetry::OutcomeKind;
use std::fmt::Write;

/// What a scan probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// HTTP on 80/tcp (§3.2).
    Http,
    /// TLS on 443/tcp (§3.3).
    Tls,
    /// Single-packet SYN port scan — the unmodified-ZMap baseline (§3.4).
    PortScan,
    /// RFC 1191 ICMP path-MTU discovery (footnote 1).
    IcmpMtu,
}

impl Protocol {
    /// The destination port probed (0 for ICMP).
    pub fn port(self) -> u16 {
        match self {
            Protocol::Http => 80,
            Protocol::Tls => 443,
            Protocol::PortScan => 80,
            Protocol::IcmpMtu => 0,
        }
    }
}

/// Why a probe errored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// RST after the handshake completed.
    MidConnectionReset,
    /// Response failed to parse at the wire level.
    Malformed,
    /// The three probes of an MSS run disagreed irreconcilably.
    Inconsistent,
    /// An in-session SYN (probe ≥ 1, follow-up or retry connection) went
    /// unanswered: the host was reachable moments ago but stopped
    /// completing handshakes.
    HandshakeTimeout,
    /// The resilience layer gave up waiting (session watchdog deadline or
    /// concurrency-cap eviction) before the probe could conclude.
    CollectTimeout,
    /// An ICMP destination-unreachable fast-failed the probe.
    IcmpUnreachable,
}

impl ErrorKind {
    /// Every kind, in a stable order (parallel to [`ErrorKindCounts`]).
    pub const ALL: [ErrorKind; 6] = [
        ErrorKind::MidConnectionReset,
        ErrorKind::Malformed,
        ErrorKind::Inconsistent,
        ErrorKind::HandshakeTimeout,
        ErrorKind::CollectTimeout,
        ErrorKind::IcmpUnreachable,
    ];

    /// Stable snake_case name (metric suffixes, reports).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::MidConnectionReset => "mid_connection_reset",
            ErrorKind::Malformed => "malformed",
            ErrorKind::Inconsistent => "inconsistent",
            ErrorKind::HandshakeTimeout => "handshake_timeout",
            ErrorKind::CollectTimeout => "collect_timeout",
            ErrorKind::IcmpUnreachable => "icmp_unreachable",
        }
    }

    /// Position in [`ErrorKind::ALL`] (the tests assert this match and
    /// the array stay in sync).
    pub fn index(self) -> usize {
        match self {
            ErrorKind::MidConnectionReset => 0,
            ErrorKind::Malformed => 1,
            ErrorKind::Inconsistent => 2,
            ErrorKind::HandshakeTimeout => 3,
            ErrorKind::CollectTimeout => 4,
            ErrorKind::IcmpUnreachable => 5,
        }
    }
}

/// Per-[`ErrorKind`] probe counts: the loss-mode composition of a scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorKindCounts {
    /// Counts parallel to [`ErrorKind::ALL`].
    pub counts: [u64; 6],
}

impl ErrorKindCounts {
    /// Record one errored probe.
    pub fn note(&mut self, kind: ErrorKind) {
        self.counts[kind.index()] += 1;
    }

    /// Count for one kind.
    pub fn get(&self, kind: ErrorKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total errored probes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl std::ops::AddAssign<&ErrorKindCounts> for ErrorKindCounts {
    fn add_assign(&mut self, rhs: &ErrorKindCounts) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += b;
        }
    }
}

/// The outcome of one probe (one or two TCP connections).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeOutcome {
    /// The IW was filled and verified exhausted.
    Success {
        /// Estimated IW in segments: ⌊bytes / max_seg⌋.
        segments: u32,
        /// Distinct payload bytes received before the retransmission.
        bytes: u32,
        /// Largest segment observed (the effective MSS).
        max_seg: u32,
        /// A sequence hole was still open at decision time.
        loss_suspected: bool,
        /// Out-of-order arrival was observed.
        reordered: bool,
        /// The estimate came from a follow-up connection (redirect/bloat).
        redirected: bool,
    },
    /// The host ran out of data before filling its IW.
    FewData {
        /// Lower bound on the IW in segments (max(1, ⌊bytes/max_seg⌋)
        /// when any data arrived; 0 = the "NoData" row).
        lower_bound: u32,
        /// Distinct payload bytes received.
        bytes: u32,
        /// Largest segment observed (0 when no data).
        max_seg: u32,
        /// A FIN proved the host was out of data.
        fin_seen: bool,
        /// The outcome came from a follow-up connection.
        redirected: bool,
    },
    /// Connection failed after establishment.
    Error {
        /// Failure class.
        kind: ErrorKind,
    },
    /// No usable SYN-ACK (silent drop or RST-to-SYN).
    Unreachable,
}

impl ProbeOutcome {
    /// Rank for "keep the better of two connections" comparisons.
    pub fn quality(&self) -> (u8, u32) {
        match self {
            ProbeOutcome::Success { segments, .. } => (3, *segments),
            ProbeOutcome::FewData { lower_bound, .. } => (2, *lower_bound),
            ProbeOutcome::Error { .. } => (1, 0),
            ProbeOutcome::Unreachable => (0, 0),
        }
    }

    /// The session-event classification of this outcome.
    pub fn outcome_kind(&self) -> OutcomeKind {
        match self {
            ProbeOutcome::Success { .. } => OutcomeKind::Success,
            ProbeOutcome::FewData { .. } => OutcomeKind::FewData,
            ProbeOutcome::Error { .. } => OutcomeKind::Error,
            ProbeOutcome::Unreachable => OutcomeKind::Unreachable,
        }
    }
}

/// The per-MSS verdict after the 2-of-3-maximum vote (§4 "Dataset").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MssVerdict {
    /// IW estimated (segments).
    Success(u32),
    /// Only a lower bound (segments; 0 = no data).
    FewData(u32),
    /// Errors dominated or probes disagreed.
    Error,
    /// Host never completed a handshake.
    Unreachable,
}

impl MssVerdict {
    /// The session-event classification of this verdict.
    pub fn outcome_kind(self) -> OutcomeKind {
        match self {
            MssVerdict::Success(_) => OutcomeKind::Success,
            MssVerdict::FewData(_) => OutcomeKind::FewData,
            MssVerdict::Error => OutcomeKind::Error,
            MssVerdict::Unreachable => OutcomeKind::Unreachable,
        }
    }
}

/// Cross-MSS interpretation of a host's IW configuration (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostVerdict {
    /// IW configured in segments: same count at both MSS values.
    SegmentBased(u32),
    /// IW configured in bytes: segment count halves when MSS doubles.
    /// Value = estimated byte budget (segments₆₄ × 64).
    ByteBased(u32),
    /// Successful at both MSS values but fitting neither pattern.
    OtherScaling {
        /// Estimate at MSS 64.
        at_64: u32,
        /// Estimate at MSS 128.
        at_128: u32,
    },
    /// Could not estimate at both MSS values.
    Unclassified,
}

/// The complete record for one probed host.
#[derive(Debug, Clone)]
pub struct HostResult {
    /// Target address (scan-space coordinates).
    pub ip: u32,
    /// Protocol scanned.
    pub protocol: Protocol,
    /// Raw outcomes per MSS run: `(mss, one outcome per probe)`.
    pub runs: Vec<(u16, Vec<ProbeOutcome>)>,
    /// Voted verdict per MSS (parallel to `runs`).
    pub verdicts: Vec<(u16, MssVerdict)>,
    /// Cross-MSS classification.
    pub host_verdict: HostVerdict,
}

const _: () = assert!(
    std::mem::size_of::<HostResult>() <= 72,
    "a scan holds one HostResult per responder until harvest (~56 M at \
     the paper's full-IPv4 scale: 56 MB per byte here)"
);

impl HostResult {
    /// The verdict of the (primary) MSS-64 run.
    pub fn primary_verdict(&self) -> Option<MssVerdict> {
        self.verdicts.first().map(|(_, v)| *v)
    }

    /// The successful IW estimate at MSS 64, if any.
    pub fn iw_estimate(&self) -> Option<u32> {
        match self.primary_verdict() {
            Some(MssVerdict::Success(iw)) => Some(iw),
            _ => None,
        }
    }
}

/// Result of an ICMP path-MTU probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtuResult {
    /// Target address.
    pub ip: u32,
    /// Discovered path MTU (bytes).
    pub mtu: u32,
}

/// Aggregate counts for one scan — the raw material of Table 1.
#[derive(Debug, Clone, Default)]
pub struct ScanSummary {
    /// Targets probed (SYNs to distinct addresses).
    pub targets: u64,
    /// Hosts that completed a handshake and allowed data exchange.
    pub reachable: u64,
    /// Reachable hosts with a successful (voted) estimate at MSS 64.
    pub success: u64,
    /// Reachable hosts that ran out of data.
    pub few_data: u64,
    /// Reachable hosts with errors.
    pub error: u64,
    /// Hosts answering SYN with RST (counted as not reachable).
    pub refused: u64,
    /// Per-kind breakdown of errored probes across all runs (not hosts:
    /// one host contributes up to `total_probes` entries).
    pub error_kinds: ErrorKindCounts,
}

impl std::ops::AddAssign<&ScanSummary> for ScanSummary {
    fn add_assign(&mut self, rhs: &ScanSummary) {
        self.targets += rhs.targets;
        self.reachable += rhs.reachable;
        self.success += rhs.success;
        self.few_data += rhs.few_data;
        self.error += rhs.error;
        self.refused += rhs.refused;
        self.error_kinds += &rhs.error_kinds;
    }
}

impl ScanSummary {
    /// Percentage helpers over the reachable denominator.
    pub fn rates(&self) -> (f64, f64, f64) {
        let d = self.reachable.max(1) as f64;
        (
            self.success as f64 / d * 100.0,
            self.few_data as f64 / d * 100.0,
            self.error as f64 / d * 100.0,
        )
    }
}

/// A scan's records against the ground truth (§3.5's validation): every
/// host that offers the protocol and every record lands in one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Primary verdict `Success(n)` with `n` equal to the truth.
    pub exact: u64,
    /// `Success(n)` below the truth (the paper's tail-loss mode).
    pub underestimate: u64,
    /// `Success(n)` above the truth, or a `FewData(lb)` bound above it.
    pub overestimate: u64,
    /// Any other primary verdict: a bound at or below the truth, an
    /// error, or no verdict.
    pub inconclusive: u64,
    /// A host without a record.
    pub missed: u64,
    /// A record at an address where no such host lives.
    pub spurious: u64,
    /// A second record for a host that already has one.
    pub duplicate: u64,
}

impl Confusion {
    /// Tally `results` against `hosts`, the ascending addresses of every
    /// host offering the scanned protocol. `truth(ip, mss)` is the window
    /// in segments the host at `ip` sends at `mss`; it is asked at the
    /// MSS of the record's primary verdict.
    pub fn new(
        hosts: impl IntoIterator<Item = u32>,
        results: &[HostResult],
        truth: impl Fn(u32, u16) -> u32,
    ) -> Confusion {
        let mut records: Vec<&HostResult> = results.iter().collect();
        records.sort_by_key(|r| r.ip);
        let mut records = records.into_iter().peekable();
        let mut c = Confusion::default();
        for ip in hosts {
            while records.next_if(|r| r.ip < ip).is_some() {
                c.spurious += 1;
            }
            let Some(record) = records.next_if(|r| r.ip == ip) else {
                c.missed += 1;
                continue;
            };
            let cell = match record.verdicts.first() {
                Some(&(mss, MssVerdict::Success(n))) => match n.cmp(&truth(ip, mss)) {
                    std::cmp::Ordering::Equal => &mut c.exact,
                    std::cmp::Ordering::Less => &mut c.underestimate,
                    std::cmp::Ordering::Greater => &mut c.overestimate,
                },
                Some(&(mss, MssVerdict::FewData(lb))) if lb > truth(ip, mss) => &mut c.overestimate,
                _ => &mut c.inconclusive,
            };
            *cell += 1;
            while records.next_if(|r| r.ip == ip).is_some() {
                c.duplicate += 1;
            }
        }
        c.spurious += records.count() as u64;
        c
    }

    /// Tally a scan of `population` under `config` over the hosts among
    /// `targeted`, the addresses its generator yields (in any order),
    /// that `config` admits.
    pub(crate) fn of_population(
        population: &iw_internet::Population,
        config: &ScanConfig,
        targeted: impl Iterator<Item = u32>,
        results: &[HostResult],
    ) -> Confusion {
        let offers = |ip: &u32| {
            population
                .ground_truth(*ip)
                .is_some_and(|gt| match config.protocol {
                    Protocol::Tls => gt.tls,
                    _ => gt.http,
                })
        };
        // Hosts are sparse, so the sample is asked of hosts only.
        let mut hosts: Vec<u32> = targeted
            .filter(offers)
            .filter(|&ip| config.admits(ip))
            .collect();
        hosts.sort_unstable();
        // `hosts` holds only addresses where a host lives; a window of 0
        // would turn any estimate there into an overestimate. The cohort
        // holds the two fields a window needs: building the host's whole
        // configuration would allocate its services per record.
        Confusion::new(hosts, results, |ip, mss| {
            population.cohort_at(ip).map_or(0, |(_, cohort)| {
                let os = cohort.os.profile();
                cohort.iw.initial_segments(os.effective_mss(Some(mss)))
            })
        })
    }

    /// Append the cells as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        push_members(
            out,
            &[
                ("exact", self.exact),
                ("underestimate", self.underestimate),
                ("overestimate", self.overestimate),
                ("inconclusive", self.inconclusive),
                ("missed", self.missed),
                ("spurious", self.spurious),
                ("duplicate", self.duplicate),
            ],
            &[],
        );
        out.push('}');
    }
}

// The on-disk JSON of `iwscan scan --json` and `exp_all.json`: compact,
// members in declaration order, enums externally tagged (a unit variant
// is its name as a string, a data variant `{"Name":payload}`; `{:?}` of a
// unit variant of `Protocol` or `ErrorKind` is that name). The shapes are
// pinned by `json_shapes_are_stable` and `tests/golden`.

/// `"k":n` members then `"k":bool` members, comma-separated.
fn push_members(out: &mut String, nums: &[(&str, u64)], flags: &[(&str, bool)]) {
    for (i, (key, value)) in nums.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64_field(out, key, *value);
    }
    for (key, value) in flags {
        out.push(',');
        push_bool_field(out, key, *value);
    }
}

/// `{"tag":n}`.
fn push_tagged_u32(out: &mut String, tag: &str, value: u32) {
    out.push('{');
    push_u64_field(out, tag, u64::from(value));
    out.push('}');
}

impl ProbeOutcome {
    fn write_json(&self, out: &mut String) {
        match *self {
            ProbeOutcome::Success {
                segments,
                bytes,
                max_seg,
                loss_suspected,
                reordered,
                redirected,
            } => {
                out.push_str("{\"Success\":{");
                push_members(
                    out,
                    &[
                        ("segments", u64::from(segments)),
                        ("bytes", u64::from(bytes)),
                        ("max_seg", u64::from(max_seg)),
                    ],
                    &[
                        ("loss_suspected", loss_suspected),
                        ("reordered", reordered),
                        ("redirected", redirected),
                    ],
                );
                out.push_str("}}");
            }
            ProbeOutcome::FewData {
                lower_bound,
                bytes,
                max_seg,
                fin_seen,
                redirected,
            } => {
                out.push_str("{\"FewData\":{");
                push_members(
                    out,
                    &[
                        ("lower_bound", u64::from(lower_bound)),
                        ("bytes", u64::from(bytes)),
                        ("max_seg", u64::from(max_seg)),
                    ],
                    &[("fin_seen", fin_seen), ("redirected", redirected)],
                );
                out.push_str("}}");
            }
            ProbeOutcome::Error { kind } => {
                let _ = write!(out, "{{\"Error\":{{\"kind\":\"{kind:?}\"}}}}");
            }
            ProbeOutcome::Unreachable => out.push_str("\"Unreachable\""),
        }
    }
}

impl MssVerdict {
    fn write_json(self, out: &mut String) {
        match self {
            MssVerdict::Success(iw) => push_tagged_u32(out, "Success", iw),
            MssVerdict::FewData(bound) => push_tagged_u32(out, "FewData", bound),
            MssVerdict::Error => out.push_str("\"Error\""),
            MssVerdict::Unreachable => out.push_str("\"Unreachable\""),
        }
    }
}

impl HostVerdict {
    fn write_json(self, out: &mut String) {
        match self {
            HostVerdict::SegmentBased(iw) => push_tagged_u32(out, "SegmentBased", iw),
            HostVerdict::ByteBased(bytes) => push_tagged_u32(out, "ByteBased", bytes),
            HostVerdict::OtherScaling { at_64, at_128 } => {
                out.push_str("{\"OtherScaling\":{");
                push_members(
                    out,
                    &[("at_64", u64::from(at_64)), ("at_128", u64::from(at_128))],
                    &[],
                );
                out.push_str("}}");
            }
            HostVerdict::Unclassified => out.push_str("\"Unclassified\""),
        }
    }
}

impl HostResult {
    /// Append this record as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        push_u64_field(out, "ip", u64::from(self.ip));
        let _ = write!(out, ",\"protocol\":\"{:?}\",\"runs\":", self.protocol);
        push_array(out, &self.runs, |(mss, probes), out| {
            let _ = write!(out, "[{mss},");
            push_array(out, probes, ProbeOutcome::write_json);
            out.push(']');
        });
        out.push_str(",\"verdicts\":");
        push_array(out, &self.verdicts, |(mss, verdict), out| {
            let _ = write!(out, "[{mss},");
            verdict.write_json(out);
            out.push(']');
        });
        out.push_str(",\"host_verdict\":");
        self.host_verdict.write_json(out);
        out.push('}');
    }

    /// The `--json` file: `results` as one compact JSON array.
    pub fn array_to_json(results: &[HostResult]) -> String {
        let mut out = String::new();
        push_array(&mut out, results, HostResult::write_json);
        out
    }
}

impl ScanSummary {
    /// Append the summary as one compact JSON object.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        push_members(
            out,
            &[
                ("targets", self.targets),
                ("reachable", self.reachable),
                ("success", self.success),
                ("few_data", self.few_data),
                ("error", self.error),
                ("refused", self.refused),
            ],
            &[],
        );
        out.push_str(",\"error_kinds\":{\"counts\":");
        push_array(out, &self.error_kinds.counts, |count, out| {
            let _ = write!(out, "{count}");
        });
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_ordering() {
        let success = ProbeOutcome::Success {
            segments: 10,
            bytes: 640,
            max_seg: 64,
            loss_suspected: false,
            reordered: false,
            redirected: false,
        };
        let few = ProbeOutcome::FewData {
            lower_bound: 7,
            bytes: 450,
            max_seg: 64,
            fin_seen: true,
            redirected: false,
        };
        let err = ProbeOutcome::Error {
            kind: ErrorKind::MidConnectionReset,
        };
        assert!(success.quality() > few.quality());
        assert!(few.quality() > err.quality());
        assert!(err.quality() > ProbeOutcome::Unreachable.quality());
    }

    #[test]
    fn summary_rates() {
        let s = ScanSummary {
            targets: 1000,
            reachable: 200,
            success: 100,
            few_data: 96,
            error: 4,
            refused: 10,
            ..ScanSummary::default()
        };
        let (su, fd, er) = s.rates();
        assert!((su - 50.0).abs() < 1e-9);
        assert!((fd - 48.0).abs() < 1e-9);
        assert!((er - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_add_assign_sums_every_field() {
        let mut a = ScanSummary {
            targets: 1,
            reachable: 2,
            success: 3,
            few_data: 4,
            error: 5,
            refused: 6,
            ..ScanSummary::default()
        };
        a.error_kinds.note(ErrorKind::HandshakeTimeout);
        let mut b = ScanSummary {
            targets: 10,
            reachable: 20,
            success: 30,
            few_data: 40,
            error: 50,
            refused: 60,
            ..ScanSummary::default()
        };
        b.error_kinds.note(ErrorKind::HandshakeTimeout);
        b.error_kinds.note(ErrorKind::IcmpUnreachable);
        a += &b;
        assert_eq!(
            (
                a.targets,
                a.reachable,
                a.success,
                a.few_data,
                a.error,
                a.refused
            ),
            (11, 22, 33, 44, 55, 66)
        );
        assert_eq!(a.error_kinds.get(ErrorKind::HandshakeTimeout), 2);
        assert_eq!(a.error_kinds.get(ErrorKind::IcmpUnreachable), 1);
        assert_eq!(a.error_kinds.total(), 3);
    }

    #[test]
    fn error_kind_names_and_indexes_are_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (i, kind) in ErrorKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
        }
    }

    #[test]
    fn outcome_kind_mappings() {
        assert_eq!(MssVerdict::Success(4).outcome_kind(), OutcomeKind::Success);
        assert_eq!(MssVerdict::FewData(1).outcome_kind(), OutcomeKind::FewData);
        assert_eq!(MssVerdict::Error.outcome_kind(), OutcomeKind::Error);
        assert_eq!(
            MssVerdict::Unreachable.outcome_kind(),
            OutcomeKind::Unreachable
        );
        assert_eq!(
            ProbeOutcome::Unreachable.outcome_kind(),
            OutcomeKind::Unreachable
        );
    }

    fn few_data_result() -> HostResult {
        HostResult {
            ip: 42,
            protocol: Protocol::Http,
            runs: vec![(
                64,
                vec![ProbeOutcome::FewData {
                    lower_bound: 7,
                    bytes: 470,
                    max_seg: 64,
                    fin_seen: true,
                    redirected: false,
                }],
            )],
            verdicts: vec![(64, MssVerdict::FewData(7))],
            host_verdict: HostVerdict::Unclassified,
        }
    }

    #[test]
    fn json_round_trip() {
        use iw_telemetry::json::{parse_json, JsonValue};
        let mut json = String::new();
        few_data_result().write_json(&mut json);
        assert_eq!(
            json,
            "{\"ip\":42,\"protocol\":\"Http\",\"runs\":[[64,[{\"FewData\":{\"lower_bound\":7,\
             \"bytes\":470,\"max_seg\":64,\"fin_seen\":true,\"redirected\":false}}]]],\
             \"verdicts\":[[64,{\"FewData\":7}]],\"host_verdict\":\"Unclassified\"}"
        );
        let back = parse_json(&json).expect("the writer emits the parser's dialect");
        assert_eq!(back.get("ip").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(
            back.get("verdicts").and_then(JsonValue::as_arr),
            Some(
                &[JsonValue::Arr(vec![
                    JsonValue::Num(64),
                    JsonValue::Obj(vec![("FewData".into(), JsonValue::Num(7))]),
                ])][..]
            )
        );
        assert_eq!(
            back.get("host_verdict").and_then(JsonValue::as_str),
            Some("Unclassified")
        );

        let two = HostResult::array_to_json(&[few_data_result(), few_data_result()]);
        assert_eq!(two, format!("[{json},{json}]"));
        assert_eq!(HostResult::array_to_json(&[]), "[]");
    }

    /// Every variant renders as the `serde` derive it replaced rendered it
    /// (strings recorded from that build).
    #[test]
    fn json_shapes_are_stable() {
        fn json(write: impl FnOnce(&mut String)) -> String {
            let mut out = String::new();
            write(&mut out);
            out
        }
        let success = ProbeOutcome::Success {
            segments: 10,
            bytes: 640,
            max_seg: 64,
            loss_suspected: false,
            reordered: true,
            redirected: false,
        };
        assert_eq!(
            json(|o| success.write_json(o)),
            "{\"Success\":{\"segments\":10,\"bytes\":640,\"max_seg\":64,\
             \"loss_suspected\":false,\"reordered\":true,\"redirected\":false}}"
        );
        assert_eq!(
            json(|o| ProbeOutcome::Unreachable.write_json(o)),
            "\"Unreachable\""
        );
        let kinds = [
            "MidConnectionReset",
            "Malformed",
            "Inconsistent",
            "HandshakeTimeout",
            "CollectTimeout",
            "IcmpUnreachable",
        ];
        for (kind, name) in ErrorKind::ALL.into_iter().zip(kinds) {
            assert_eq!(
                json(|o| ProbeOutcome::Error { kind }.write_json(o)),
                format!("{{\"Error\":{{\"kind\":\"{name}\"}}}}")
            );
        }
        for (verdict, want) in [
            (MssVerdict::Success(10), "{\"Success\":10}"),
            (MssVerdict::FewData(7), "{\"FewData\":7}"),
            (MssVerdict::Error, "\"Error\""),
            (MssVerdict::Unreachable, "\"Unreachable\""),
        ] {
            assert_eq!(json(|o| verdict.write_json(o)), want);
        }
        for (verdict, want) in [
            (HostVerdict::SegmentBased(10), "{\"SegmentBased\":10}"),
            (HostVerdict::ByteBased(640), "{\"ByteBased\":640}"),
            (
                HostVerdict::OtherScaling {
                    at_64: 10,
                    at_128: 7,
                },
                "{\"OtherScaling\":{\"at_64\":10,\"at_128\":7}}",
            ),
            (HostVerdict::Unclassified, "\"Unclassified\""),
        ] {
            assert_eq!(json(|o| verdict.write_json(o)), want);
        }
        for (protocol, want) in [
            (Protocol::Http, "Http"),
            (Protocol::Tls, "Tls"),
            (Protocol::PortScan, "PortScan"),
            (Protocol::IcmpMtu, "IcmpMtu"),
        ] {
            let record = HostResult {
                protocol,
                ..few_data_result()
            };
            let head = format!("{{\"ip\":42,\"protocol\":\"{want}\",\"runs\":");
            assert!(json(|o| record.write_json(o)).starts_with(&head));
        }
        let mut summary = ScanSummary {
            targets: 1000,
            reachable: 200,
            success: 100,
            few_data: 96,
            error: 4,
            refused: 10,
            ..ScanSummary::default()
        };
        summary.error_kinds.note(ErrorKind::HandshakeTimeout);
        assert_eq!(
            json(|o| summary.write_json(o)),
            "{\"targets\":1000,\"reachable\":200,\"success\":100,\"few_data\":96,\"error\":4,\
             \"refused\":10,\"error_kinds\":{\"counts\":[0,0,0,1,0,0]}}"
        );
    }

    #[test]
    fn confusion_puts_each_record_in_one_cell() {
        let record = |ip: u32, mss: u16, verdict: MssVerdict| HostResult {
            ip,
            protocol: Protocol::Http,
            runs: vec![],
            verdicts: vec![(mss, verdict)],
            host_verdict: HostVerdict::Unclassified,
        };
        // Out of address order on purpose; 7 has no record, 8 has two,
        // 0 and 100 are no host's.
        let results = [
            record(100, 64, MssVerdict::Success(10)),
            record(2, 64, MssVerdict::Success(9)),
            record(1, 64, MssVerdict::Success(10)),
            record(3, 64, MssVerdict::Success(11)),
            record(4, 64, MssVerdict::FewData(12)),
            record(5, 64, MssVerdict::FewData(7)),
            record(6, 64, MssVerdict::Error),
            record(8, 64, MssVerdict::Success(10)),
            record(8, 64, MssVerdict::Success(10)),
            record(9, 128, MssVerdict::Success(5)),
            record(0, 64, MssVerdict::Unreachable),
        ];
        // A byte-configured fleet: 10 segments at MSS 64, 5 at MSS 128.
        let truth = |_ip: u32, mss: u16| 640 / u32::from(mss);
        let mut json = String::new();
        Confusion::new(1..=9, &results, truth).write_json(&mut json);
        assert_eq!(
            json,
            "{\"exact\":3,\"underestimate\":1,\"overestimate\":2,\"inconclusive\":2,\
             \"missed\":1,\"spurious\":2,\"duplicate\":1}"
        );
    }

    #[test]
    fn protocol_ports() {
        assert_eq!(Protocol::Http.port(), 80);
        assert_eq!(Protocol::Tls.port(), 443);
    }
}
