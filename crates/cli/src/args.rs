//! Argument parsing (hand-rolled: the tool has four subcommands and a
//! dozen flags — a parser generator would be the heaviest dependency in
//! the workspace).

use core::fmt;

/// Usage text.
pub const USAGE: &str = "\
iwscan — TCP initial-window measurement (IMC'17 reproduction)

USAGE:
    iwscan <COMMAND> [FLAGS]

COMMANDS:
    scan        Scan a synthetic Internet (full space or a sample)
    probe       Measure one testbed host with a known configuration
    alexa       Scan the synthetic popularity list (known domains)
    mtu         RFC 1191 ICMP path-MTU discovery scan
    inspect     Summarize a telemetry file (stream/flight JSONL or trace JSON)
    help        Show this message

SCAN FLAGS:
    --protocol <http|tls|portscan>   protocol module   [default: http]
    --scale <small|medium|large>     world size        [default: small]
    --seed <u64>                     scan + world seed [default: 319033367]
    --sample <(0, 1]>                fraction of the space to probe [default: 1]
    --threads <n>                    shard worlds, one thread each [default: all cores]
    --shards <n>                     alias for --threads
    --loss <factor>                  link-loss scale, finite and ≥ 0 [default: 0]
    --json <path>                    write per-host results as JSON
    --quiet                          suppress the histogram
    --monitor                        print ZMap-style progress lines
    --metrics-out <path>             write the telemetry snapshot as JSON
    --pcap <path>                    record the scan and save it as pcap
    --syn-retries <n>                SYN retransmits for silent targets [default: 0]
    --probe-retries <n>              retry budget per probe connection  [default: 0]
    --watchdog <secs>                per-session deadline, ≥ 17 or 0 = off [default: 0]
    --max-sessions <n>               live-session cap, 0 = unbounded    [default: 0]
    --trace-out <path>               write session spans as Chrome trace JSON
    --stream-out <path>              stream metric deltas + results as JSONL
    --flight-out <path>              dump failed-session flight records as JSONL,
                                     from a rerun that watches the failed hosts
    --checkpoint-out <path>          write the campaign file before the run starts
    --resume <path>                  check a campaign file against this command, then
                                     rerun its campaign from event zero
    --kill-after-events <n>          crash injection: die after n events per shard
    --abort-after <secs>             graceful shutdown at this virtual time

INSPECT FLAGS:
    <file>                           telemetry file to summarize
    --filter <substr>                keep only records containing the substring
    --top <n>                        breakdown rows per section [default: 10]

PROBE FLAGS:
    --iw <n>                         segments          [default: 10]
    --policy <segments|bytes|mtufill|rfc6928>          [default: segments]
    --os <linux|windows|embedded|bsd>                  [default: linux]
    --protocol <http|tls>                              [default: http]
    --body <bytes>                   response size     [default: 50000]
    --loss <0..=1>                   random loss probability [default: 0]
    --pcap <path>                    save the packet trace as pcap
    --seed <u64>                                       [default: 7]

ALEXA FLAGS:
    --n <count>                      list length       [default: 400]
    --protocol <http|tls>                              [default: http]
    --scale, --seed                  as for scan
";

/// Parse failure.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// `help`/`--help` was requested (not an error).
    HelpRequested,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue(String, String),
    /// A value parsed but means nothing: `(flag, value, what it must be)`.
    OutOfRange(String, String, &'static str),
    /// No subcommand given.
    NoCommand,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::HelpRequested => write!(f, "help requested"),
            ParseError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            ParseError::MissingValue(flag) => write!(f, "flag '{flag}' needs a value"),
            ParseError::BadValue(flag, v) => write!(f, "bad value '{v}' for '{flag}'"),
            ParseError::OutOfRange(flag, v, must) => {
                write!(f, "bad value '{v}' for '{flag}': must be {must}")
            }
            ParseError::NoCommand => write!(f, "no command given"),
        }
    }
}

/// Scan-style options shared by `scan`, `alexa` and `mtu`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanArgs {
    /// Protocol name (validated by the command layer).
    pub protocol: String,
    /// World scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// Sampling fraction.
    pub sample: f64,
    /// Shard threads (0 = auto). `--shards` is an alias.
    pub threads: u32,
    /// Link-loss scale.
    pub loss: f64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Suppress histogram output.
    pub quiet: bool,
    /// Print ZMap-style progress lines while scanning.
    pub monitor: bool,
    /// Optional telemetry-snapshot output path.
    pub metrics_out: Option<String>,
    /// Optional pcap output path (records the scan's wire traffic).
    pub pcap: Option<String>,
    /// SYN retransmissions for silent targets (0 = single SYN).
    pub syn_retries: u32,
    /// Per-probe connection retry budget (0 = no retries).
    pub probe_retries: u32,
    /// Per-session watchdog deadline in seconds (0 = no deadline).
    pub watchdog_secs: u64,
    /// Concurrent-session cap (0 = unbounded).
    pub max_sessions: usize,
    /// Optional Chrome-trace (span profile) output path.
    pub trace_out: Option<String>,
    /// Optional streaming-telemetry JSONL output path.
    pub stream_out: Option<String>,
    /// Optional flight-recorder JSONL output path.
    pub flight_out: Option<String>,
    /// Optional campaign-file output path.
    pub checkpoint_out: Option<String>,
    /// Rerun the campaign this campaign file names.
    pub resume: Option<String>,
    /// Crash injection: stop each shard after this many events (0 = off).
    pub kill_after_events: u64,
    /// Graceful-shutdown deadline in virtual seconds (0 = off).
    pub abort_after_secs: u64,
    /// Alexa list length.
    pub n: usize,
}

impl Default for ScanArgs {
    fn default() -> Self {
        ScanArgs {
            protocol: "http".into(),
            scale: "small".into(),
            seed: 0x1307_2017,
            sample: 1.0,
            threads: 0,
            loss: 0.0,
            json: None,
            quiet: false,
            monitor: false,
            metrics_out: None,
            pcap: None,
            syn_retries: 0,
            probe_retries: 0,
            watchdog_secs: 0,
            max_sessions: 0,
            trace_out: None,
            stream_out: None,
            flight_out: None,
            checkpoint_out: None,
            resume: None,
            kill_after_events: 0,
            abort_after_secs: 0,
            n: 400,
        }
    }
}

/// Offline telemetry-file summarizer options.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectArgs {
    /// The file to summarize (stream/flight JSONL or Chrome trace JSON).
    pub file: String,
    /// Keep only records containing this substring.
    pub filter: Option<String>,
    /// Breakdown rows to show per section.
    pub top: usize,
}

/// Probe-style options.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeArgs {
    /// IW magnitude (segments or bytes, per `policy`).
    pub iw: u32,
    /// Policy name.
    pub policy: String,
    /// OS personality name.
    pub os: String,
    /// Protocol name.
    pub protocol: String,
    /// Response body size.
    pub body: u32,
    /// Random loss probability.
    pub loss: f64,
    /// Optional pcap output path.
    pub pcap: Option<String>,
    /// Seed.
    pub seed: u64,
}

impl Default for ProbeArgs {
    fn default() -> Self {
        ProbeArgs {
            iw: 10,
            policy: "segments".into(),
            os: "linux".into(),
            protocol: "http".into(),
            body: 50_000,
            loss: 0.0,
            pcap: None,
            seed: 7,
        }
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Full-space / sampled scan.
    Scan(ScanArgs),
    /// Single-host testbed probe.
    Probe(ProbeArgs),
    /// Alexa-list scan.
    Alexa(ScanArgs),
    /// ICMP path-MTU scan.
    Mtu(ScanArgs),
    /// Offline telemetry-file summary.
    Inspect(InspectArgs),
}

/// Top-level parsed CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The command to run.
    pub command: Command,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError::BadValue(flag.to_string(), v.to_string()))
}

/// Parse a float that must satisfy `ok` (described by `must` in the
/// error): `f64` parsing also accepts `NaN`, `inf` and negatives.
fn parse_bounded(
    flag: &str,
    v: &str,
    ok: fn(f64) -> bool,
    must: &'static str,
) -> Result<f64, ParseError> {
    let x: f64 = parse_num(flag, v)?;
    if ok(x) {
        Ok(x)
    } else {
        Err(ParseError::OutOfRange(
            flag.to_string(),
            v.to_string(),
            must,
        ))
    }
}

impl Cli {
    /// Parse an argv slice (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, ParseError> {
        let mut iter = argv.iter();
        let command = iter.next().ok_or(ParseError::NoCommand)?;
        if command == "help" || command == "--help" || command == "-h" {
            return Err(ParseError::HelpRequested);
        }
        let rest: Vec<&String> = iter.collect();
        if command == "inspect" {
            // The only command with a positional argument; parsed apart
            // from the flag-pair loop below.
            let mut args = InspectArgs {
                file: String::new(),
                filter: None,
                top: 10,
            };
            let mut file = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    flag @ ("--filter" | "--top") => {
                        let v = rest
                            .get(i + 1)
                            .ok_or_else(|| ParseError::MissingValue(flag.to_string()))?;
                        if flag == "--top" {
                            args.top = parse_num("--top", v)?;
                        } else {
                            args.filter = Some(v.to_string());
                        }
                        i += 2;
                    }
                    flag if flag.starts_with("--") => {
                        return Err(ParseError::UnknownFlag(flag.to_string()));
                    }
                    path => {
                        if file.is_some() {
                            return Err(ParseError::UnknownFlag(path.to_string()));
                        }
                        file = Some(path.to_string());
                        i += 1;
                    }
                }
            }
            args.file = file.ok_or_else(|| ParseError::MissingValue("<file>".to_string()))?;
            return Ok(Cli {
                command: Command::Inspect(args),
            });
        }
        let mut flags = std::collections::HashMap::new();
        let mut bare = std::collections::HashSet::new();
        let mut i = 0;
        while i < rest.len() {
            let flag = rest[i].as_str();
            if !flag.starts_with("--") {
                return Err(ParseError::UnknownFlag(flag.to_string()));
            }
            if flag == "--quiet" || flag == "--monitor" {
                bare.insert(flag.to_string());
                i += 1;
                continue;
            }
            let value = rest
                .get(i + 1)
                .ok_or_else(|| ParseError::MissingValue(flag.to_string()))?;
            flags.insert(flag.to_string(), value.to_string());
            i += 2;
        }

        let get = |name: &str| flags.get(name).cloned();
        let command = match command.as_str() {
            "scan" | "alexa" | "mtu" => {
                let mut args = ScanArgs::default();
                for key in flags.keys() {
                    if ![
                        "--protocol",
                        "--scale",
                        "--seed",
                        "--sample",
                        "--threads",
                        "--shards",
                        "--loss",
                        "--json",
                        "--metrics-out",
                        "--pcap",
                        "--syn-retries",
                        "--probe-retries",
                        "--watchdog",
                        "--max-sessions",
                        "--trace-out",
                        "--stream-out",
                        "--flight-out",
                        "--checkpoint-out",
                        "--resume",
                        "--kill-after-events",
                        "--abort-after",
                        "--n",
                    ]
                    .contains(&key.as_str())
                    {
                        return Err(ParseError::UnknownFlag(key.clone()));
                    }
                }
                if let Some(v) = get("--protocol") {
                    args.protocol = v;
                }
                if let Some(v) = get("--scale") {
                    args.scale = v;
                }
                if let Some(v) = get("--seed") {
                    args.seed = parse_num("--seed", &v)?;
                }
                if let Some(v) = get("--sample") {
                    args.sample = parse_num("--sample", &v)?;
                }
                if let Some(v) = get("--threads") {
                    args.threads = parse_num("--threads", &v)?;
                }
                if let Some(v) = get("--shards") {
                    args.threads = parse_num("--shards", &v)?;
                }
                if let Some(v) = get("--loss") {
                    let scale = |x: f64| x.is_finite() && x >= 0.0;
                    args.loss = parse_bounded("--loss", &v, scale, "a finite factor ≥ 0")?;
                }
                if let Some(v) = get("--syn-retries") {
                    args.syn_retries = parse_num("--syn-retries", &v)?;
                }
                if let Some(v) = get("--probe-retries") {
                    args.probe_retries = parse_num("--probe-retries", &v)?;
                }
                if let Some(v) = get("--watchdog") {
                    args.watchdog_secs = parse_num("--watchdog", &v)?;
                }
                if let Some(v) = get("--max-sessions") {
                    args.max_sessions = parse_num("--max-sessions", &v)?;
                }
                if let Some(v) = get("--n") {
                    args.n = parse_num("--n", &v)?;
                }
                if let Some(v) = get("--kill-after-events") {
                    args.kill_after_events = parse_num("--kill-after-events", &v)?;
                }
                if let Some(v) = get("--abort-after") {
                    args.abort_after_secs = parse_num("--abort-after", &v)?;
                }
                args.checkpoint_out = get("--checkpoint-out");
                args.resume = get("--resume");
                args.json = get("--json");
                args.metrics_out = get("--metrics-out");
                args.pcap = get("--pcap");
                args.trace_out = get("--trace-out");
                args.stream_out = get("--stream-out");
                args.flight_out = get("--flight-out");
                args.quiet = bare.contains("--quiet");
                args.monitor = bare.contains("--monitor");
                match command.as_str() {
                    "scan" => Command::Scan(args),
                    "alexa" => Command::Alexa(args),
                    _ => Command::Mtu(args),
                }
            }
            "probe" => {
                let mut args = ProbeArgs::default();
                for key in flags.keys() {
                    if ![
                        "--iw",
                        "--policy",
                        "--os",
                        "--protocol",
                        "--body",
                        "--loss",
                        "--pcap",
                        "--seed",
                    ]
                    .contains(&key.as_str())
                    {
                        return Err(ParseError::UnknownFlag(key.clone()));
                    }
                }
                if let Some(v) = get("--iw") {
                    args.iw = parse_num("--iw", &v)?;
                }
                if let Some(v) = get("--policy") {
                    args.policy = v;
                }
                if let Some(v) = get("--os") {
                    args.os = v;
                }
                if let Some(v) = get("--protocol") {
                    args.protocol = v;
                }
                if let Some(v) = get("--body") {
                    args.body = parse_num("--body", &v)?;
                }
                if let Some(v) = get("--loss") {
                    let probability = |x: f64| (0.0..=1.0).contains(&x);
                    args.loss =
                        parse_bounded("--loss", &v, probability, "a probability in [0, 1]")?;
                }
                if let Some(v) = get("--seed") {
                    args.seed = parse_num("--seed", &v)?;
                }
                args.pcap = get("--pcap");
                Command::Probe(args)
            }
            other => return Err(ParseError::UnknownCommand(other.to_string())),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn scan_defaults() {
        let cli = Cli::parse(&argv("scan")).unwrap();
        match cli.command {
            Command::Scan(a) => {
                assert_eq!(a.protocol, "http");
                assert_eq!(a.sample, 1.0);
                assert!(!a.quiet);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_flags() {
        let cli = Cli::parse(&argv(
            "scan --protocol tls --scale medium --sample 0.01 --seed 42 --json out.json --quiet",
        ))
        .unwrap();
        match cli.command {
            Command::Scan(a) => {
                assert_eq!(a.protocol, "tls");
                assert_eq!(a.scale, "medium");
                assert_eq!(a.sample, 0.01);
                assert_eq!(a.seed, 42);
                assert_eq!(a.json.as_deref(), Some("out.json"));
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_telemetry_flags() {
        let cli = Cli::parse(&argv(
            "scan --monitor --metrics-out m.json --pcap scan.pcap",
        ))
        .unwrap();
        match cli.command {
            Command::Scan(a) => {
                assert!(a.monitor);
                assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(a.pcap.as_deref(), Some("scan.pcap"));
            }
            other => panic!("{other:?}"),
        }
        // All three default to off.
        match Cli::parse(&argv("scan")).unwrap().command {
            Command::Scan(a) => {
                assert!(!a.monitor);
                assert_eq!(a.metrics_out, None);
                assert_eq!(a.pcap, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scan_observability_flags() {
        let cli = Cli::parse(&argv(
            "scan --trace-out t.json --stream-out s.jsonl --flight-out f.jsonl",
        ))
        .unwrap();
        match cli.command {
            Command::Scan(a) => {
                assert_eq!(a.trace_out.as_deref(), Some("t.json"));
                assert_eq!(a.stream_out.as_deref(), Some("s.jsonl"));
                assert_eq!(a.flight_out.as_deref(), Some("f.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        // All three default to off.
        match Cli::parse(&argv("scan")).unwrap().command {
            Command::Scan(a) => {
                assert_eq!(a.trace_out, None);
                assert_eq!(a.stream_out, None);
                assert_eq!(a.flight_out, None);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Cli::parse(&argv("probe --trace-out t.json")).unwrap_err(),
            ParseError::UnknownFlag("--trace-out".into())
        );
    }

    #[test]
    fn inspect_parsing() {
        let cli = Cli::parse(&argv("inspect stream.jsonl --filter result --top 5")).unwrap();
        match cli.command {
            Command::Inspect(a) => {
                assert_eq!(a.file, "stream.jsonl");
                assert_eq!(a.filter.as_deref(), Some("result"));
                assert_eq!(a.top, 5);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: no filter, top 10; the file is mandatory.
        match Cli::parse(&argv("inspect trace.json")).unwrap().command {
            Command::Inspect(a) => {
                assert_eq!(a.filter, None);
                assert_eq!(a.top, 10);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Cli::parse(&argv("inspect")).unwrap_err(),
            ParseError::MissingValue("<file>".into())
        );
        assert_eq!(
            Cli::parse(&argv("inspect a.jsonl b.jsonl")).unwrap_err(),
            ParseError::UnknownFlag("b.jsonl".into())
        );
        assert_eq!(
            Cli::parse(&argv("inspect a.jsonl --bogus 1")).unwrap_err(),
            ParseError::UnknownFlag("--bogus".into())
        );
    }

    #[test]
    fn scan_resilience_flags() {
        let cli = Cli::parse(&argv(
            "scan --syn-retries 2 --probe-retries 3 --watchdog 75 --max-sessions 4096",
        ))
        .unwrap();
        match cli.command {
            Command::Scan(a) => {
                assert_eq!(a.syn_retries, 2);
                assert_eq!(a.probe_retries, 3);
                assert_eq!(a.watchdog_secs, 75);
                assert_eq!(a.max_sessions, 4096);
            }
            other => panic!("{other:?}"),
        }
        // All four default to off: a plain scan is the paper's baseline.
        match Cli::parse(&argv("scan")).unwrap().command {
            Command::Scan(a) => {
                assert_eq!(a.syn_retries, 0);
                assert_eq!(a.probe_retries, 0);
                assert_eq!(a.watchdog_secs, 0);
                assert_eq!(a.max_sessions, 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Cli::parse(&argv("probe --max-sessions 1")).unwrap_err(),
            ParseError::UnknownFlag("--max-sessions".into())
        );
    }

    #[test]
    fn scan_durability_flags() {
        let cli = Cli::parse(&argv(
            "scan --checkpoint-out c.json --kill-after-events 9000 --abort-after 120",
        ))
        .unwrap();
        match cli.command {
            Command::Scan(a) => {
                assert_eq!(a.checkpoint_out.as_deref(), Some("c.json"));
                assert_eq!(a.kill_after_events, 9000);
                assert_eq!(a.abort_after_secs, 120);
                assert_eq!(a.resume, None);
            }
            other => panic!("{other:?}"),
        }
        match Cli::parse(&argv("scan --resume c.json")).unwrap().command {
            Command::Scan(a) => {
                assert_eq!(a.resume.as_deref(), Some("c.json"));
                // Durability is off by default: the golden baseline scan
                // must not change shape.
                assert_eq!(a.checkpoint_out, None);
                assert_eq!(a.kill_after_events, 0);
                assert_eq!(a.abort_after_secs, 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Cli::parse(&argv("probe --resume c.json")).unwrap_err(),
            ParseError::UnknownFlag("--resume".into())
        );
        // Nothing is captured during a run, so there is no cadence to set.
        assert_eq!(
            Cli::parse(&argv("scan --checkpoint-every 5")).unwrap_err(),
            ParseError::UnknownFlag("--checkpoint-every".into())
        );
    }

    #[test]
    fn scan_topology_flags() {
        // --shards is a plain alias for --threads.
        for flag in ["--threads", "--shards"] {
            match Cli::parse(&argv(&format!("scan {flag} 8")))
                .unwrap()
                .command
            {
                Command::Scan(a) => assert_eq!(a.threads, 8),
                other => panic!("{other:?}"),
            }
        }
        // The thread count is the only run-shape flag.
        for command in ["probe", "scan"] {
            assert_eq!(
                Cli::parse(&argv(&format!("{command} --senders 4"))).unwrap_err(),
                ParseError::UnknownFlag("--senders".into())
            );
        }
    }

    #[test]
    fn probe_flags() {
        let cli = Cli::parse(&argv(
            "probe --iw 4096 --policy bytes --os windows --body 9000 --pcap t.pcap",
        ))
        .unwrap();
        match cli.command {
            Command::Probe(a) => {
                assert_eq!(a.iw, 4096);
                assert_eq!(a.policy, "bytes");
                assert_eq!(a.os, "windows");
                assert_eq!(a.body, 9000);
                assert_eq!(a.pcap.as_deref(), Some("t.pcap"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert_eq!(Cli::parse(&[]).unwrap_err(), ParseError::NoCommand);
        assert_eq!(
            Cli::parse(&argv("frobnicate")).unwrap_err(),
            ParseError::UnknownCommand("frobnicate".into())
        );
        assert_eq!(
            Cli::parse(&argv("scan --bogus 1")).unwrap_err(),
            ParseError::UnknownFlag("--bogus".into())
        );
        assert_eq!(
            Cli::parse(&argv("scan --seed")).unwrap_err(),
            ParseError::MissingValue("--seed".into())
        );
        assert_eq!(
            Cli::parse(&argv("scan --seed abc")).unwrap_err(),
            ParseError::BadValue("--seed".into(), "abc".into())
        );
        assert_eq!(
            Cli::parse(&argv("probe --n 7")).unwrap_err(),
            ParseError::UnknownFlag("--n".into())
        );
        assert_eq!(
            Cli::parse(&argv("help")).unwrap_err(),
            ParseError::HelpRequested
        );
    }

    #[test]
    fn loss_values_that_mean_nothing_are_usage_errors() {
        // A scan's loss scales the links' calibrated loss: any finite
        // factor ≥ 0. A probe's is a probability.
        for (command, bad, must) in [
            ("scan", "-1", "a finite factor ≥ 0"),
            ("scan", "NaN", "a finite factor ≥ 0"),
            ("scan", "inf", "a finite factor ≥ 0"),
            ("probe", "2", "a probability in [0, 1]"),
            ("probe", "-0.5", "a probability in [0, 1]"),
            ("probe", "NaN", "a probability in [0, 1]"),
        ] {
            let err = Cli::parse(&argv(&format!("{command} --loss {bad}"))).unwrap_err();
            assert_eq!(
                err,
                ParseError::OutOfRange("--loss".into(), bad.into(), must),
                "{command} --loss {bad}"
            );
            // The CLI exits 2 with the reason and the usage.
            let msg = crate::run(&argv(&format!("{command} --loss {bad}"))).unwrap_err();
            assert!(msg.starts_with(&format!("bad value '{bad}' for '--loss': must be")));
        }
        for (command, good) in [
            ("scan", "0"),
            ("scan", "2.5"),
            ("probe", "0"),
            ("probe", "1"),
        ] {
            assert!(Cli::parse(&argv(&format!("{command} --loss {good}"))).is_ok());
        }
    }

    #[test]
    fn alexa_and_mtu() {
        assert!(matches!(
            Cli::parse(&argv("alexa --n 100")).unwrap().command,
            Command::Alexa(a) if a.n == 100
        ));
        assert!(matches!(
            Cli::parse(&argv("mtu --scale small")).unwrap().command,
            Command::Mtu(_)
        ));
    }
}
