//! Command implementations: the thin glue from parsed args to the
//! library crates.

use crate::args::{Cli, Command, InspectArgs, ProbeArgs, ScanArgs};
use crate::output;
use iw_analysis::figures::render_iw_bars;
use iw_analysis::histogram::IwHistogram;
use iw_analysis::tables::Table1;
use iw_core::testbed::{probe_host, TestbedSpec};
use iw_core::{
    CampaignCheckpoint, MonitorSink, MonitorSpec, Protocol, ResilienceConfig, RunControl,
    RunDisposition, ScanConfig, ScanOutput, ScanRunner, TargetSpec, TelemetryConfig, Topology,
};
use iw_hoststack::{HostConfig, HttpBehavior, HttpConfig, IwPolicy, OsProfile};
use iw_internet::{alexa, Population, PopulationConfig};
use iw_netsim::{Duration, LinkConfig};
use std::fmt;
use std::sync::Arc;

/// `println!` for everything a command prints to stdout: once stdout is
/// gone (`iwscan scan … | head`), the lines are dropped instead of
/// panicking, so the run still writes its files.
macro_rules! say {
    ($($arg:tt)*) => {
        iw_core::telemetry::print_line(format_args!($($arg)*))
    };
}

/// Command-layer failure.
#[derive(Debug)]
pub struct CmdError(String);

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for CmdError {}

fn err(msg: impl Into<String>) -> CmdError {
    CmdError(msg.into())
}

fn parse_protocol(name: &str) -> Result<Protocol, CmdError> {
    match name {
        "http" => Ok(Protocol::Http),
        "tls" => Ok(Protocol::Tls),
        "portscan" => Ok(Protocol::PortScan),
        "icmp" => Ok(Protocol::IcmpMtu),
        other => Err(err(format!("unknown protocol '{other}'"))),
    }
}

fn world_dimensions(scale: &str) -> Result<(u32, u32), CmdError> {
    match scale {
        "small" => Ok((1 << 17, 2_500)),
        "medium" => Ok((1 << 19, 12_000)),
        "large" => Ok((1 << 22, 60_000)),
        other => Err(err(format!("unknown scale '{other}'"))),
    }
}

fn build_population(args: &ScanArgs) -> Result<Arc<Population>, CmdError> {
    let (space_size, target_responsive) = world_dimensions(&args.scale)?;
    Ok(Arc::new(Population::new(PopulationConfig {
        seed: args.seed,
        space_size,
        target_responsive,
        loss_scale: args.loss,
    })))
}

/// Resolve the shard count: `--threads`/`--shards`, else all cores for
/// the full-space commands and one for lists (they are small).
fn shard_count(args: &ScanArgs, auto_cores: bool) -> u32 {
    if args.threads > 0 {
        args.threads
    } else if auto_cores {
        std::thread::available_parallelism().map_or(4, |n| n.get() as u32)
    } else {
        1
    }
}

/// The configuration a scan-style command runs: `ScanConfig::study` over
/// the population's full space sampled by `--sample`, or over the
/// synthetic Alexa list (domains known), plus what the resilience and
/// telemetry flags name, and nothing else. A configuration the scanner
/// would run without measuring anything (see [`ScanConfig::validate`])
/// is a usage error, exit 2.
fn scan_config(
    args: &ScanArgs,
    protocol: Protocol,
    population: &Population,
    alexa_list: bool,
) -> Result<ScanConfig, CmdError> {
    let mut config = ScanConfig::study(protocol, population.space_size(), args.seed);
    if alexa_list {
        let list = alexa::build(population, args.n, 1).into_iter();
        config.targets = TargetSpec::List(list.map(|e| (e.ip, Some(e.domain))).collect());
    } else {
        config.sample_fraction = args.sample;
    }
    config.resilience = ResilienceConfig {
        syn_retries: args.syn_retries,
        probe_retries: args.probe_retries,
        session_deadline: (args.watchdog_secs > 0).then(|| Duration::from_secs(args.watchdog_secs)),
        max_sessions: args.max_sessions,
    };
    config.record_trace = args.pcap.is_some();
    config.telemetry = TelemetryConfig {
        // The snapshot file includes the RTT histogram, so --metrics-out
        // turns its recorder on.
        record_rtt: args.metrics_out.is_some(),
        monitor: args.monitor.then_some(MonitorSpec {
            interval: Duration::from_millis(250),
            sink: MonitorSink::Stdout,
        }),
        record_spans: args.trace_out.is_some(),
        flight_recorder: args.flight_out.is_some(),
        stream: args.stream_out.as_ref().map(|_| Duration::from_secs(1)),
        ..TelemetryConfig::default()
    };
    config
        .validate()
        .map_err(|e| err(format!("invalid scan configuration: {e}")))?;
    Ok(config)
}

/// CLI-level campaign context recorded in the campaign file's `extra`
/// section: knobs that shape the synthetic world but live outside
/// `ScanConfig` (and thus outside the config digest).
fn campaign_extra(args: &ScanArgs, command: &str) -> Vec<(String, String)> {
    vec![
        ("command".to_string(), command.to_string()),
        ("scale".to_string(), args.scale.clone()),
        ("loss_bits".to_string(), args.loss.to_bits().to_string()),
    ]
}

/// Resolve the durable-campaign flags before any scan work: check
/// `--resume`'s file against this campaign, then write `--checkpoint-out`'s
/// campaign file. Returns the run controls and the shard count to run
/// with (a resumed campaign reruns with the count it recorded).
fn durable_setup(
    args: &ScanArgs,
    command: &str,
    config: &ScanConfig,
    default_shards: u32,
) -> Result<(RunControl, u32), CmdError> {
    let control = RunControl {
        kill_after_events: args.kill_after_events,
        abort_at: (args.abort_after_secs > 0).then(|| Duration::from_secs(args.abort_after_secs)),
        ..RunControl::default()
    };
    let mut campaign = CampaignCheckpoint {
        threads: default_shards,
        config: config.digest(),
        extra: campaign_extra(args, command),
    };
    if let Some(path) = &args.resume {
        campaign.threads = resume_preflight(path, &campaign)?;
    }
    if let Some(path) = &args.checkpoint_out {
        output::write_atomic(path, campaign.to_canonical_json())
            .map_err(|e| err(format!("write {path}: {e}")))?;
    }
    Ok((control, campaign.threads))
}

/// `--resume`'s check: the campaign file at `path` must be this build's
/// version and name `campaign`'s context and config digest, or the
/// first difference is the error. Returns the recorded shard count.
fn resume_preflight(path: &str, campaign: &CampaignCheckpoint) -> Result<u32, CmdError> {
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("read {path}: {e}")))?;
    let recorded = CampaignCheckpoint::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
    let (mut was, mut is) = (recorded.extra, campaign.extra.clone());
    was.sort();
    is.sort();
    if was != is {
        return Err(err(format!(
            "{path}: campaign context differs — checkpoint {was:?}, current {is:?}; rerun \
             with the original command, scale and loss"
        )));
    }
    if let Some(detail) = recorded.config.first_mismatch(&campaign.config) {
        return Err(err(format!("{path}: {detail}")));
    }
    Ok(recorded.threads.max(1))
}

/// Run a campaign under the durable-campaign flags. Returns the runner,
/// which runs it again, and the run's output.
fn run_durable(
    args: &ScanArgs,
    command: &str,
    population: &Arc<Population>,
    config: ScanConfig,
    default_shards: u32,
) -> Result<(ScanRunner, ScanOutput), CmdError> {
    let (control, shards) = durable_setup(args, command, &config, default_shards)?;
    let runner = ScanRunner::new(population)
        .config(config)
        .topology(Topology::threads(shards))
        .control(control);
    let out = runner.clone().run();
    Ok((runner, out))
}

/// Exit status for a killed campaign (mirrors `128+SIGKILL` convention).
const EXIT_KILLED: i32 = 9;
/// Exit status for a gracefully aborted campaign.
const EXIT_ABORTED: i32 = 3;
/// Exit status for a campaign with a non-zero `scan.invariant.*` counter.
const EXIT_VIOLATED: i32 = 4;

/// Write the telemetry products requested by `--metrics-out` / `--pcap`.
fn write_telemetry(out: &ScanOutput, args: &ScanArgs) -> Result<(), CmdError> {
    if let Some(path) = &args.metrics_out {
        let metrics = &out.telemetry.metrics;
        let json = format!(
            "{{\"metrics\":{},\"icmp_harvest\":{}}}",
            metrics.to_json(),
            out.telemetry.icmp.section_json(metrics)
        );
        output::write_atomic(path, json).map_err(|e| err(format!("write {path}: {e}")))?;
        say!("telemetry snapshot written to {path}");
    }
    if let Some(path) = &args.pcap {
        output::write_pcap(path, &out.trace).map_err(|e| err(format!("write {path}: {e}")))?;
        say!("scan trace saved to {path} ({} packets)", out.trace.len());
    }
    if let Some(path) = &args.trace_out {
        output::write_atomic(path, out.telemetry.tracer.to_chrome_json())
            .map_err(|e| err(format!("write {path}: {e}")))?;
        say!(
            "span trace written to {path} ({} spans; load in ui.perfetto.dev)",
            out.telemetry.tracer.scan_span_count()
        );
    }
    if let Some(path) = &args.stream_out {
        output::write_atomic(path, out.telemetry.stream.to_jsonl())
            .map_err(|e| err(format!("write {path}: {e}")))?;
        say!(
            "telemetry stream written to {path} ({} records)",
            out.telemetry.stream.len()
        );
    }
    Ok(())
}

/// `--flight-out`: the black boxes of the run's casualties, from a replay
/// of the campaign (`ScanRunner::black_boxes`), once the run's exit code
/// is `code`. The run's output is dropped first, so the replay's world
/// reuses its memory. A killed run writes nothing; a replay that does not
/// reproduce the run writes no file and exits 4.
fn write_flight(
    args: &ScanArgs,
    runner: ScanRunner,
    out: ScanOutput,
    code: i32,
) -> Result<i32, CmdError> {
    let Some(path) = &args.flight_out else {
        return Ok(code);
    };
    if matches!(out.disposition, RunDisposition::Killed { .. }) {
        return Ok(code);
    }
    let (casualties, sim_stats) = (out.telemetry.flight.casualties().to_vec(), out.sim_stats);
    drop(out);
    match runner.black_boxes(&casualties, &sim_stats) {
        Ok(flight) => {
            output::write_atomic(path, flight.to_jsonl())
                .map_err(|e| err(format!("write {path}: {e}")))?;
            say!(
                "flight-recorder dumps written to {path} ({} failed sessions)",
                flight.casualties().len()
            );
            Ok(code)
        }
        Err(e) => {
            eprintln!("{path} not written: {e}");
            Ok(EXIT_VIOLATED)
        }
    }
}

fn report(out: &ScanOutput, args: &ScanArgs, label: &str) -> Result<(), CmdError> {
    say!(
        "{}",
        Table1::new(&[(label, &out.summary)]).render().trim_end()
    );
    if !args.quiet {
        let hist = IwHistogram::from_results(&out.results);
        let bars = render_iw_bars(label, &hist, 0.001, false);
        say!("\n{}", bars.trim_end_matches('\n'));
    }
    if let Some(path) = &args.json {
        let json = iw_core::HostResult::array_to_json(&out.results);
        output::write_atomic(path, json).map_err(|e| err(format!("write {path}: {e}")))?;
        say!("\nper-host results written to {path}");
    }
    write_telemetry(out, args)?;
    Ok(())
}

/// Resolve a finished run's disposition into an exit code, writing the
/// report/artifacts only when the outputs are trustworthy (or evidence).
/// `report` runs for completed, violated and (with a note) aborted
/// campaigns; a killed campaign leaves nothing but its campaign file
/// behind.
fn conclude(
    out: &ScanOutput,
    args: &ScanArgs,
    render: impl FnOnce(&ScanOutput, &ScanArgs) -> Result<(), CmdError>,
) -> Result<i32, CmdError> {
    match &out.disposition {
        RunDisposition::Killed { events } => {
            let note = match &args.checkpoint_out {
                Some(path) => format!("; --resume {path} reruns it"),
                None => " (no --checkpoint-out: nothing to resume)".to_string(),
            };
            say!("campaign killed after {events} events{note}");
            Ok(EXIT_KILLED)
        }
        RunDisposition::Aborted => {
            render(out, args)?;
            say!(
                "\ncampaign aborted at the shutdown deadline; sessions drained, artifacts flushed"
            );
            Ok(EXIT_ABORTED)
        }
        RunDisposition::Violated => {
            render(out, args)?;
            let violations = out.telemetry.violations();
            let named: Vec<String> = violations.iter().map(|(n, v)| format!("{n}={v}")).collect();
            eprintln!("invariant violated: {}", named.join(", "));
            Ok(EXIT_VIOLATED)
        }
        RunDisposition::Completed => {
            render(out, args)?;
            Ok(0)
        }
    }
}

fn cmd_scan(args: &ScanArgs) -> Result<i32, CmdError> {
    let protocol = parse_protocol(&args.protocol)?;
    let population = build_population(args)?;
    let config = scan_config(args, protocol, &population, false)?;
    let (runner, out) = run_durable(args, "scan", &population, config, shard_count(args, true))?;
    let label = args.protocol.to_uppercase();
    let code = conclude(&out, args, |out, args| report(out, args, &label))?;
    write_flight(args, runner, out, code)
}

fn cmd_alexa(args: &ScanArgs) -> Result<i32, CmdError> {
    let protocol = parse_protocol(&args.protocol)?;
    let population = build_population(args)?;
    let config = scan_config(args, protocol, &population, true)?;
    // Lists default to one shard; an explicit --threads still fans the
    // round-robin partitions across threads.
    let (runner, out) = run_durable(args, "alexa", &population, config, shard_count(args, false))?;
    let code = conclude(&out, args, |out, args| report(out, args, "ALEXA"))?;
    write_flight(args, runner, out, code)
}

fn cmd_mtu(args: &ScanArgs) -> Result<i32, CmdError> {
    let population = build_population(args)?;
    let config = scan_config(args, Protocol::IcmpMtu, &population, false)?;
    let (runner, out) = run_durable(args, "mtu", &population, config, shard_count(args, true))?;
    let code = conclude(&out, args, |out, args| {
        write_telemetry(out, args)?;
        let n = out.mtu_results.len().max(1) as f64;
        say!("hosts answering ICMP: {}", out.mtu_results.len());
        for mss in [536u32, 1240, 1336, 1436, 1460] {
            let share =
                out.mtu_results.iter().filter(|r| r.mtu >= mss + 40).count() as f64 / n * 100.0;
            say!("  MSS {mss:>5} supported by {share:>5.1}%");
        }
        Ok(())
    })?;
    write_flight(args, runner, out, code)
}

fn cmd_probe(args: &ProbeArgs) -> Result<i32, CmdError> {
    let protocol = match args.protocol.as_str() {
        "http" => Protocol::Http,
        "tls" => Protocol::Tls,
        other => return Err(err(format!("probe supports http|tls, not '{other}'"))),
    };
    let os = match args.os.as_str() {
        "linux" => OsProfile::linux(),
        "windows" => OsProfile::windows(),
        "embedded" => OsProfile::embedded(),
        "bsd" => OsProfile::bsd(),
        other => return Err(err(format!("unknown os '{other}'"))),
    };
    let iw = match args.policy.as_str() {
        "segments" => IwPolicy::Segments(args.iw),
        "bytes" => IwPolicy::Bytes(args.iw),
        "mtufill" => IwPolicy::MtuFill(args.iw),
        "rfc6928" => IwPolicy::Rfc6928,
        other => return Err(err(format!("unknown policy '{other}'"))),
    };
    let host = HostConfig {
        os,
        iw,
        http: Some(HttpConfig {
            behavior: HttpBehavior::Direct {
                root_size: args.body,
                echo_404: false,
            },
            server_header: "iwscan-testbed".into(),
            vhost_iw: Vec::new(),
        }),
        tls: Some(iw_hoststack::TlsConfig {
            behavior: iw_hoststack::TlsBehavior::Serve,
            cipher: iw_wire::tls::CipherSuite::ECDHE_RSA_AES128_GCM,
            cert_lens: vec![(args.body / 2).max(36), (args.body / 2).max(36)],
            ocsp_len: Some(471),
            sni_iw: Vec::new(),
        }),
        path_mtu: 1500,
        icmp: true,
    };
    let mut spec = TestbedSpec::new(host, protocol);
    spec.seed = args.seed;
    spec.record_trace = args.pcap.is_some();
    if args.loss > 0.0 {
        spec.link = LinkConfig::testbed().with_loss(args.loss);
    }
    let (result, trace) = probe_host(&spec);
    match result {
        Some(result) => {
            for (mss, outcomes) in &result.runs {
                for (i, o) in outcomes.iter().enumerate() {
                    say!("MSS {mss:>3} probe {}: {o:?}", i + 1);
                }
            }
            say!("\nverdict: {:?}", result.host_verdict);
        }
        None => say!("host did not answer"),
    }
    if let Some(path) = &args.pcap {
        output::write_pcap(path, &trace).map_err(|e| err(format!("write {path}: {e}")))?;
        say!("packet trace saved to {path} ({} packets)", trace.len());
    }
    Ok(0)
}

/// Pull the string value of `"key":"value"` out of a JSON line. The
/// telemetry writers never emit escaped quotes inside these fields
/// (names, verdicts, dotted quads), so a plain scan suffices.
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Pull the numeric value of `"key":123.4` out of a JSON line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Render a `label count` breakdown, largest first, capped at `top` rows.
fn render_breakdown(title: &str, tallies: &std::collections::BTreeMap<String, u64>, top: usize) {
    if tallies.is_empty() {
        return;
    }
    let mut rows: Vec<(&String, &u64)> = tallies.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    say!("{title}:");
    for (label, count) in rows.into_iter().take(top) {
        say!("  {label:<28} {count}");
    }
}

/// Summarize a Chrome trace-event file: span count and per-name totals.
fn inspect_trace(content: &str, filter: Option<&str>, top: usize) {
    let mut by_name: std::collections::BTreeMap<String, u64> = Default::default();
    let mut by_name_ms: std::collections::BTreeMap<String, f64> = Default::default();
    let mut spans = 0u64;
    // Split-on-brace fragments: each complete "X" event contributes one
    // fragment holding its name/dur pair (nested args land in the next).
    for chunk in content.split('{').filter(|c| c.contains("\"ph\":\"X\"")) {
        let Some(name) = json_str_field(chunk, "name") else {
            continue;
        };
        if filter.is_some_and(|f| !name.contains(f)) {
            continue;
        }
        spans += 1;
        *by_name.entry(name.to_string()).or_default() += 1;
        *by_name_ms.entry(name.to_string()).or_default() +=
            json_num_field(chunk, "dur").unwrap_or(0.0) / 1_000.0;
    }
    say!("chrome trace: {spans} spans");
    let mut rows: Vec<(&String, &u64)> = by_name.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (name, count) in rows.into_iter().take(top) {
        say!("  {name:<28} {count:>8}  {:>12.3} ms", by_name_ms[name]);
    }
}

/// Summarize a JSONL telemetry file (stream records or flight dumps).
fn inspect_jsonl(content: &str, filter: Option<&str>, top: usize) {
    let mut snapshots = 0u64;
    let mut results: std::collections::BTreeMap<String, u64> = Default::default();
    let mut flights: std::collections::BTreeMap<String, u64> = Default::default();
    let mut phases: std::collections::BTreeMap<String, u64> = Default::default();
    let mut other = 0u64;
    let mut total = 0u64;
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        if filter.is_some_and(|f| !line.contains(f)) {
            continue;
        }
        total += 1;
        match json_str_field(line, "type") {
            Some("snapshot") => snapshots += 1,
            Some("result") => {
                let verdict = json_str_field(line, "verdict").unwrap_or("unknown");
                *results.entry(verdict.to_string()).or_default() += 1;
            }
            _ if line.contains("\"entries\":") => {
                let error = json_str_field(line, "error").unwrap_or("unknown");
                let phase = json_str_field(line, "phase").unwrap_or("unknown");
                *flights.entry(error.to_string()).or_default() += 1;
                *phases.entry(phase.to_string()).or_default() += 1;
            }
            _ => other += 1,
        }
    }
    let result_count: u64 = results.values().sum();
    let flight_count: u64 = flights.values().sum();
    say!(
        "{total} records ({snapshots} snapshots, {result_count} results, \
         {flight_count} flight dumps, {other} other)"
    );
    render_breakdown("results by verdict", &results, top);
    render_breakdown("flight dumps by error", &flights, top);
    render_breakdown("flight dumps by phase", &phases, top);
}

fn cmd_inspect(args: &InspectArgs) -> Result<i32, CmdError> {
    let content =
        std::fs::read_to_string(&args.file).map_err(|e| err(format!("read {}: {e}", args.file)))?;
    let top = args.top.max(1);
    if content.trim_start().starts_with('{') && content.contains("\"traceEvents\"") {
        inspect_trace(&content, args.filter.as_deref(), top);
    } else {
        inspect_jsonl(&content, args.filter.as_deref(), top);
    }
    Ok(0)
}

/// Dispatch a parsed CLI to its implementation.
pub fn dispatch(cli: &Cli) -> Result<i32, CmdError> {
    match &cli.command {
        Command::Scan(args) => cmd_scan(args),
        Command::Alexa(args) => cmd_alexa(args),
        Command::Mtu(args) => cmd_mtu(args),
        Command::Probe(args) => cmd_probe(args),
        Command::Inspect(args) => cmd_inspect(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The world a flagless command scans.
    fn small_world() -> Arc<Population> {
        build_population(&ScanArgs::default()).unwrap()
    }

    /// A run that produced nothing but these metrics.
    fn output(metrics: iw_core::telemetry::Snapshot, disposition: RunDisposition) -> ScanOutput {
        ScanOutput {
            results: vec![],
            open_ports: vec![],
            mtu_results: vec![],
            summary: Default::default(),
            sim_stats: Default::default(),
            duration: Duration::ZERO,
            telemetry: iw_core::ScanTelemetry {
                metrics,
                ..Default::default()
            },
            trace: Default::default(),
            disposition,
        }
    }

    #[test]
    fn protocol_and_scale_parsing() {
        assert_eq!(parse_protocol("http").unwrap(), Protocol::Http);
        assert_eq!(parse_protocol("tls").unwrap(), Protocol::Tls);
        assert!(parse_protocol("gopher").is_err());
        assert!(world_dimensions("small").is_ok());
        assert!(world_dimensions("galactic").is_err());
    }

    #[test]
    fn shard_count_from_flags() {
        // Lists only shard when asked; full-space commands default to
        // every core.
        let args = ScanArgs {
            threads: 8,
            ..ScanArgs::default()
        };
        assert_eq!(shard_count(&args, true), 8);
        assert_eq!(shard_count(&args, false), 8);
        assert_eq!(shard_count(&ScanArgs::default(), false), 1);
    }

    #[test]
    fn resilience_flags_reach_the_config() {
        let args = ScanArgs {
            syn_retries: 2,
            probe_retries: 1,
            watchdog_secs: 75,
            max_sessions: 4096,
            ..ScanArgs::default()
        };
        let config = scan_config(&args, Protocol::Http, &small_world(), false).unwrap();
        let r = config.resilience;
        assert_eq!(
            (r.syn_retries, r.probe_retries, r.max_sessions),
            (2, 1, 4096)
        );
        assert_eq!(r.session_deadline, Some(Duration::from_secs(75)));
    }

    #[test]
    fn a_flagless_command_scans_the_study() {
        // No flag, no departure: each command's configuration is the
        // study's (its rate included), over the command's targets.
        let args = ScanArgs::default();
        let population = small_world();
        // `scan`, `alexa` and `mtu`.
        for (protocol, alexa_list) in [
            (Protocol::Http, false),
            (Protocol::Http, true),
            (Protocol::IcmpMtu, false),
        ] {
            let mut study = ScanConfig::study(protocol, population.space_size(), args.seed);
            if alexa_list {
                let list = alexa::build(&population, args.n, 1).into_iter();
                study.targets = TargetSpec::List(list.map(|e| (e.ip, Some(e.domain))).collect());
            }
            let built = scan_config(&args, protocol, &population, alexa_list).unwrap();
            assert_eq!(built.digest(), study.digest(), "{protocol:?} {alexa_list}");
        }
    }

    #[test]
    fn scans_the_validator_rejects_are_usage_errors() {
        type Cmd = fn(&ScanArgs) -> Result<i32, CmdError>;
        let reject = |cmds: &[Cmd], args: ScanArgs, why: &str| {
            for cmd in cmds {
                let msg = cmd(&args).expect_err(why).to_string();
                assert!(msg.contains(why), "{msg}");
            }
        };
        // Every session would be force-concluded long before its
        // timeouts could end it: the scan would report 100 % Error.
        let watchdog = ScanArgs {
            watchdog_secs: 1,
            ..ScanArgs::default()
        };
        reject(
            &[cmd_scan, cmd_alexa, cmd_mtu],
            watchdog,
            "single-attempt floor",
        );
        // A sample of nothing, or of more than everything (a list scan
        // takes no `--sample`).
        for sample in [0.0, 1.5] {
            let args = ScanArgs {
                sample,
                ..ScanArgs::default()
            };
            reject(&[cmd_scan, cmd_mtu], args, "outside (0, 1]");
        }
    }

    #[test]
    fn the_default_scan_config_is_valid() {
        assert!(scan_config(&ScanArgs::default(), Protocol::Http, &small_world(), false).is_ok());
        // So are the documented hardened flags.
        let hardened = ScanArgs {
            syn_retries: 2,
            probe_retries: 2,
            watchdog_secs: 75,
            max_sessions: 65_536,
            ..ScanArgs::default()
        };
        assert!(scan_config(&hardened, Protocol::Http, &small_world(), false).is_ok());
    }

    #[test]
    fn probe_command_end_to_end() {
        let args = ProbeArgs {
            iw: 4,
            ..ProbeArgs::default()
        };
        assert_eq!(cmd_probe(&args).unwrap(), 0);
    }

    #[test]
    fn probe_rejects_bad_enum_values() {
        let args = ProbeArgs {
            os: "temple".into(),
            ..ProbeArgs::default()
        };
        assert!(cmd_probe(&args).is_err());
        let args = ProbeArgs {
            policy: "vibes".into(),
            ..ProbeArgs::default()
        };
        assert!(cmd_probe(&args).is_err());
    }

    #[test]
    fn telemetry_files_are_written() {
        let out = output(Default::default(), RunDisposition::Completed);
        let dir = std::env::temp_dir().join("iwscan-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics_path = dir.join("metrics.json");
        let pcap_path = dir.join("scan.pcap");
        let trace_path = dir.join("trace.json");
        let stream_path = dir.join("stream.jsonl");
        let args = ScanArgs {
            metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
            pcap: Some(pcap_path.to_string_lossy().into_owned()),
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            stream_out: Some(stream_path.to_string_lossy().into_owned()),
            ..ScanArgs::default()
        };
        write_telemetry(&out, &args).unwrap();
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.starts_with("{\"metrics\":{\"scan\":"), "{metrics}");
        // Every count is in the `metrics` section; no second tally.
        assert!(!metrics.contains("\"events\":"), "{metrics}");
        assert!(metrics.contains("},\"icmp_harvest\":{"), "{metrics}");
        assert!(
            std::fs::read(&pcap_path).unwrap().len() >= 24,
            "pcap header"
        );
        // An empty tracer still writes a loadable trace skeleton; the
        // empty stream writes an empty file.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert_eq!(std::fs::read_to_string(&stream_path).unwrap(), "");
        for p in [&metrics_path, &pcap_path, &trace_path, &stream_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn a_violated_run_writes_its_metrics_and_exits_4() {
        let mut metrics = iw_core::telemetry::MetricsRegistry::from_manifest();
        metrics.inc(iw_core::telemetry::Counter::InvariantWorkLeft);
        let out = output(metrics.snapshot(), RunDisposition::Violated);
        assert_eq!(
            out.telemetry.violations(),
            [("scan.invariant.work_left", 1)]
        );
        let dir = std::env::temp_dir().join("iwscan-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics_path = dir.join("violated.metrics.json");
        let args = ScanArgs {
            metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
            quiet: true,
            ..ScanArgs::default()
        };
        let code = conclude(&out, &args, |out, args| report(out, args, "HTTP"));
        assert_eq!(code.unwrap(), 4);
        let written = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(
            written.contains("\"scan.invariant.work_left\":1"),
            "{written}"
        );
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn a_flight_replay_that_differs_writes_no_file_and_exits_4() {
        // The golden flight scan's flags, and a casualty list no run of
        // them produces: the replay refuses it, naming the casualty.
        let dir = std::env::temp_dir().join(format!("iwscan-cli-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let args = ScanArgs {
            sample: 0.003,
            seed: 31,
            syn_retries: 1,
            loss: 2.0,
            quiet: true,
            flight_out: Some(path.to_string_lossy().into_owned()),
            ..ScanArgs::default()
        };
        let population = build_population(&args).unwrap();
        let config = scan_config(&args, Protocol::Http, &population, false).unwrap();
        let runner = ScanRunner::new(&population).config(config);
        let mut forged = iw_core::telemetry::FlightRecorder::new(true);
        forged.conclude(5, 1, "malformed");
        let mut out = output(Default::default(), RunDisposition::Completed);
        out.telemetry.flight = forged;
        assert_eq!(write_flight(&args, runner.clone(), out, 0).unwrap(), 4);
        assert!(!path.exists(), "a refused replay writes no file");
        // The run's own casualties replay, and the file is written.
        let out = runner.clone().run();
        assert!(!out.telemetry.flight.casualties().is_empty());
        assert_eq!(write_flight(&args, runner, out, 0).unwrap(), 0);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"entries\":["));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_setup_wires_control_and_checks_context() {
        let dir = std::env::temp_dir().join(format!("iwscan-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = ScanConfig::study(Protocol::Http, 1 << 10, 1);

        // No durable flags: a plain run at the caller's shard count.
        let (control, shards) = durable_setup(&ScanArgs::default(), "scan", &config, 2).unwrap();
        assert_eq!(shards, 2);
        assert_eq!(control.kill_after_events, 0);
        assert_eq!(control.abort_at, None);

        // The crash and abort flags reach the controls, and
        // --checkpoint-out writes the campaign file before the run.
        let out_path = dir.join("campaign.ckpt").to_string_lossy().into_owned();
        let args = ScanArgs {
            checkpoint_out: Some(out_path.clone()),
            kill_after_events: 500,
            abort_after_secs: 30,
            ..ScanArgs::default()
        };
        let (control, _) = durable_setup(&args, "scan", &config, 2).unwrap();
        assert_eq!(control.kill_after_events, 500);
        assert_eq!(control.abort_at, Some(Duration::from_secs(30)));
        let file = CampaignCheckpoint::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(file.threads, 2);
        assert_eq!(file.config, config.digest());
        let mut context = campaign_extra(&args, "scan");
        context.sort();
        assert_eq!(file.extra, context);

        // Resume rejects a campaign file from a different world (scale).
        let resume_path = dir.join("foreign.ckpt").to_string_lossy().into_owned();
        let foreign = CampaignCheckpoint {
            threads: 3,
            config: config.digest(),
            extra: campaign_extra(
                &ScanArgs {
                    scale: "medium".into(),
                    ..ScanArgs::default()
                },
                "scan",
            ),
        };
        let args = ScanArgs {
            resume: Some(resume_path.clone()),
            ..ScanArgs::default()
        };
        let refusal = |file: &str| {
            std::fs::write(&resume_path, file).unwrap();
            match durable_setup(&args, "scan", &config, 2) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("resumed from {file}"),
            }
        };
        let msg = refusal(&foreign.to_canonical_json());
        assert!(msg.contains("campaign context differs"), "{msg}");

        // …and one from another command, or of another seed.
        let other = CampaignCheckpoint {
            extra: campaign_extra(&ScanArgs::default(), "mtu"),
            ..foreign.clone()
        };
        let msg = refusal(&other.to_canonical_json());
        assert!(msg.contains("campaign context differs"), "{msg}");
        let matching = CampaignCheckpoint {
            extra: campaign_extra(&ScanArgs::default(), "scan"),
            ..foreign
        };
        let reseeded = CampaignCheckpoint {
            config: ScanConfig::study(Protocol::Http, 1 << 10, 2).digest(),
            ..matching.clone()
        };
        let msg = refusal(&reseeded.to_canonical_json());
        assert!(
            msg.ends_with("config field `seed`: checkpoint 2 vs current 1"),
            "{msg}"
        );

        // A file of the replay barrier's version is refused by name.
        let current = format!("\"version\":{},", iw_core::CHECKPOINT_VERSION);
        let old = matching
            .to_canonical_json()
            .replace(&current, "\"version\":11,");
        let msg = refusal(&old);
        assert!(msg.contains("unsupported checkpoint version 11"), "{msg}");

        // Corrupted bytes surface as a clean error.
        let msg = refusal("{\"kind\":\"iwscan-campaign-checkpoint\",");
        assert!(msg.contains("malformed checkpoint"), "{msg}");

        // A matching file resumes with its recorded shard count.
        std::fs::write(&resume_path, matching.to_canonical_json()).unwrap();
        let (_, shards) = durable_setup(&args, "scan", &config, 8).unwrap();
        assert_eq!(shards, 3, "resume inherits the recorded shard count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_field_extraction() {
        let line =
            "{\"type\":\"result\",\"at_nanos\":7000,\"ip\":\"10.0.0.1\",\"verdict\":\"few_data\"}";
        assert_eq!(json_str_field(line, "type"), Some("result"));
        assert_eq!(json_str_field(line, "verdict"), Some("few_data"));
        assert_eq!(json_str_field(line, "missing"), None);
        assert_eq!(json_num_field(line, "at_nanos"), Some(7000.0));
        assert_eq!(json_num_field("{\"dur\":12.345}", "dur"), Some(12.345));
        assert_eq!(json_num_field(line, "missing"), None);
    }

    #[test]
    fn inspect_summarizes_jsonl_and_trace_files() {
        let dir = std::env::temp_dir().join("iwscan-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("inspect.jsonl");
        std::fs::write(
            &jsonl,
            "{\"type\":\"snapshot\",\"at_nanos\":0,\"shard\":0,\"delta\":{}}\n\
             {\"type\":\"result\",\"at_nanos\":1,\"ip\":\"10.0.0.1\",\"verdict\":\"success\"}\n\
             {\"at_nanos\":2,\"ip\":\"10.0.0.2\",\"error\":\"handshake_timeout\",\
              \"phase\":\"syn_sent\",\"evicted\":0,\"entries\":[]}\n",
        )
        .unwrap();
        let args = InspectArgs {
            file: jsonl.to_string_lossy().into_owned(),
            filter: None,
            top: 10,
        };
        assert_eq!(cmd_inspect(&args).unwrap(), 0);
        // Filtering keeps the summary path alive with zero matches.
        let args = InspectArgs {
            filter: Some("no-such-substring".into()),
            ..args
        };
        assert_eq!(cmd_inspect(&args).unwrap(), 0);

        let trace = dir.join("inspect-trace.json");
        std::fs::write(
            &trace,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"scan\"}},\
             {\"name\":\"handshake\",\"cat\":\"scan\",\"ph\":\"X\",\"ts\":0,\"dur\":1.5,\
              \"pid\":1,\"tid\":1,\"args\":{\"arg\":0}}]}",
        )
        .unwrap();
        let args = InspectArgs {
            file: trace.to_string_lossy().into_owned(),
            filter: None,
            top: 10,
        };
        assert_eq!(cmd_inspect(&args).unwrap(), 0);
        let args = InspectArgs {
            file: "/nonexistent/iwscan".into(),
            filter: None,
            top: 10,
        };
        assert!(cmd_inspect(&args).is_err());
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn probe_writes_pcap() {
        let dir = std::env::temp_dir().join("iwscan-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.pcap");
        let name = path.to_string_lossy().into_owned();
        // A previous capture in the way, with a second name: replacing it
        // whole (rename) leaves that name on the old bytes, where writing
        // in place would rewrite the file both names share.
        let old = dir.join("probe.pcap.old");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&old);
        std::fs::write(&path, b"previous capture").unwrap();
        std::fs::hard_link(&path, &old).unwrap();
        let args = ProbeArgs {
            pcap: Some(name.clone()),
            ..ProbeArgs::default()
        };
        assert_eq!(cmd_probe(&args).unwrap(), 0);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert!(bytes.len() > 24, "records present");
        assert_eq!(
            std::fs::read(&old).unwrap(),
            b"previous capture",
            "the old file is replaced, not written through"
        );
        assert!(
            !std::path::Path::new(&output::tmp_path(&name)).exists(),
            "no staged sibling is left behind"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&old);
    }
}
