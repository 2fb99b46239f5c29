//! The ZMap-style progress monitor.
//!
//! The monitor turns a periodic [`ProgressSample`] (taken by the scanner on
//! a virtual-time timer) into a one-line status report: elapsed time, send
//! progress, achieved vs. configured pps, hit count and rate, live session
//! count, verdict mix and an ETA. Lines go to a pluggable [`StatusSink`] so
//! the CLI can print to stderr while tests capture into a buffer.

use std::fmt::Write;

/// Where status lines go.
pub trait StatusSink {
    /// Deliver one rendered status line.
    fn emit(&mut self, line: &str);
}

/// Prints each status line to stdout (the CLI's `--monitor` sink),
/// through [`print_line`].
#[derive(Debug, Default)]
pub struct StdoutSink;

impl StatusSink for StdoutSink {
    fn emit(&mut self, line: &str) {
        print_line(line);
    }
}

/// Print `line` and a newline to stdout. Where `println!` panics when
/// stdout is gone (`iwscan … | head` after `head` exits), this drops
/// the line, and every later one, so the run goes on to write its files.
pub fn print_line(line: impl std::fmt::Display) {
    use std::io::Write as _;
    // A line nobody reads has nowhere to report its loss.
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

/// Collects status lines into a vector (for tests and for surfacing the
/// lines of a sharded run back through the driver).
#[derive(Debug, Default)]
pub struct BufferSink {
    /// The captured lines, in emission order.
    pub lines: Vec<String>,
}

impl StatusSink for BufferSink {
    fn emit(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }
}

/// A point-in-time reading of scan progress, in scanner-native units.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressSample {
    /// Virtual nanoseconds since scan start.
    pub elapsed_nanos: u64,
    /// SYNs sent so far.
    pub targets_sent: u64,
    /// Total targets this shard will send (estimate; 0 = unknown).
    pub targets_total: u64,
    /// Hosts that answered with a valid SYN-ACK.
    pub hits: u64,
    /// Sessions currently live.
    pub live_sessions: u64,
    /// Configured send rate (packets per second).
    pub configured_pps: u64,
    /// Sessions finished per terminal outcome:
    /// `[success, few_data, error, unreachable]`.
    pub verdicts: [u64; 4],
}

impl ProgressSample {
    /// Achieved send rate so far, in packets per second.
    pub fn achieved_pps(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            return 0.0;
        }
        self.targets_sent as f64 * 1e9 / self.elapsed_nanos as f64
    }

    /// Fraction of hits per target sent (0 when nothing sent yet).
    pub fn hit_rate(&self) -> f64 {
        if self.targets_sent == 0 {
            return 0.0;
        }
        self.hits as f64 / self.targets_sent as f64
    }
}

/// Renders periodic status lines from progress samples.
///
/// Driven entirely by the caller's (virtual) clock: `due` says whether the
/// next report time has been reached and `report` renders + emits a line.
#[derive(Debug)]
pub struct ProgressMonitor {
    interval_nanos: u64,
    next_at: u64,
    reports: u64,
}

impl ProgressMonitor {
    /// A monitor reporting every `interval_nanos` of virtual time.
    pub fn new(interval_nanos: u64) -> ProgressMonitor {
        ProgressMonitor {
            interval_nanos: interval_nanos.max(1),
            next_at: interval_nanos.max(1),
            reports: 0,
        }
    }

    /// Whether a report is due at `elapsed_nanos`.
    pub fn due(&self, elapsed_nanos: u64) -> bool {
        elapsed_nanos >= self.next_at
    }

    /// Number of lines emitted so far.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Render a status line for `sample` and emit it to `sink`, then
    /// schedule the next report one interval later.
    pub fn report(&mut self, sample: &ProgressSample, sink: &mut dyn StatusSink) {
        let line = Self::format_line(sample);
        sink.emit(&line);
        self.reports += 1;
        // Skip intervals that have already passed (e.g. after a long idle
        // drain phase) instead of emitting a burst of stale lines.
        while self.next_at <= sample.elapsed_nanos {
            self.next_at += self.interval_nanos;
        }
    }

    /// Emit one last status line at scan completion, even mid-interval,
    /// so the final state (all verdicts settled, `live: 0`) is always
    /// reported. `error_kinds` carries `(name, count)` tallies; nonzero
    /// kinds are appended as an `; errors: name=count ...` suffix so an
    /// operator sees *why* sessions failed without opening the metrics
    /// file. Emits nothing if the very last periodic line already covered
    /// this sample's timestamp.
    pub fn final_report(
        &mut self,
        sample: &ProgressSample,
        error_kinds: &[(&'static str, u64)],
        sink: &mut dyn StatusSink,
    ) {
        // `next_at` trails the last reported timestamp by exactly one
        // interval, so this is "already reported at or after this time".
        if self.reports > 0 && sample.elapsed_nanos + self.interval_nanos <= self.next_at {
            return;
        }
        let mut line = Self::format_line(sample);
        let mut first = true;
        for (name, count) in error_kinds {
            if *count == 0 {
                continue;
            }
            if first {
                line.push_str("; errors:");
                first = false;
            }
            let _ = write!(line, " {name}={count}");
        }
        sink.emit(&line);
        self.reports += 1;
        while self.next_at <= sample.elapsed_nanos {
            self.next_at += self.interval_nanos;
        }
    }

    /// The ZMap-style status line, e.g.:
    ///
    /// `0:05 12.5% (1:30 left); send: 12500 pps: 2.5 Kp/s (cfg 2.5 Kp/s); hits: 230 (1.84%); live: 96; ok/few/err/unr: 180/20/10/0`
    pub fn format_line(s: &ProgressSample) -> String {
        let mut line = String::new();
        let _ = write!(line, "{}", fmt_clock(s.elapsed_nanos));
        if s.targets_total > 0 {
            let pct = 100.0 * s.targets_sent as f64 / s.targets_total as f64;
            let _ = write!(line, " {:.1}%", pct.min(100.0));
            let pps = s.achieved_pps();
            if pps > 0.0 && s.targets_sent < s.targets_total {
                let left = (s.targets_total - s.targets_sent) as f64 / pps;
                let _ = write!(line, " ({} left)", fmt_clock((left * 1e9) as u64));
            } else if s.targets_sent >= s.targets_total {
                line.push_str(" (sending done)");
            }
        }
        let _ = write!(
            line,
            "; send: {} pps: {} (cfg {}); hits: {} ({:.2}%); live: {}",
            s.targets_sent,
            fmt_pps(s.achieved_pps()),
            fmt_pps(s.configured_pps as f64),
            s.hits,
            100.0 * s.hit_rate(),
            s.live_sessions,
        );
        let _ = write!(
            line,
            "; ok/few/err/unr: {}/{}/{}/{}",
            s.verdicts[0], s.verdicts[1], s.verdicts[2], s.verdicts[3]
        );
        line
    }
}

/// `h:mm:ss` (hours omitted when zero) from nanoseconds.
fn fmt_clock(nanos: u64) -> String {
    let total_secs = nanos / 1_000_000_000;
    let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
    if h > 0 {
        format!("{h}:{m:02}:{s:02}")
    } else {
        format!("{m}:{s:02}")
    }
}

/// Humanized packets-per-second: `850 p/s`, `2.5 Kp/s`, `1.2 Mp/s`.
fn fmt_pps(pps: f64) -> String {
    if pps >= 1_000_000.0 {
        format!("{:.1} Mp/s", pps / 1_000_000.0)
    } else if pps >= 1_000.0 {
        format!("{:.1} Kp/s", pps / 1_000.0)
    } else {
        format!("{pps:.0} p/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_and_pps_formatting() {
        assert_eq!(fmt_clock(0), "0:00");
        assert_eq!(fmt_clock(65 * 1_000_000_000), "1:05");
        assert_eq!(fmt_clock(3_661 * 1_000_000_000), "1:01:01");
        assert_eq!(fmt_pps(850.0), "850 p/s");
        assert_eq!(fmt_pps(2_500.0), "2.5 Kp/s");
        assert_eq!(fmt_pps(1_200_000.0), "1.2 Mp/s");
    }

    #[test]
    fn due_and_rescheduling() {
        let mut m = ProgressMonitor::new(1_000_000_000);
        let mut sink = BufferSink::default();
        assert!(!m.due(999_999_999));
        assert!(m.due(1_000_000_000));
        let sample = ProgressSample {
            elapsed_nanos: 1_000_000_000,
            ..ProgressSample::default()
        };
        m.report(&sample, &mut sink);
        assert!(!m.due(1_500_000_000));
        assert!(m.due(2_000_000_000));
        // A long stall skips missed intervals rather than bursting.
        let late = ProgressSample {
            elapsed_nanos: 10_500_000_000,
            ..ProgressSample::default()
        };
        m.report(&late, &mut sink);
        assert!(!m.due(10_900_000_000));
        assert!(m.due(11_000_000_000));
        assert_eq!(m.reports(), 2);
        assert_eq!(sink.lines.len(), 2);
    }

    #[test]
    fn status_line_shape() {
        let s = ProgressSample {
            elapsed_nanos: 5_000_000_000,
            targets_sent: 12_500,
            targets_total: 100_000,
            hits: 230,
            live_sessions: 96,
            configured_pps: 2_500,
            verdicts: [180, 20, 10, 0],
        };
        let line = ProgressMonitor::format_line(&s);
        assert_eq!(
            line,
            "0:05 12.5% (0:35 left); send: 12500 pps: 2.5 Kp/s (cfg 2.5 Kp/s); \
             hits: 230 (1.84%); live: 96; ok/few/err/unr: 180/20/10/0"
        );
    }

    #[test]
    fn final_report_flushes_mid_interval_with_error_tallies() {
        let mut m = ProgressMonitor::new(1_000_000_000);
        let mut sink = BufferSink::default();
        m.report(
            &ProgressSample {
                elapsed_nanos: 1_000_000_000,
                ..ProgressSample::default()
            },
            &mut sink,
        );
        // Scan ends 400 ms into the next interval: a periodic line is not
        // due, but the final flush still lands.
        let end = ProgressSample {
            elapsed_nanos: 1_400_000_000,
            targets_sent: 100,
            targets_total: 100,
            hits: 40,
            verdicts: [30, 5, 4, 1],
            ..ProgressSample::default()
        };
        assert!(!m.due(end.elapsed_nanos));
        m.final_report(
            &end,
            &[
                ("handshake_timeout", 3),
                ("malformed", 0),
                ("mid_connection_reset", 1),
            ],
            &mut sink,
        );
        assert_eq!(m.reports(), 2);
        let last = sink.lines.last().unwrap();
        assert!(last.contains("(sending done)"), "{last}");
        assert!(last.contains("ok/few/err/unr: 30/5/4/1"), "{last}");
        assert!(
            last.ends_with("; errors: handshake_timeout=3 mid_connection_reset=1"),
            "{last}"
        );
    }

    #[test]
    fn final_report_skips_duplicate_and_omits_empty_error_suffix() {
        let mut m = ProgressMonitor::new(1_000_000_000);
        let mut sink = BufferSink::default();
        let at_tick = ProgressSample {
            elapsed_nanos: 1_000_000_000,
            ..ProgressSample::default()
        };
        m.report(&at_tick, &mut sink);
        // Scan ends exactly at the last periodic report: nothing new to say.
        m.final_report(&at_tick, &[("malformed", 1)], &mut sink);
        assert_eq!(sink.lines.len(), 1);

        // A fresh monitor that never reported still flushes, and an
        // all-zero tally adds no errors suffix.
        let mut m2 = ProgressMonitor::new(1_000_000_000);
        let mut sink2 = BufferSink::default();
        m2.final_report(
            &ProgressSample {
                elapsed_nanos: 300_000_000,
                ..ProgressSample::default()
            },
            &[("malformed", 0)],
            &mut sink2,
        );
        assert_eq!(sink2.lines.len(), 1);
        assert!(!sink2.lines[0].contains("errors"), "{}", sink2.lines[0]);
    }

    #[test]
    fn status_line_when_done_and_when_total_unknown() {
        let done = ProgressSample {
            elapsed_nanos: 2_000_000_000,
            targets_sent: 100,
            targets_total: 100,
            ..ProgressSample::default()
        };
        assert!(ProgressMonitor::format_line(&done).contains("(sending done)"));
        let unknown = ProgressSample {
            elapsed_nanos: 2_000_000_000,
            targets_sent: 100,
            targets_total: 0,
            ..ProgressSample::default()
        };
        let line = ProgressMonitor::format_line(&unknown);
        assert!(line.starts_with("0:02; send: 100"), "{line}");
    }
}
