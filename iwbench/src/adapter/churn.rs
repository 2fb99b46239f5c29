//! The kernel churn scenario (ported from `exp_eventloop`): the hot-path
//! shape of a resilient paced scan driven straight into `Sim`. A scanner
//! emits 64-probe batches of SYN-sized datagrams every virtual
//! millisecond and arms a 1-3 s retransmission timer per probe (so ~10^5
//! timers stay pending); 512 echo hosts answer every probe. The event
//! count depends only on `rounds`.

use iw_netsim::{Duration, Effects, Endpoint, Instant, LinkConfig, Sim, SimConfig, TimerToken};

const HOSTS: u32 = 512;
const BASE_ADDR: u32 = 0x0A00_0001;
const BATCH: usize = 64;
/// 20-byte IPv4 header + 20-byte TCP header.
const PROBE_BYTES: usize = 40;

const PACE_TOKEN: TimerToken = 0;
const RETX_TOKEN: TimerToken = 1;

struct ChurnScanner {
    rounds_left: u64,
    next: u32,
    template: Vec<u8>,
    rx: u64,
}

impl Endpoint for ChurnScanner {
    fn on_packet(&mut self, _pkt: &[u8], _now: Instant, _fx: &mut Effects) {
        self.rx += 1;
    }
    fn on_timer(&mut self, token: TimerToken, _now: Instant, fx: &mut Effects) {
        if token == RETX_TOKEN {
            // The probe was answered long ago: the no-op cancel path.
            self.rx += 1;
            return;
        }
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        for _ in 0..BATCH {
            let dst = BASE_ADDR + (self.next % HOSTS);
            let mut pkt = fx.buffer();
            pkt.extend_from_slice(&self.template);
            pkt[16..20].copy_from_slice(&dst.to_be_bytes());
            fx.send(pkt.freeze());
            fx.arm(
                Duration::from_millis(1_000 + u64::from(self.next % 2_000)),
                RETX_TOKEN,
            );
            self.next = self.next.wrapping_add(1);
        }
        if self.rounds_left > 0 {
            fx.arm(Duration::from_millis(1), PACE_TOKEN);
        }
    }
}

struct EchoHost {
    reply: Vec<u8>,
}

impl Endpoint for EchoHost {
    fn on_packet(&mut self, _pkt: &[u8], _now: Instant, fx: &mut Effects) {
        let mut reply = fx.buffer();
        reply.extend_from_slice(&self.reply);
        fx.send(reply.freeze());
    }
    fn on_timer(&mut self, _token: TimerToken, _now: Instant, _fx: &mut Effects) {}
}

/// Run `rounds` pace ticks and drain the retransmission tail; returns
/// `(events, wall seconds)`.
pub fn drive(rounds: u64) -> (u64, f64) {
    let mut template = vec![0u8; PROBE_BYTES];
    template[0] = 0x45;
    let scanner = ChurnScanner {
        rounds_left: rounds,
        next: 0,
        template,
        rx: 0,
    };
    let factory = |_ip: u32| {
        let host = EchoHost {
            reply: vec![0u8; PROBE_BYTES],
        };
        let link = LinkConfig {
            latency: Duration::from_millis(10),
            ..LinkConfig::default()
        };
        Some((Box::new(host) as Box<dyn Endpoint>, link))
    };
    let mut sim = Sim::new(scanner, factory, SimConfig::default());
    sim.kick_scanner(|_s, _now, fx| fx.arm(Duration::ZERO, PACE_TOKEN));
    let t0 = std::time::Instant::now();
    sim.run_to_completion();
    let wall = t0.elapsed().as_secs_f64();
    (sim.stats().events, wall)
}
