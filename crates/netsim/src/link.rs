//! Link impairment model.
//!
//! Every scanner↔host path gets its own [`Link`], seeded deterministically
//! from the scan seed and the host address, so results do not depend on
//! event interleaving across hosts. The model mirrors what the paper's
//! validation uses NetEM for: delay, jitter, random loss — and adds
//! scripted per-index drops so tests can hit *exact* packets (e.g. "drop
//! the last data segment" = tail loss).

use crate::rng::SmallRng;
use crate::time::Duration;

/// Static description of a path's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Maximum additional random delay per packet (uniform in `[0, jitter]`).
    /// Jitter larger than the inter-packet gap produces genuine reordering.
    pub jitter: Duration,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// Independent per-packet duplication probability in `[0, 1]`.
    pub dup: f64,
    /// Scripted faults, usually set through the `with_*` builders. Out
    /// of line: the simulator keeps a link for every host it ever
    /// spawned, and only tests script one.
    pub script: Option<Box<FaultScript>>,
}

/// Faults scripted on exact packets, per direction (`[forward, reverse]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    /// 0-based packet indexes silently discarded regardless of `loss`.
    /// Reverse drops are how tests inflict *exact* tail loss on the
    /// server's IW flight.
    pub drops: [Vec<u64>; 2],
    /// Drop every packet from this 0-based index on: the path "goes
    /// dark" mid-conversation (route flap, middlebox).
    pub blackhole_after: [Option<u64>; 2],
    /// Packets each direction of the link has carried so far: the index
    /// the script is phrased in, counted only on a scripted link.
    sent: [u64; 2],
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: Duration::from_millis(20),
            jitter: Duration::ZERO,
            loss: 0.0,
            dup: 0.0,
            script: None,
        }
    }
}

impl LinkConfig {
    /// A clean low-latency testbed link (validation experiments, §3.5).
    pub fn testbed() -> Self {
        LinkConfig {
            latency: Duration::from_millis(1),
            ..LinkConfig::default()
        }
    }

    /// A lossy link à la `netem loss <pct>%`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Add jitter.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Script an exact scanner→host packet drop (0-based index).
    pub fn with_forward_drop(self, index: u64) -> Self {
        self.scripted(|s| s.drops[0].push(index))
    }

    /// Script an exact host→scanner packet drop (0-based index).
    pub fn with_reverse_drop(self, index: u64) -> Self {
        self.scripted(|s| s.drops[1].push(index))
    }

    /// Black-hole the scanner→host direction from packet `index` on.
    pub fn with_forward_blackhole_after(self, index: u64) -> Self {
        self.scripted(|s| s.blackhole_after[0] = Some(index))
    }

    /// Black-hole the host→scanner direction from packet `index` on.
    pub fn with_reverse_blackhole_after(self, index: u64) -> Self {
        self.scripted(|s| s.blackhole_after[1] = Some(index))
    }

    fn scripted(mut self, edit: impl FnOnce(&mut FaultScript)) -> Self {
        edit(self.script.get_or_insert_with(Box::default));
        self
    }
}

/// Arrival delays for one transit: zero (dropped), one, or two (the
/// duplication path) — stored inline so the per-packet routing path
/// never touches the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arrivals {
    delays: [Duration; 2],
    len: u8,
}

impl Arrivals {
    fn push(&mut self, delay: Duration) {
        if usize::from(self.len) < 2 {
            self.delays[usize::from(self.len)] = delay;
            self.len += 1;
        }
    }

    /// The delays as a slice (also available through `Deref`).
    pub fn as_slice(&self) -> &[Duration] {
        &self.delays[..usize::from(self.len)]
    }
}

impl std::ops::Deref for Arrivals {
    type Target = [Duration];
    fn deref(&self) -> &[Duration] {
        self.as_slice()
    }
}

impl IntoIterator for Arrivals {
    type Item = Duration;
    type IntoIter = std::iter::Take<std::array::IntoIter<Duration, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.delays.into_iter().take(usize::from(self.len))
    }
}

/// A live link between the scanner and one host.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    /// One random stream per direction (`[forward, reverse]`).
    rng: [SmallRng; 2],
}

const _: () = assert!(
    std::mem::size_of::<Link>() <= 104,
    "the simulator keeps a Link for every host it ever spawned: at 192 B \
     (fault scripts and packet counts inline) the link table of a dense \
     scan cost ~1.3 MB more"
);

/// The two directions across a link, from the scanner's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Scanner → host.
    Forward,
    /// Host → scanner.
    Reverse,
}

impl Link {
    /// Instantiate a link with a deterministic per-path seed.
    pub fn new(config: LinkConfig, seed: u64) -> Link {
        Link {
            config,
            rng: [
                SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
                SmallRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d),
            ],
        }
    }

    /// Pass one packet through the link.
    ///
    /// Returns the extra delays (relative to "now") at which copies arrive:
    /// empty = lost, one entry = normal, two = duplicated.
    pub fn transit(&mut self, dir: Direction) -> Arrivals {
        let side = match dir {
            Direction::Forward => 0,
            Direction::Reverse => 1,
        };
        if let Some(script) = &mut self.config.script {
            let index = script.sent[side];
            script.sent[side] += 1;
            if script.blackhole_after[side].is_some_and(|after| index >= after)
                || script.drops[side].contains(&index)
            {
                return Arrivals::default();
            }
        }
        let (config, rng) = (&self.config, &mut self.rng[side]);
        if config.loss > 0.0 && rng.next_f64() < config.loss {
            return Arrivals::default();
        }
        let mut arrivals = Arrivals::default();
        let jitter = if config.jitter > Duration::ZERO {
            config.jitter.mul_f64(rng.next_f64())
        } else {
            Duration::ZERO
        };
        arrivals.push(config.latency + jitter);
        if config.dup > 0.0 && rng.next_f64() < config.dup {
            let jitter2 = config.jitter.mul_f64(rng.next_f64());
            arrivals.push(config.latency + jitter2 + Duration::from_micros(50));
        }
        arrivals
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_delivers_everything_in_order() {
        let mut link = Link::new(LinkConfig::testbed(), 1);
        for _ in 0..100 {
            let arr = link.transit(Direction::Forward);
            assert_eq!(arr.as_slice(), &[Duration::from_millis(1)]);
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut link = Link::new(LinkConfig::default().with_loss(1.0), 2);
        for _ in 0..50 {
            assert!(link.transit(Direction::Reverse).is_empty());
        }
    }

    #[test]
    fn scripted_drop_hits_exact_index() {
        let mut link = Link::new(LinkConfig::testbed().with_forward_drop(2), 3);
        assert!(!link.transit(Direction::Forward).is_empty());
        assert!(!link.transit(Direction::Forward).is_empty());
        assert!(
            link.transit(Direction::Forward).is_empty(),
            "index 2 dropped"
        );
        assert!(!link.transit(Direction::Forward).is_empty());
        // Directions are independent: a forward drop leaves reverse alone.
        let mut link = Link::new(LinkConfig::testbed().with_forward_drop(0), 3);
        assert!(link.transit(Direction::Forward).is_empty());
        assert!(!link.transit(Direction::Reverse).is_empty());
        let mut link = Link::new(LinkConfig::testbed().with_reverse_drop(0), 3);
        assert!(!link.transit(Direction::Forward).is_empty());
        assert!(link.transit(Direction::Reverse).is_empty());
    }

    #[test]
    fn blackhole_kills_direction_from_index() {
        let mut link = Link::new(LinkConfig::testbed().with_reverse_blackhole_after(2), 5);
        assert!(!link.transit(Direction::Reverse).is_empty());
        assert!(!link.transit(Direction::Reverse).is_empty());
        for _ in 0..10 {
            assert!(link.transit(Direction::Reverse).is_empty());
        }
        // The other direction is unaffected.
        for _ in 0..10 {
            assert!(!link.transit(Direction::Forward).is_empty());
        }
    }

    #[test]
    fn loss_rate_statistically_plausible() {
        let mut link = Link::new(LinkConfig::default().with_loss(0.3), 42);
        let delivered = (0..10_000)
            .filter(|_| !link.transit(Direction::Forward).is_empty())
            .count();
        assert!((6500..7500).contains(&delivered), "got {delivered}");
    }

    #[test]
    fn duplication_produces_two_arrivals() {
        let mut cfg = LinkConfig::testbed();
        cfg.dup = 1.0;
        let mut link = Link::new(cfg, 7);
        let arr = link.transit(Direction::Forward);
        assert_eq!(arr.len(), 2);
        assert!(arr[1] > arr[0]);
    }

    #[test]
    fn jitter_varies_delay_within_bounds() {
        let cfg = LinkConfig::default().with_jitter(Duration::from_millis(10));
        let mut link = Link::new(cfg, 9);
        let mut seen_distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let arr = link.transit(Direction::Forward);
            let d = arr[0];
            assert!(d >= Duration::from_millis(20));
            assert!(d <= Duration::from_millis(30));
            seen_distinct.insert(d.as_nanos());
        }
        assert!(seen_distinct.len() > 10, "jitter should vary");
    }

    #[test]
    fn impaired_transit_draws_the_recorded_stream() {
        // Counts and delay sum recorded before `rand` left the tree: an
        // added, dropped or reordered draw in `transit` moves them.
        let mut cfg = LinkConfig::default()
            .with_loss(0.02)
            .with_jitter(Duration::from_millis(5));
        cfg.dup = 0.01;
        let mut link = Link::new(cfg, 7);
        let (mut lost, mut duplicated, mut delay_ns) = (0u32, 0u32, 0u64);
        for i in 0..10_000 {
            let arr = link.transit(if i % 2 == 0 {
                Direction::Forward
            } else {
                Direction::Reverse
            });
            lost += u32::from(arr.is_empty());
            duplicated += u32::from(arr.len() == 2);
            delay_ns += arr.iter().map(|d| d.as_nanos()).sum::<u64>();
        }
        assert_eq!((lost, duplicated, delay_ns), (202, 97, 222_472_068_368));
    }

    #[test]
    fn same_seed_same_behaviour() {
        let cfg = LinkConfig::default().with_loss(0.5);
        let mut a = Link::new(cfg.clone(), 1234);
        let mut b = Link::new(cfg, 1234);
        for _ in 0..200 {
            assert_eq!(a.transit(Direction::Forward), b.transit(Direction::Forward));
        }
    }
}
