//! The scanner's timer tokens: one enum, one encoding, one decoding.

use iw_netsim::TimerToken;

/// Every timer the scanner arms, and its token. The layout: a namespace
/// in bits 32..40 (0 = session wake-up, 1 = SYN-retry drain, 2 =
/// session watchdog); bits ..32 carry the responder's address for the
/// per-responder timers, bits 40.. the backoff level for the retry
/// drains (one timer per level, not per target). The scanner-global ticks (pacing, progress monitor,
/// SYN-timestamp sweep, stream snapshot) sit at the very top of the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Timer {
    Pacing,
    Monitor,
    Sweep,
    Stream,
    Session(u32),
    SynRetry(usize),
    Watchdog(u32),
}

impl Timer {
    pub(super) fn token(self) -> TimerToken {
        match self {
            Timer::Pacing => u64::MAX,
            Timer::Monitor => u64::MAX - 1,
            Timer::Sweep => u64::MAX - 2,
            Timer::Stream => u64::MAX - 3,
            Timer::Session(ip) => u64::from(ip),
            Timer::SynRetry(level) => (1 << 32) | ((level as u64) << 40),
            Timer::Watchdog(ip) => (2 << 32) | u64::from(ip),
        }
    }

    /// The timer a token names; `None` for a token no timer encodes to.
    pub(super) fn decode(token: TimerToken) -> Option<Timer> {
        let (ip, level) = (token as u32, (token >> 40) as usize);
        let timer = match (token >> 32) & 0xff {
            0 => Timer::Session(ip),
            1 => Timer::SynRetry(level),
            2 => Timer::Watchdog(ip),
            0xff => match !token {
                0 => Timer::Pacing,
                1 => Timer::Monitor,
                2 => Timer::Sweep,
                3 => Timer::Stream,
                _ => return None,
            },
            _ => return None,
        };
        (timer.token() == token).then_some(timer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tokens_keep_their_layout() {
        let timers = [
            (Timer::Pacing, u64::MAX),
            (Timer::Monitor, u64::MAX - 1),
            (Timer::Sweep, u64::MAX - 2),
            (Timer::Stream, u64::MAX - 3),
            (Timer::Session(0x0a00_0001), 0x0a00_0001),
            (Timer::SynRetry(0), 1 << 32),
            (Timer::SynRetry(15), (1 << 32) | (15 << 40)),
            (Timer::Watchdog(u32::MAX), (2 << 32) | 0xffff_ffff),
        ];
        for (timer, token) in timers {
            assert_eq!(timer.token(), token, "{timer:?}");
            assert_eq!(Timer::decode(token), Some(timer), "{token:#x}");
        }
        // No timer encodes to these: an unknown namespace, an address in
        // a retry drain, a level on a per-responder timer.
        let strays = [
            3 << 32,
            (3 << 32) | (3 << 40),
            (1 << 32) | 7,
            (1 << 40) | 7,
            (2 << 32) | (1 << 40),
        ];
        for token in strays {
            assert_eq!(Timer::decode(token), None, "{token:#x}");
        }
    }
}
