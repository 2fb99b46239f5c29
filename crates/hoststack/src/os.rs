//! Operating-system TCP personality profiles.
//!
//! The paper examined "fresh copies of multiple operating systems" to find
//! the smallest usable MSS (§3.1). The relevant behavioural axis is what a
//! stack does with an absurdly small MSS advertised by the peer; the
//! scanner's 64 B announcement is calibrated against exactly these rules.

use iw_netsim::Duration;

/// A TCP stack personality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsProfile {
    /// Human-readable name ("linux-4.x", "windows-2012", ...).
    pub name: &'static str,
    /// Smallest segment size the stack will actually use. A peer MSS
    /// below this is clamped up (Linux behaviour: floor at 64 B... a peer
    /// advertising 32 still gets 64-byte segments).
    pub min_mss: u32,
    /// If the peer's MSS is below this threshold, fall back to this value
    /// entirely (Windows behaviour: anything below 536 B becomes 536 B).
    pub small_mss_fallback: Option<u32>,
    /// Initial retransmission timeout.
    pub initial_rto: Duration,
}

impl OsProfile {
    /// Modern Linux: floors the peer MSS at 64 B, 1 s initial RTO.
    pub fn linux() -> OsProfile {
        OsProfile {
            name: "linux",
            min_mss: 64,
            small_mss_fallback: None,
            initial_rto: Duration::from_millis(1000),
        }
    }

    /// Windows: any peer MSS below 536 B is replaced by 536 B.
    pub fn windows() -> OsProfile {
        OsProfile {
            name: "windows",
            min_mss: 536,
            small_mss_fallback: Some(536),
            initial_rto: Duration::from_millis(3000),
        }
    }

    /// Legacy embedded stacks (home routers, modems): accept tiny MSS
    /// as-is but with a sluggish RTO.
    pub fn embedded() -> OsProfile {
        OsProfile {
            name: "embedded",
            min_mss: 32,
            small_mss_fallback: None,
            initial_rto: Duration::from_millis(1500),
        }
    }

    /// BSD-family: floors at 64 like Linux, slightly different RTO.
    pub fn bsd() -> OsProfile {
        OsProfile {
            name: "bsd",
            min_mss: 64,
            small_mss_fallback: None,
            initial_rto: Duration::from_millis(1200),
        }
    }

    /// Every personality a simulated host can have.
    pub fn all() -> [OsProfile; 4] {
        [
            OsProfile::linux(),
            OsProfile::windows(),
            OsProfile::embedded(),
            OsProfile::bsd(),
        ]
    }

    /// The effective MSS this stack uses against a peer-advertised value
    /// (`None` = the peer sent no MSS option → RFC 1122 default 536).
    pub fn effective_mss(&self, peer_mss: Option<u16>) -> u32 {
        let advertised = peer_mss.map_or(536, u32::from);
        if let Some(fallback) = self.small_mss_fallback {
            if advertised < fallback {
                return fallback;
            }
        }
        advertised.max(self.min_mss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_floors_at_64() {
        let os = OsProfile::linux();
        assert_eq!(os.effective_mss(Some(64)), 64);
        assert_eq!(os.effective_mss(Some(32)), 64);
        assert_eq!(os.effective_mss(Some(128)), 128);
        assert_eq!(os.effective_mss(Some(1460)), 1460);
    }

    #[test]
    fn windows_falls_back_to_536() {
        let os = OsProfile::windows();
        assert_eq!(os.effective_mss(Some(64)), 536, "the paper's §3.1 quirk");
        assert_eq!(os.effective_mss(Some(535)), 536);
        assert_eq!(os.effective_mss(Some(536)), 536);
        assert_eq!(os.effective_mss(Some(1460)), 1460);
    }

    #[test]
    fn missing_mss_option_defaults_to_536() {
        assert_eq!(OsProfile::linux().effective_mss(None), 536);
        assert_eq!(OsProfile::windows().effective_mss(None), 536);
    }

    #[test]
    fn embedded_accepts_tiny() {
        assert_eq!(OsProfile::embedded().effective_mss(Some(40)), 40);
        assert_eq!(OsProfile::embedded().effective_mss(Some(16)), 32);
    }
}
