//! Output checking against the population's ground truth, over plain data:
//! the adapter turns the repo's types into [`Truth`] and [`Observed`], so
//! this file has no dependency on them and the rules can be tested alone.

/// The voted verdict of one MSS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Success(u32),
    FewData(u32),
    Error,
    Unreachable,
}

/// One ground-truth host offering the scanned protocol: one *operation*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    pub ip: u32,
    /// Configured initial window in segments at the primary MSS.
    pub iw: u32,
}

/// One host record the scan produced (all MSS runs, primary first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    pub ip: u32,
    pub verdicts: Vec<(u16, Verdict)>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ground-truth hosts offering the protocol, plus records that belong
    /// to no operation (each of those is a failure).
    pub attempted: u64,
    pub failed: u64,
    /// Success verdicts equal to the configured window.
    pub exact: u64,
    /// The three things packet loss does to a correct scanner, counted on
    /// a lossy workload and failed on a lossless one. Success verdicts
    /// below the configured window (the paper's tail-loss mode) ...
    pub underestimates: u64,
    /// ... hosts without a record (every SYN attempt lost) ...
    pub missed: u64,
    /// ... and second records for a host that already has one (a SYN
    /// retry re-opening a session).
    pub duplicates: u64,
}

/// Count failed operations. Both inputs must be sorted by address.
///
/// On every workload an operation fails when its primary verdict is
/// `Success(n)` with `n` above the configured window (verdict inflation)
/// or `FewData(lb)` with `lb` above it, and a record for an address where
/// no such host lives fails too. On a lossless workload a missing record,
/// a duplicate record and an underestimate also fail; under loss they are
/// counted instead (see [`Tally`]).
pub fn check(truth: &[Truth], observed: &[Observed], lossless: bool) -> Tally {
    let mut tally = Tally {
        attempted: truth.len() as u64,
        ..Tally::default()
    };
    let mut records = observed.iter().peekable();
    // A record that belongs to no operation is one more, failed.
    fn stray(tally: &mut Tally, n: u64) {
        tally.attempted += n;
        tally.failed += n;
    }
    for t in truth {
        while records.next_if(|o| o.ip < t.ip).is_some() {
            stray(&mut tally, 1);
        }
        let Some(record) = records.next_if(|o| o.ip == t.ip) else {
            tally.missed += 1;
            continue;
        };
        match record.verdicts.first().map(|(_, v)| *v) {
            Some(Verdict::Success(n)) if n > t.iw => tally.failed += 1,
            Some(Verdict::Success(n)) if n < t.iw => tally.underestimates += 1,
            Some(Verdict::Success(_)) => tally.exact += 1,
            Some(Verdict::FewData(lb)) if lb > t.iw => tally.failed += 1,
            _ => {}
        }
        while records.next_if(|o| o.ip == t.ip).is_some() {
            tally.duplicates += 1;
        }
    }
    stray(&mut tally, records.count() as u64);
    if lossless {
        tally.failed += tally.underestimates + tally.missed + tally.duplicates;
    }
    tally
}

/// FNV-1a over the `(ip, verdicts)` list: equal digests mean two runs
/// reached the same verdict for every host.
pub fn digest(observed: &[Observed]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in observed {
        eat(u64::from(o.ip));
        for (mss, v) in &o.verdicts {
            let (tag, value) = match v {
                Verdict::Success(n) => (1, *n),
                Verdict::FewData(n) => (2, *n),
                Verdict::Error => (3, 0),
                Verdict::Unreachable => (4, 0),
            };
            eat(u64::from(*mss) << 40 | tag << 32 | u64::from(value));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<Truth> {
        vec![
            Truth { ip: 10, iw: 10 },
            Truth { ip: 20, iw: 4 },
            Truth { ip: 30, iw: 2 },
        ]
    }

    fn obs(ip: u32, v: Verdict) -> Observed {
        Observed {
            ip,
            verdicts: vec![(64, v), (128, v)],
        }
    }

    fn clean() -> Vec<Observed> {
        vec![
            obs(10, Verdict::Success(10)),
            obs(20, Verdict::FewData(3)),
            obs(30, Verdict::Error),
        ]
    }

    #[test]
    fn clean_run_has_no_failures() {
        let t = check(&truth(), &clean(), true);
        assert_eq!((t.attempted, t.failed, t.exact), (3, 0, 1));
    }

    #[test]
    fn injected_wrong_verdict_is_counted() {
        let mut wrong = clean();
        wrong[0] = obs(10, Verdict::Success(11));
        assert_eq!(check(&truth(), &wrong, false).failed, 1, "inflation");
        wrong[0] = obs(10, Verdict::FewData(12));
        assert_eq!(check(&truth(), &wrong, false).failed, 1, "bound too high");
        wrong[0] = obs(10, Verdict::Success(9));
        assert_eq!(check(&truth(), &wrong, true).failed, 1, "lossless under");
        let lossy = check(&truth(), &wrong, false);
        assert_eq!((lossy.failed, lossy.underestimates), (0, 1));
    }

    #[test]
    fn missing_and_duplicate_records_fail_only_without_loss() {
        let mut records = clean();
        records.remove(1);
        records.push(obs(30, Verdict::Error));
        let lossy = check(&truth(), &records, false);
        assert_eq!((lossy.failed, lossy.missed, lossy.duplicates), (0, 1, 1));
        assert_eq!(check(&truth(), &records, true).failed, 2);
    }

    #[test]
    fn records_at_empty_addresses_always_fail() {
        let mut stray = clean();
        stray.insert(0, obs(5, Verdict::Success(10)));
        stray.push(obs(99, Verdict::Error));
        let t = check(&truth(), &stray, false);
        assert_eq!((t.attempted, t.failed), (5, 2));
    }

    #[test]
    fn digest_sees_every_field() {
        let base = digest(&clean());
        assert_eq!(base, digest(&clean()));
        let mut other = clean();
        other[1].verdicts[1].1 = Verdict::FewData(4);
        assert_ne!(base, digest(&other));
    }
}
