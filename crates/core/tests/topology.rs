//! Gates for the sharded engine: cursor seek-after-merge over the
//! cyclic-group partitions, byte-identity of `Topology::threads(n)`
//! against the single-threaded reference, world `i` of `n` as a pure
//! function of `(config, shard)`, and exact-once list partitioning.

use iw_core::permutation::Permutation;
use iw_core::{Protocol, RunControl, ScanConfig, ScanRunner, TargetSpec, Topology};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::Duration;
use std::sync::Arc;

fn population() -> Arc<Population> {
    Arc::new(Population::new(PopulationConfig {
        seed: 0xA11CE,
        space_size: 1 << 13,
        target_responsive: 200,
        loss_scale: 0.0,
    }))
}

fn study_config(pop: &Population, seed: u64) -> ScanConfig {
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), seed);
    config.rate_pps = 4_000_000;
    config
}

/// Deterministic stand-in for a property test (the container builds
/// without proptest): every (shard count, seed, shard, split point)
/// case must resume from a mid-cycle cursor onto the exact tail the
/// uninterrupted walk would have produced.
#[test]
fn seek_resumes_every_shard_exactly_where_it_stopped() {
    let size = 1 << 12;
    for count in [1u32, 3, 8] {
        for seed in [7u64, 0x1307_2017, 9_999_999_999] {
            let perm = Permutation::new(size, seed);
            for index in 0..count {
                let full: Vec<u64> = perm.shard(index, count).collect();
                for eighths in [0usize, 1, 4, 7, 8] {
                    let split = full.len() * eighths / 8;
                    let mut head = perm.shard(index, count);
                    let mut walked: Vec<u64> = (&mut head).take(split).collect();
                    let (next, produced) = head.cursor();
                    let mut resumed = perm.shard(index, count);
                    assert!(
                        resumed.seek(next, produced),
                        "cursor ({next}, {produced}) rejected for shard {index}/{count}"
                    );
                    walked.extend(resumed);
                    assert_eq!(
                        walked, full,
                        "shard {index}/{count} seed {seed} split {split}"
                    );
                }
            }
        }
    }
}

/// The merge story behind campaign resume: interrupt every shard at a
/// different point, seek fresh iterators to the recorded cursors, and
/// the union of prefixes and resumed tails must cover the space exactly
/// once — no address lost or probed twice.
#[test]
fn merged_resume_covers_the_space_exactly_once() {
    let size = 1 << 12;
    for count in [1u32, 3, 8] {
        let perm = Permutation::new(size, 0x1307);
        let mut merged: Vec<u64> = Vec::new();
        for index in 0..count {
            let mut head = perm.shard(index, count);
            // A different interruption point per shard, as a real kill
            // would leave behind.
            let split = (7 * (index as usize + 1)) % 40;
            merged.extend((&mut head).take(split));
            let (next, produced) = head.cursor();
            let mut resumed = perm.shard(index, count);
            assert!(resumed.seek(next, produced));
            merged.extend(resumed);
        }
        merged.sort_unstable();
        let want: Vec<u64> = (0..size).collect();
        assert_eq!(merged, want, "{count} shards");
    }
}

/// The tentpole gate in miniature: really-concurrent topologies produce
/// the same bytes as the single-threaded reference — per-host results,
/// summary, and the canonical metrics snapshot.
#[test]
fn thread_topologies_match_the_single_threaded_reference() {
    let pop = population();
    let mut config = study_config(&pop, 7);
    config.telemetry.record_events = true;
    let single = ScanRunner::new(&pop)
        .config(config.clone())
        .topology(Topology::threads(1))
        .run();
    assert!(!single.results.is_empty());
    for topology in [Topology::threads(3), Topology::threads(4)] {
        let out = ScanRunner::new(&pop)
            .config(config.clone())
            .topology(topology)
            .run();
        assert_eq!(
            single.telemetry.metrics.to_canonical_json(),
            out.telemetry.metrics.to_canonical_json(),
            "{topology:?}"
        );
        assert_eq!(
            format!("{:?}", single.results),
            format!("{:?}", out.results),
            "{topology:?}"
        );
        assert_eq!(
            format!("{:?}", single.summary),
            format!("{:?}", out.summary),
            "{topology:?}"
        );
        assert_eq!(single.duration, out.duration, "{topology:?}");
    }
}

/// The claim the whole design leans on: a world is a pure function of
/// `(config, shard i of n)`. Each shard's checkpoint trail out of
/// `threads(3)` is byte-identical to a one-thread run with the shard
/// tuple set by hand, so scheduling worlds differently can never change
/// what they compute.
#[test]
fn world_i_of_n_equals_a_hand_sharded_world() {
    let pop = population();
    let config = study_config(&pop, 11);
    let control = RunControl {
        checkpoint_every: Some(Duration::from_secs(5)),
        ..RunControl::default()
    };
    let threaded = ScanRunner::new(&pop)
        .config(config.clone())
        .topology(Topology::threads(3))
        .control(control.clone())
        .run();
    for i in 0..3 {
        let mut by_hand = config.clone();
        by_hand.shard = (i, 3);
        let world = ScanRunner::new(&pop)
            .config(by_hand)
            .topology(Topology::threads(1))
            .control(control.clone())
            .run();
        let trail: Vec<String> = threaded
            .checkpoints
            .iter()
            .filter(|c| c.shard == i)
            .map(|c| c.canonical_json())
            .collect();
        let want: Vec<String> = world
            .checkpoints
            .iter()
            .map(|c| c.canonical_json())
            .collect();
        assert!(trail.len() > 1, "shard {i}: periodic captures expected");
        assert_eq!(trail, want, "shard {i}");
    }
}

/// An explicit target list is round-robin partitioned across worlds:
/// every entry is probed by exactly one of them, so a sharded list scan
/// reports what the one-thread scan does.
#[test]
fn list_targets_partition_exactly_once_across_worlds() {
    let pop = population();
    let responsive: Vec<u32> = (0..pop.space_size())
        .filter(|ip| pop.ground_truth(*ip).is_some_and(|gt| gt.http))
        .take(10)
        .collect();
    assert_eq!(responsive.len(), 10);
    let mut config = study_config(&pop, 5);
    config.targets = TargetSpec::List(
        responsive
            .iter()
            .map(|ip| (*ip, Some(format!("host{ip}.example"))))
            .collect(),
    );
    let single = ScanRunner::new(&pop).config(config.clone()).run();
    let sharded = ScanRunner::new(&pop)
        .config(config)
        .topology(Topology::threads(3))
        .run();
    assert_eq!(single.summary.targets, 10);
    assert!(!single.results.is_empty());
    assert_eq!(
        format!("{:?}", single.summary),
        format!("{:?}", sharded.summary)
    );
    assert_eq!(
        format!("{:?}", single.results),
        format!("{:?}", sharded.results)
    );
}
