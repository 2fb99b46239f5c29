//! Gates for the sharded engine: byte-identity of `Topology::threads(n)`
//! against the single-threaded reference, world `i` of `n` as a pure
//! function of `(config, shard)`, and exact-once list partitioning.

use iw_core::telemetry::Snapshot;
use iw_core::{Protocol, RunDisposition, ScanConfig, ScanRunner, TargetSpec, Topology};
use iw_internet::{Population, PopulationConfig};
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

/// The tentpole gate in miniature: really-concurrent topologies produce
/// the same bytes as the single-threaded reference — per-host results,
/// summary, and the canonical metrics snapshot.
#[test]
fn thread_topologies_match_the_single_threaded_reference() {
    let pop = population();
    let config = study_config(&pop, 7);
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
/// `(config, shard i of n)`. The three one-thread runs with the shard
/// tuple set by hand, merged, are `threads(3)`'s results and canonical
/// metrics byte for byte, so scheduling worlds differently can never
/// change what they compute.
#[test]
fn world_i_of_n_equals_a_hand_sharded_world() {
    let pop = population();
    let config = study_config(&pop, 11);
    let threaded = ScanRunner::new(&pop)
        .config(config.clone())
        .topology(Topology::threads(3))
        .run();
    let mut results = Vec::new();
    let mut metrics = Snapshot::default();
    for i in 0..3 {
        let mut by_hand = config.clone();
        by_hand.shard = (i, 3);
        let world = ScanRunner::new(&pop)
            .config(by_hand)
            .topology(Topology::threads(1))
            .run();
        assert_eq!(world.disposition, RunDisposition::Completed, "shard {i}");
        assert!(!world.results.is_empty(), "shard {i} recorded nothing");
        results.extend(world.results);
        metrics.merge(&world.telemetry.metrics);
    }
    results.sort_by_key(|r| r.ip);
    assert_eq!(format!("{results:?}"), format!("{:?}", threaded.results));
    assert_eq!(
        metrics.to_canonical_json(),
        threaded.telemetry.metrics.to_canonical_json()
    );
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
