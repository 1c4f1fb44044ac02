//! Supervised sharded search: fleet determinism, crash-equivalence,
//! quarantine degradation, and the kill-any-shard-at-any-barrier
//! resume drill.
//!
//! The contract mirrors the chaos suite's: whatever the supervisor had
//! to absorb — an injected shard crash, a hung worker, a `kill -9`'d
//! fleet resumed from the coordinator manifest — the merged Pareto
//! front must come back **bit-identical** to the undisturbed fleet's.

use lcda::core::shard::{manifest_path, shard_checkpoint_path};
use lcda::core::CoreError;
use lcda::prelude::*;
use lcda_base::rng::check;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lcda-fleet-{tag}-{}-{n}.json", std::process::id()))
}

fn cfg(episodes: u32, seed: u64) -> CoDesignConfig {
    CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(seed)
        .build()
}

fn plan(shards: u32) -> ShardPlan {
    let mut p = ShardPlan::new(shards);
    p.barrier_interval = 2;
    p.elite_k = 2;
    p.restart_budget = 2;
    p.stall_ticks = 1_000;
    p.restart_backoff_ms = 10;
    p
}

fn fleet(episodes: u32, seed: u64, shards: u32) -> Supervisor {
    Supervisor::new(
        DesignSpace::nacim_cifar10(),
        cfg(episodes, seed),
        plan(shards),
    )
    .optimizer(OptimizerSpec::ExpertLlm)
}

/// Removes every file a persistent fleet may have written under `base`.
fn remove_fleet_files(base: &Path, shards: u32, keep: u32) {
    let mut paths = vec![manifest_path(base)];
    for s in 0..shards {
        paths.push(shard_checkpoint_path(base, s));
    }
    for p in paths {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&p);
        for g in 1..keep {
            let _ = std::fs::remove_file(p.with_file_name(format!("{name}.{g}")));
        }
    }
}

#[test]
fn every_shard_count_yields_a_repeatable_merged_front() {
    for shards in [1, 2, 4] {
        let a = fleet(8, 13, shards).run().unwrap();
        let b = fleet(8, 13, shards).run().unwrap();
        assert_eq!(a, b, "{shards}-shard fleet must be deterministic");
        assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "{shards}-shard front must be byte-identical run-to-run"
        );
        assert!(!a.front.is_empty());
        assert!(!a.partial_fleet);
        assert_eq!(a.histories.len(), shards as usize);
        for h in &a.histories {
            assert_eq!(h.len(), 8, "every shard runs its full episode budget");
        }
    }
}

#[test]
fn one_shard_fleet_reproduces_the_serial_expert_search() {
    let serial = CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(6, 42))
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let sharded = fleet(6, 42, 1).run().unwrap();
    assert_eq!(
        sharded.histories[0], serial.history,
        "a one-shard fleet is the serial search"
    );
}

#[test]
fn injected_crashes_and_stalls_are_invisible_in_the_merged_front() {
    // 3 shards × 3 generations; cells are generation * shards + shard.
    let faults = ShardFaultPlan::scripted([
        (0, ShardFault::Stall { ticks: 60_000 }), // g0/s0: hung → kill + restart
        (5, ShardFault::Crash),                   // g1/s2: panic → restart
        (7, ShardFault::Stall { ticks: 50 }),     // g2/s1: late heartbeat, self-heals
    ]);
    let (journal, buffer) = Journal::in_memory();
    let faulted = fleet(6, 5, 3)
        .fault_plan(faults)
        .journal(journal.clone())
        .run()
        .unwrap();
    journal.finish().unwrap();
    let report = RunReport::from_jsonl(&buffer.contents()).unwrap();
    assert_eq!(report.shard_crashes, 1);
    assert_eq!(report.shard_stalls, 1, "only the hung stall is journaled");
    assert_eq!(report.shard_restarts, 2);
    assert_eq!(report.shard_quarantined, 0);
    assert_eq!(report.shard_heartbeats, 9, "3 shards × 3 generations");
    assert_eq!(report.shard_barriers, 3);
    assert!(!report.partial_fleet);

    // Invisible in the merged front and the committed work; only the
    // per-shard restart counters record that supervision stepped in.
    let clean = fleet(6, 5, 3).run().unwrap();
    assert_eq!(
        faulted.front, clean.front,
        "supervision must be invisible in the front"
    );
    assert_eq!(faulted.histories, clean.histories);
    assert_eq!(faulted.partial_fleet, clean.partial_fleet);
    let work = |o: &ShardOutcome| {
        o.shards
            .iter()
            .map(|s| (s.seed, s.episodes, s.best_reward))
            .collect::<Vec<_>>()
    };
    assert_eq!(work(&faulted), work(&clean));
    assert_eq!(faulted.shards[0].restarts, 1);
    assert_eq!(faulted.shards[2].restarts, 1);
}

#[test]
fn budget_exhaustion_quarantines_the_shard_but_the_fleet_completes() {
    let mut p = plan(2);
    p.restart_budget = 0;
    let faults = ShardFaultPlan::scripted([(1, ShardFault::Crash)]); // g0/s1
    let (journal, buffer) = Journal::in_memory();
    let outcome = Supervisor::new(DesignSpace::nacim_cifar10(), cfg(6, 9), p)
        .optimizer(OptimizerSpec::ExpertLlm)
        .fault_plan(faults)
        .journal(journal.clone())
        .run()
        .expect("a partial fleet still completes");
    journal.finish().unwrap();

    assert!(outcome.partial_fleet);
    assert_eq!(outcome.shards[1].quarantined_at, Some(0));
    assert_eq!(outcome.shards[1].episodes, 0);
    assert_eq!(outcome.histories[1].len(), 0);
    assert_eq!(outcome.histories[0].len(), 6, "the survivor finishes");
    assert!(!outcome.front.is_empty());
    assert!(
        outcome.front.iter().all(|pt| pt.shard == 0),
        "the merged front degrades to the survivor's work"
    );

    let report = RunReport::from_jsonl(&buffer.contents()).unwrap();
    assert_eq!(report.shard_quarantined, 1);
    assert!(report.partial_fleet);
    assert!(
        buffer
            .contents()
            .contains("\"event\":\"shard_quarantined\""),
        "quarantine must be journaled"
    );
    assert!(report.render().contains("partial fleet"));
}

#[test]
fn a_fully_quarantined_fleet_is_a_typed_error() {
    let mut p = plan(2);
    p.restart_budget = 0;
    let faults = ShardFaultPlan::scripted([(0, ShardFault::Crash), (1, ShardFault::Crash)]);
    let err = Supervisor::new(DesignSpace::nacim_cifar10(), cfg(4, 3), p)
        .optimizer(OptimizerSpec::ExpertLlm)
        .fault_plan(faults)
        .run()
        .unwrap_err();
    assert!(matches!(err, CoreError::Shard(_)), "{err}");
    assert!(err.to_string().contains("no survivors"), "{err}");
}

#[test]
fn sharded_journals_are_byte_identical_run_to_run() {
    let journal_of = || {
        let (journal, buffer) = Journal::in_memory();
        fleet(6, 21, 3).journal(journal.clone()).run().unwrap();
        journal.finish().unwrap();
        buffer.contents()
    };
    let (a, b) = (journal_of(), journal_of());
    assert!(!a.is_empty());
    assert_eq!(a, b, "sharded journals must be deterministic");
    assert!(a.contains("\"event\":\"shard_heartbeat\""));
    assert!(a.contains("\"event\":\"shard_barrier\""));
    assert!(a.contains("\"event\":\"shard_merge\""));
}

#[test]
fn resume_after_a_complete_run_rewrites_nothing_and_reproduces_the_front() {
    let base = scratch("complete");
    let clean = fleet(6, 17, 2).checkpoints(&base, 2).run().unwrap();

    // Snapshot every fleet file, resume, and demand byte-stability:
    // nothing was dead, so nothing may be rewritten.
    let files: Vec<(PathBuf, Vec<u8>)> = [manifest_path(&base)]
        .into_iter()
        .chain((0..2).map(|s| shard_checkpoint_path(&base, s)))
        .map(|p| {
            let bytes = std::fs::read(&p).expect("fleet file exists");
            (p, bytes)
        })
        .collect();
    let resumed = fleet(6, 17, 2).checkpoints(&base, 2).resume().unwrap();
    assert_eq!(resumed, clean);
    assert_eq!(resumed.to_json().unwrap(), clean.to_json().unwrap());
    for (p, before) in &files {
        let after = std::fs::read(p).expect("fleet file still exists");
        assert_eq!(
            &after,
            before,
            "{} was rewritten on a no-op resume",
            p.display()
        );
    }
    remove_fleet_files(&base, 2, 2);
}

/// The uninterrupted reference fleet for the chaos drill below —
/// computed once, compared against every (barrier, victim) case.
fn reference_front() -> &'static (ShardOutcome, String) {
    static REF: OnceLock<(ShardOutcome, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let outcome = fleet(8, 29, 3).run().unwrap();
        let json = outcome.to_json().unwrap();
        (outcome, json)
    })
}

/// Satellite drill: kill the whole fleet at any barrier (after the
/// manifest landed), lose any one shard's checkpoints entirely, and
/// resume from the manifest. The resumed merged front must be
/// byte-identical to the uninterrupted run's, with only the dead
/// shard re-executing evaluations.
#[test]
fn killing_any_shard_at_any_barrier_then_resuming_reproduces_the_front() {
    check(10, |rng| {
        let barrier = rng.below(4) as u32;
        let victim = rng.below(3) as u32;
        let base = scratch("kill");
        let err = fleet(8, 29, 3)
            .checkpoints(&base, 2)
            .run_with(|g, manifest| {
                assert_eq!(manifest.completed_generations, g + 1);
                if g == barrier {
                    return Err(CoreError::Checkpoint("simulated kill".into()));
                }
                Ok(())
            })
            .unwrap_err();
        assert!(err.to_string().contains("simulated kill"));

        // The victim loses every checkpoint generation it ever wrote.
        let victim_base = shard_checkpoint_path(&base, victim);
        let name = victim_base
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        assert!(
            victim_base.exists(),
            "victim checkpoint must exist before the kill"
        );
        std::fs::remove_file(&victim_base).unwrap();
        let _ = std::fs::remove_file(victim_base.with_file_name(format!("{name}.1")));

        let resumed = fleet(8, 29, 3).checkpoints(&base, 2).resume().unwrap();
        let (clean, clean_json) = reference_front();
        assert_eq!(&resumed, clean);
        assert_eq!(&resumed.to_json().unwrap(), clean_json);
        remove_fleet_files(&base, 3, 2);
    });
}

#[test]
fn resume_with_a_mismatched_fleet_identity_is_rejected() {
    let base = scratch("identity");
    fleet(6, 33, 2).checkpoints(&base, 2).run().unwrap();
    // Same base, different master seed: the manifest must refuse.
    let err = fleet(6, 34, 2).checkpoints(&base, 2).resume().unwrap_err();
    assert!(matches!(err, CoreError::Shard(_)), "{err}");
    assert!(err.to_string().contains("seed"), "{err}");
    remove_fleet_files(&base, 2, 2);
}
