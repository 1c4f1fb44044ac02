//! Sharded search: fleet determinism, the kill-any-shard-at-any-barrier
//! resume drill, and the fleet identity a resume must match.
//!
//! The contract mirrors the chaos suite's: a `kill -9`'d fleet resumed
//! from the coordinator manifest must come back with a merged Pareto
//! front **bit-identical** to the undisturbed fleet's, and a resume
//! under different hardware must be refused, not mixed in.

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

/// Writes the shipped ISAAC hierarchy to `path`, optionally shrunk to
/// different hardware (smaller node, slower bus, smaller buffer).
fn write_hierarchy(path: &Path, edited: bool) {
    let isaac = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/hw/isaac.json"),
    )
    .unwrap();
    let text = if edited {
        let changed = isaac
            .replace("\"feature_nm\": 32.0", "\"feature_nm\": 22.0")
            .replace("\"bus_gb_s\": 12.8", "\"bus_gb_s\": 6.4")
            .replace("\"global_buffer_kb\": 64", "\"global_buffer_kb\": 16");
        assert_ne!(changed, isaac, "the edit targets must exist");
        changed
    } else {
        isaac
    };
    std::fs::write(path, text).unwrap();
}

#[test]
fn resume_under_a_changed_hierarchy_is_rejected_and_a_moved_one_is_not() {
    let base = scratch("hw");
    let hw = base.with_extension("hw.json");
    write_hierarchy(&hw, false);
    let on = |path: &Path| fleet(8, 11, 2).backend(format!("cim@{}", path.display()));
    let clean = on(&hw).checkpoints(&base, 1).run().unwrap();

    // Same path, different chip, one shard's checkpoint lost: resuming
    // would re-run that shard on the new hardware next to the other
    // shard's old-hardware history. The fleet must refuse instead.
    write_hierarchy(&hw, true);
    std::fs::remove_file(shard_checkpoint_path(&base, 1)).unwrap();
    let err = on(&hw).checkpoints(&base, 1).resume().unwrap_err();
    assert!(
        matches!(err, CoreError::Shard(_) | CoreError::Checkpoint(_)),
        "{err}"
    );
    assert!(err.to_string().contains("digest"), "{err}");

    // The same chip under another path is the same fleet: the backend
    // identity drops the config source, and the digest matches.
    let moved = base.with_extension("moved.json");
    write_hierarchy(&moved, false);
    let resumed = on(&moved).checkpoints(&base, 1).resume().unwrap();
    assert_eq!(resumed, clean);
    assert_eq!(resumed.to_json().unwrap(), clean.to_json().unwrap());

    remove_fleet_files(&base, 2, 1);
    let _ = std::fs::remove_file(&hw);
    let _ = std::fs::remove_file(&moved);
}
