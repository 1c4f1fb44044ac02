//! Checkpoints from before the transcript left the format.
//!
//! Such files carry a `"transcript"` entry, and their checksum covers it.
//! The fixtures in `tests/fixtures/transcript_era/` were written by the
//! code of that format:
//!
//! `expert_episode3.json` is an expert search (seed 11, 6 episodes)
//! killed after episode 3. It must verify, load through its store and
//! resume to the outcome of an uninterrupted run. The transcript entry is ignored on load; replay
//! rebuilds the transcript. Resumed through the store, its first save
//! starts a checkpoint log.

use lcda::core::CoreError;
use lcda::prelude::*;
use lcda_base::json::Value;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/transcript_era")
        .join(name)
}

fn cfg(seed: u64) -> CoDesignConfig {
    CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(6)
        .seed(seed)
        .build()
}

/// Reads a fixture and checks it is of the old format: a transcript
/// entry with prompts in it.
fn transcript_era_json(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let value = Value::parse(&text).unwrap();
    let exchanges = value["transcript"]["exchanges"].as_array().unwrap();
    assert!(
        exchanges.iter().all(|e| e["prompt"].as_str().is_some()),
        "{}",
        path.display()
    );
    text
}

/// The checkpoint at `path` verifies, and its store returns it.
fn verify_and_load(path: &Path) -> Checkpoint {
    let text = transcript_era_json(path);
    let cp = Checkpoint::from_json(&text).expect("a transcript-era checkpoint verifies");
    // The recorded checksum covers the transcript: editing a prompt
    // breaks it.
    let tampered = text.replacen("\"prompt\": \"", "\"prompt\": \"edited ", 1);
    match Checkpoint::from_json(&tampered) {
        Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("checksum mismatch"), "{msg}"),
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    let (loaded, generation) = CheckpointStore::new(path, 1)
        .unwrap()
        .load_latest()
        .unwrap()
        .expect("the store finds the checkpoint");
    assert_eq!(generation, 0);
    assert_eq!(loaded, cp);
    loaded
}

#[test]
fn transcript_era_checkpoint_resumes_to_the_uninterrupted_outcome() {
    let cp = verify_and_load(&fixture("expert_episode3.json"));
    assert_eq!(cp.episodes_done(), 3);
    let run = || {
        CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(11))
            .optimizer(OptimizerSpec::ExpertLlm)
            .build()
            .unwrap()
    };
    let full = run().run().unwrap();
    let resumed = run().run_resumable(Some(cp), |_| Ok(())).unwrap();
    assert_eq!(resumed, full);
}

/// Resumed through a store, the first save after the whole-file
/// checkpoint starts a checkpoint log and rotates the file a generation
/// up, unchanged; the run still lands on the uninterrupted outcome.
#[test]
fn transcript_era_checkpoint_resumes_through_the_store_into_a_log() {
    let dir = std::env::temp_dir().join(format!("lcda-legacy-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    let fixture_bytes = std::fs::read(fixture("expert_episode3.json")).unwrap();
    std::fs::write(&path, &fixture_bytes).unwrap();

    let store = CheckpointStore::new(&path, 2).unwrap();
    let (cp, generation) = store.load_latest().unwrap().unwrap();
    assert_eq!((cp.episodes_done(), generation), (3, 0));
    let run = || {
        CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(11))
            .optimizer(OptimizerSpec::ExpertLlm)
            .build()
            .unwrap()
    };
    let mut first_save = true;
    let mut last = None;
    let resumed = run()
        .run_resumable(Some(cp), |cp| {
            store.save(cp)?;
            if std::mem::take(&mut first_save) {
                let log = std::fs::read_to_string(&path).unwrap();
                assert!(!log.starts_with("{\n"), "the first save starts a log");
                assert_eq!(log.lines().count(), 2, "a header and the whole checkpoint");
                assert_eq!(
                    std::fs::read(store.generation_path(1)).unwrap(),
                    fixture_bytes
                );
            }
            last = Some(cp.clone());
            Ok(())
        })
        .unwrap();
    assert_eq!(resumed, run().run().unwrap());
    // The later saves appended to that log.
    assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 4);
    let (loaded, generation) = store.load_latest().unwrap().unwrap();
    assert_eq!((Some(loaded), generation), (last, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
