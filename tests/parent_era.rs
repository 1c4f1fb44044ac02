//! Files written by earlier builds.
//!
//! The fixtures in `tests/fixtures/parent_era/` come from three builds.
//! The build before the simulated fault layer was removed wrote:
//!
//! - `run.jsonl`: the journal of `lcda search --episodes 3 --seed 7
//!   --journal`, whose records still carry a simulated-clock timestamp;
//! - `faulty.ckpt.json`: the checkpoint of a two-episode search (seed 5)
//!   on the retired fault-injecting decoration of the `cim` backend;
//! - `jobs.wal.jsonl`: a serve ledger with queued jobs naming retired
//!   specs, exercised in `tests/serve.rs`. Its lines 1-2 come from this
//!   build; lines 3-5 from the build before the `systolic` backend was
//!   removed: a `systolic` job and a `cim` job whose inline `hw` carries
//!   the retired `digital` section, then a plain `cim` job.
//!
//! The build before the sharded search was removed wrote `fleet.jsonl`,
//! the journal of a two-shard fleet search (8 episodes per shard, seed
//! 11): nine records, seven of them fleet events.
//!
//! The build before the cache store stopped recording its own capacity
//! wrote `store.json`, loaded in `tests/cache_store.rs`.
//!
//! An old journal must read to the same report as the same run today; a
//! checkpoint naming a retired backend must be refused by name, never
//! resumed on another backend; a journal of retired events must still
//! report, with its run's best reward.

use lcda::core::CoreError;
use lcda::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parent_era")
        .join(name)
}

#[test]
fn parent_era_journal_reports_like_the_same_run_today() {
    let text = std::fs::read_to_string(fixture("run.jsonl")).unwrap();
    let old = RunReport::from_jsonl(&text).unwrap();
    assert!(!old.truncated, "every parent-era line must parse");

    let (journal, buffer) = Journal::in_memory();
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(3)
        .seed(7)
        .build();
    CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .journal(journal.clone())
        .build()
        .unwrap()
        .run_resumable(None, |_| Ok(()))
        .unwrap();
    journal.finish().unwrap();
    let today = RunReport::from_jsonl(&buffer.contents()).unwrap();
    assert_eq!(old, today);
    assert_eq!(old.episodes, 3);
}

#[test]
fn parent_era_checkpoint_on_a_retired_backend_is_refused_by_name() {
    let path = fixture("faulty.ckpt.json");
    let (cp, generation) = CheckpointStore::new(&path, 1)
        .unwrap()
        .load_latest()
        .unwrap()
        .expect("the fixture verifies and loads");
    assert_eq!(generation, 0);
    let retired = cp.backend.clone();
    assert_ne!(retired, DEFAULT_BACKEND);
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(4)
        .seed(5)
        .build();

    // Resumed on the default backend: refused, naming the backend the
    // checkpoint was produced under.
    let err = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .build()
        .unwrap()
        .run_resumable(Some(cp), |_| Ok(()))
        .unwrap_err();
    assert!(matches!(err, CoreError::Checkpoint(_)), "{err:?}");
    assert!(err.to_string().contains(&format!("`{retired}`")), "{err}");

    // Asked for by name: the backend itself is unknown.
    let err = lcda::core::backend::check_backend(&retired).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("unknown hardware backend `{retired}`")),
        "{err}"
    );

    // The CLI resume path refuses it too, and leaves the file alone.
    let copy = std::env::temp_dir().join(format!("lcda-parent-era-{}.json", std::process::id()));
    std::fs::copy(&path, &copy).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lcda"))
        .args(["search", "--episodes", "4", "--seed", "5", "--resume"])
        .arg("--checkpoint")
        .arg(&copy)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let unchanged = std::fs::read(&copy).unwrap() == std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&copy);
    assert!(!out.status.success(), "the resume must fail");
    assert!(stderr.contains(&format!("`{retired}`")), "{stderr}");
    assert!(
        unchanged,
        "a refused resume must not rewrite the checkpoint"
    );
}

#[test]
fn parent_era_fleet_journal_reports_its_best_reward() {
    let text = std::fs::read_to_string(fixture("fleet.jsonl")).unwrap();
    let report = RunReport::from_jsonl(&text).unwrap();
    assert!(!report.truncated, "{report:?}");
    assert_eq!(report.dropped_lines, 0);
    assert_eq!(report.retired_events, 7);
    assert_eq!(report.records, 2, "run_start and run_end");
    assert_eq!(report.best_reward, Some(0.5752013403530011));

    let out = Command::new(env!("CARGO_BIN_EXE_lcda"))
        .arg("report")
        .arg(fixture("fleet.jsonl"))
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("truncated"), "{stdout}");
    assert!(stdout.contains("best reward      0.575201"), "{stdout}");
    assert!(stdout.contains("retired events   7"), "{stdout}");
}
