//! Chaos suite: the ISSUE-mandated crash/corruption drills.
//!
//! Every test here follows the same contract — whatever the chaos (a
//! kill at a random step, a corrupted checkpoint generation, a torn
//! journal tail), the search must come back **bit-identical** to the
//! undisturbed run. Recovery that merely "works" is not enough; it must
//! be invisible in the results. A panicking evaluator is the one chaos
//! that does change results: it quarantines exactly its episode.

use lcda::core::CoreError;
use lcda::llm::design::CandidateDesign;
use lcda::prelude::*;
use lcda_base::rng::{check, Rng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path per test invocation (the suite runs tests in
/// parallel threads of one process, so pid alone is not enough).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lcda-chaos-{tag}-{}-{n}.json", std::process::id()))
}

fn cfg(episodes: u32, seed: u64) -> CoDesignConfig {
    CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(seed)
        .build()
}

fn clean_run(episodes: u32, seed: u64) -> Outcome {
    CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(episodes, seed))
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

/// Removes every generation a [`CheckpointStore`] may have written.
fn remove_generations(path: &PathBuf, keep: u32) {
    let _ = std::fs::remove_file(path);
    for g in 1..keep {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let _ = std::fs::remove_file(path.with_file_name(format!("{name}.{g}")));
    }
}

#[test]
fn kill_at_every_step_resumes_to_the_identical_outcome() {
    let episodes = 5;
    let reference = clean_run(episodes, 13);
    for kill_after in 1..episodes {
        let path = scratch("kill");
        let store = CheckpointStore::new(&path, 2).unwrap();
        // Crash the driver right after the kill_after-th checkpoint write
        // — run_resumable propagates the error like a process death would
        // lose the rest of the loop.
        let mut saved = 0u32;
        let crashed = CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(episodes, 13))
            .optimizer(OptimizerSpec::ExpertLlm)
            .build()
            .unwrap()
            .run_resumable(None, |cp| {
                store.save(cp)?;
                saved += 1;
                if saved == kill_after {
                    return Err(CoreError::Checkpoint("simulated kill".into()));
                }
                Ok(())
            });
        assert!(crashed.is_err(), "the simulated kill must abort the run");

        let (cp, generation) = store.load_latest().unwrap().expect("checkpoint persisted");
        assert_eq!(generation, 0, "newest generation is intact here");
        assert_eq!(cp.episodes_done(), kill_after as u64);
        let resumed = CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(episodes, 13))
            .optimizer(OptimizerSpec::ExpertLlm)
            .build()
            .unwrap()
            .run_resumable(Some(cp), |cp| store.save(cp))
            .unwrap();
        assert_eq!(
            resumed, reference,
            "resume after kill at step {kill_after} diverged"
        );
        remove_generations(&path, 2);
    }
}

#[test]
fn torn_journal_tail_is_repaired_and_the_resumed_run_reports_cleanly() {
    let episodes = 4;
    let journal_path = scratch("journal").with_extension("jsonl");
    let ckpt_path = scratch("journal-ckpt");
    let store = CheckpointStore::new(&ckpt_path, 1).unwrap();

    // Run two episodes, then die; tear the journal mid-line like a kill
    // during a buffered write would.
    let journal = Journal::to_file(&journal_path).unwrap();
    let mut saved = 0u32;
    let _ = CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(episodes, 17))
        .optimizer(OptimizerSpec::ExpertLlm)
        .journal(journal.clone())
        .build()
        .unwrap()
        .run_resumable(None, |cp| {
            store.save(cp)?;
            saved += 1;
            if saved == 2 {
                return Err(CoreError::Checkpoint("simulated kill".into()));
            }
            Ok(())
        });
    journal.finish().unwrap();
    let mut text = std::fs::read_to_string(&journal_path).unwrap();
    assert!(text.lines().count() > 2, "need a journal worth tearing");
    text.truncate(text.len() - 17); // mid-line: no trailing newline
    std::fs::write(&journal_path, &text).unwrap();

    // The torn file is still reportable — minus the destroyed tail.
    let torn = RunReport::from_jsonl(&std::fs::read_to_string(&journal_path).unwrap()).unwrap();
    assert!(torn.truncated, "a torn tail must be surfaced");

    // Resuming repairs the tail in place and appends the rest of the run.
    let resumed_journal = Journal::resume_file(&journal_path).unwrap();
    let (cp, _) = store.load_latest().unwrap().expect("checkpoint persisted");
    let outcome = CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(episodes, 17))
        .optimizer(OptimizerSpec::ExpertLlm)
        .journal(resumed_journal.clone())
        .build()
        .unwrap()
        .run_resumable(Some(cp), |cp| store.save(cp))
        .unwrap();
    resumed_journal.finish().unwrap();
    assert_eq!(outcome, clean_run(episodes, 17));

    let healed = RunReport::from_jsonl(&std::fs::read_to_string(&journal_path).unwrap()).unwrap();
    assert!(!healed.truncated, "the repaired journal must parse cleanly");
    assert_eq!(healed.dropped_lines, 0);
    assert!(healed.episodes >= u64::from(episodes - 2));

    let _ = std::fs::remove_file(&journal_path);
    remove_generations(&ckpt_path, 1);
}

/// The CiM backend, except that its third cost call panics.
struct PanicsOnThirdCall {
    inner: CimBackend,
    calls: u32,
}

impl HardwareCostEvaluator for PanicsOnThirdCall {
    fn cost(&mut self, design: &CandidateDesign) -> lcda::core::Result<Option<HwMetrics>> {
        self.calls += 1;
        if self.calls == 3 {
            panic!("scripted evaluator panic");
        }
        self.inner.cost(design)
    }
    fn name(&self) -> &'static str {
        "panics-on-third-call"
    }
}

#[test]
fn scripted_panic_mid_search_is_quarantined_not_fatal() {
    let space = DesignSpace::nacim_cifar10();
    let outcome = CoDesign::builder(space.clone(), cfg(5, 19))
        .optimizer(OptimizerSpec::Random)
        .hardware_evaluator(Box::new(PanicsOnThirdCall {
            inner: CimBackend::new(space),
            calls: 0,
        }))
        .no_cache()
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(outcome.history.len(), 5, "the run must survive the panic");
    assert_eq!(
        outcome.history.iter().filter(|r| r.quarantined).count(),
        1,
        "exactly the panicked episode is quarantined"
    );
}

/// The ways a checkpoint file can rot on disk.
#[derive(Debug, Clone)]
enum Corruption {
    /// Cut the file at a fraction of its length (a torn write).
    Truncate(f64),
    /// Flip one bit somewhere in the body (media rot).
    BitFlip { offset_frac: f64, bit: u8 },
    /// Rewrite the version field without fixing the checksum.
    VersionTamper,
}

fn random_corruption(rng: &mut Rng) -> Corruption {
    match rng.below(3) {
        0 => Corruption::Truncate(rng.uniform_f64(0.0, 0.999)),
        1 => Corruption::BitFlip {
            offset_frac: rng.uniform_f64(0.0, 0.999),
            bit: rng.below(8) as u8,
        },
        _ => Corruption::VersionTamper,
    }
}

fn corrupt(path: &std::path::Path, how: &Corruption) {
    let mut bytes = std::fs::read(path).unwrap();
    assert!(!bytes.is_empty());
    match how {
        Corruption::Truncate(frac) => {
            let len = ((bytes.len() as f64) * frac) as usize;
            bytes.truncate(len.min(bytes.len() - 1));
        }
        Corruption::BitFlip { offset_frac, bit } => {
            let at = (((bytes.len() as f64) * offset_frac) as usize).min(bytes.len() - 1);
            bytes[at] ^= 1 << bit;
        }
        Corruption::VersionTamper => {
            let text = String::from_utf8(bytes).unwrap();
            bytes = text
                .replacen("\"version\":", "\"version\": 990000, \"_v\":", 1)
                .into_bytes();
        }
    }
    std::fs::write(path, bytes).unwrap();
}

/// Whatever happens to the newest checkpoint log — a torn write, a bit
/// flip anywhere, a tampered version — resume either replays to the
/// exact same outcome or fails with a typed error; it never continues
/// from bytes it has not verified. A torn final line is salvaged; a bad
/// header or damage before the final line falls back to the previous
/// log, which every other case keeps: then the resume must succeed.
#[test]
fn corrupted_newest_generation_falls_back_and_replays_identically() {
    check(10, |rng| {
        let how = random_corruption(rng);
        let seed = rng.below(1000);
        let older_log = rng.below(2) == 1;
        let episodes = 3;
        let path = scratch("rot");
        let store = CheckpointStore::new(&path, 3).unwrap();
        let run = |budget: u32| {
            CoDesign::builder(DesignSpace::nacim_cifar10(), cfg(budget, seed))
                .optimizer(OptimizerSpec::Random)
                .build()
                .unwrap()
        };
        if older_log {
            // A shorter budget is another header: the run below starts
            // a new log and rotates this one to generation 1.
            run(episodes - 1)
                .run_resumable(None, |cp| store.save(cp))
                .unwrap();
        }
        let reference = run(episodes)
            .run_resumable(None, |cp| store.save(cp))
            .unwrap();
        assert_eq!(store.generation_path(1).exists(), older_log);

        corrupt(&path, &how);
        match store.load_latest() {
            Ok(Some((cp, generation))) => {
                assert!(cp.episodes_done() <= u64::from(episodes), "{how:?}");
                assert!(generation == 0 || older_log, "{how:?}");
                // The salvaged or older log replays under the full
                // budget to the identical outcome, saving as it goes.
                let replayed = run(episodes)
                    .run_resumable(Some(cp), |cp| store.save(cp))
                    .unwrap();
                assert_eq!(replayed, reference, "{how:?}");
                let (reloaded, _) = store.load_latest().unwrap().unwrap();
                assert_eq!(reloaded.history, reference.history, "{how:?}");
            }
            Err(CoreError::Checkpoint(_)) => {
                assert!(!older_log, "the older log must be resumed ({how:?})");
            }
            other => panic!("expected a resume or a typed error, got {other:?} ({how:?})"),
        }
        remove_generations(&path, 3);
    });
}
