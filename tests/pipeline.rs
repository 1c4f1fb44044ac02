//! Acceptance properties of the evaluation pipeline: memoization must be
//! invisible in the results, thread counts must be invisible in the
//! results, and the cache must survive a kill/resume cycle through the
//! checkpoint JSON.
//!
//! The analytic evaluators memoize only on an attached store (a private
//! run on them keeps no memo), so the memo-mechanics tests here attach a
//! fresh [`CacheStore`], as a one-job server would.

use lcda::prelude::*;
use lcda_base::rng::check;

fn cfg(objective: Objective, episodes: u32, seed: u64) -> CoDesignConfig {
    CoDesignConfig::builder(objective)
        .episodes(episodes)
        .seed(seed)
        .build()
}

fn outcome_json(outcome: &Outcome) -> String {
    lcda_base::json::to_string(outcome)
}

/// Memoization is an implementation detail: for any seed and either
/// scalar objective, a cached run and an uncached run produce
/// bit-identical Outcomes.
#[test]
fn cached_run_is_bit_identical_to_uncached() {
    check(8, |rng| {
        let seed = rng.below(1_000);
        let objective = if rng.chance(0.5) {
            Objective::AccuracyLatency
        } else {
            Objective::AccuracyEnergy
        };
        let space = DesignSpace::nacim_cifar10();
        let mut cached = CoDesign::builder(space.clone(), cfg(objective, 10, seed))
            .optimizer(OptimizerSpec::ExpertLlm)
            .cache_store(&CacheStore::new())
            .build()
            .unwrap();
        let mut uncached = CoDesign::builder(space, cfg(objective, 10, seed))
            .optimizer(OptimizerSpec::ExpertLlm)
            .no_cache()
            .build()
            .unwrap();
        let a = cached.run().unwrap();
        let b = uncached.run().unwrap();
        assert_eq!(outcome_json(&a), outcome_json(&b));
        // The cached run actually exercised the memo table…
        let stats = cached.cache_stats();
        assert!(stats.misses > 0);
        assert!(stats.inserts > 0);
        // …and the uncached run never touched one.
        let off = uncached.cache_stats();
        assert_eq!(off.hits + off.misses + off.inserts, 0);
    });
}

/// Re-proposed designs are served from the cache: every revisit is a
/// hit, never a re-evaluation. The tiny space holds (2·2)² = 16 designs,
/// so 40 random episodes must revisit at least 24 times.
#[test]
fn revisited_designs_hit_the_cache() {
    let space = DesignSpace::tiny_test();
    assert_eq!(space.choices.space_size(), 16);
    let mut run = CoDesign::builder(space, cfg(Objective::AccuracyEnergy, 40, 5))
        .optimizer(OptimizerSpec::Random)
        .cache_store(&CacheStore::new())
        .build()
        .unwrap();
    let outcome = run.run().unwrap();
    // Each episode looks up its hardware cost, and its accuracy when the
    // hardware is feasible; the first lookup of a design misses, every
    // later one must hit.
    let mut seen = std::collections::BTreeSet::new();
    let (mut distinct, mut distinct_feasible) = (0u64, 0u64);
    let (mut repeats, mut feasible_repeats) = (0u64, 0u64);
    for rec in &outcome.history {
        let feasible = u64::from(rec.hw.is_some());
        if seen.insert(rec.design.to_response_text()) {
            distinct += 1;
            distinct_feasible += feasible;
        } else {
            repeats += 1;
            feasible_repeats += feasible;
        }
    }
    assert!(
        repeats >= 24,
        "40 episodes over 16 designs: {repeats} repeats"
    );
    assert!(feasible_repeats > 0, "the accuracy cache is exercised too");
    let stats = run.cache_stats();
    assert_eq!(
        stats.hits,
        repeats + feasible_repeats,
        "every repeat is a hit: {stats:?}"
    );
    assert_eq!(
        stats.misses,
        distinct + distinct_feasible,
        "no repeat is re-evaluated: {stats:?}"
    );
    assert_eq!(stats.inserts, stats.misses, "every finite miss is inserted");
}

/// An evaluator that costs more than a lookup keeps the memo on a
/// private store: after a tiny trained-evaluator search, re-scoring a
/// design it evaluated is served from the table, bit-identically.
#[test]
fn trained_run_memoizes_on_a_private_store() {
    let space = DesignSpace::tiny_test();
    let trained = TrainedEvaluator::new(space.clone(), TrainedEvalConfig::fast_test()).unwrap();
    let mut run = CoDesign::builder(space, cfg(Objective::AccuracyEnergy, 2, 5))
        .optimizer(OptimizerSpec::Random)
        .accuracy_evaluator(Box::new(trained))
        .build()
        .unwrap();
    assert!(run.pipeline().memoizing());
    let outcome = run.run().unwrap();
    let before = run.cache_stats();
    assert!(before.inserts > 0, "{before:?}");
    let seen = outcome
        .history
        .iter()
        .find(|r| r.is_valid())
        .expect("a feasible episode");
    let again = run
        .evaluate_design(seen.episode, seen.design.clone())
        .unwrap();
    assert_eq!(again.reward, seen.reward);
    let after = run.cache_stats();
    assert_eq!(after.hits, before.hits + 2, "both tables hit: {after:?}");
    assert_eq!(after.misses, before.misses);
}

/// Thread counts are invisible in the results: the trained evaluator's
/// Monte-Carlo loop fans out across worker threads, and any thread count
/// is bit-identical to the sequential run.
#[test]
fn thread_count_is_bit_identical() {
    let space = DesignSpace::tiny_test();
    let run = |threads: usize| {
        let trained = TrainedEvaluator::new(space.clone(), TrainedEvalConfig::fast_test()).unwrap();
        let mut r = CoDesign::builder(space.clone(), cfg(Objective::AccuracyEnergy, 3, 7))
            .optimizer(OptimizerSpec::Random)
            .accuracy_evaluator(Box::new(trained))
            .threads(threads)
            .build()
            .unwrap();
        outcome_json(&r.run().unwrap())
    };
    let sequential = run(1);
    for threads in [2usize, 3, 8] {
        assert_eq!(run(threads), sequential, "threads={threads}");
    }
}

/// The memo table survives a kill/resume cycle *through the JSON
/// checkpoint*: the snapshot carries the cache, a fresh process restores
/// it, and the resumed run is bit-identical to the uninterrupted one.
#[test]
fn cache_survives_kill_and_resume() {
    let space = DesignSpace::nacim_cifar10();
    let config = cfg(Objective::AccuracyEnergy, 8, 13);

    let mut snapshots: Vec<Checkpoint> = Vec::new();
    let full = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .cache_store(&CacheStore::new())
        .build()
        .unwrap()
        .run_resumable(None, |cp| {
            snapshots.push(cp.clone());
            Ok(())
        })
        .unwrap();

    // "Kill" after episode 4; the wire format must carry the memo table.
    let json = snapshots[3].to_json().unwrap();
    assert!(json.contains("\"eval_cache\""));
    let restored = Checkpoint::from_json(&json).unwrap();
    let carried = restored
        .eval_cache
        .as_ref()
        .expect("snapshot carries cache");
    assert!(!carried.is_empty());

    let mut resumer = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .cache_store(&CacheStore::new())
        .build()
        .unwrap();
    let resumed = resumer.run_resumable(Some(restored), |_| Ok(())).unwrap();
    assert_eq!(outcome_json(&resumed), outcome_json(&full));

    // The restored entries are live: the resumed episodes consulted the
    // table and it still holds everything the snapshot carried.
    let cache = resumer.pipeline().cache().expect("caching stays on");
    assert!(cache.len() >= snapshots[3].eval_cache.as_ref().unwrap().len());
    let stats = resumer.cache_stats();
    assert!(stats.hits + stats.misses > 0);
}

/// Cache *statistics* are session-local and never ride the checkpoint:
/// the snapshot JSON carries entries but no counters, and a resumed
/// process starts counting from zero while the rehydrated entries still
/// serve hits.
#[test]
fn resumed_session_starts_with_zero_stats_but_live_entries() {
    let space = DesignSpace::nacim_cifar10();
    let config = cfg(Objective::AccuracyEnergy, 4, 21);

    let mut last: Option<Checkpoint> = None;
    let mut first = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .cache_store(&CacheStore::new())
        .build()
        .unwrap();
    let full = first
        .run_resumable(None, |cp| {
            last = Some(cp.clone());
            Ok(())
        })
        .unwrap();
    let pre_kill = first.cache_stats();
    assert!(pre_kill.misses > 0, "the first session did real work");

    // The wire format carries the memo table but none of the counters.
    let json = last.as_ref().unwrap().to_json().unwrap();
    assert!(json.contains("\"eval_cache\""));
    assert!(!json.contains("\"hits\""), "stats must not be serialized");
    assert!(!json.contains("\"misses\""));
    assert!(!json.contains("\"inserts\""));

    // A fresh process resumes from the completed snapshot: replay only,
    // no new evaluations — so its session counters must read zero, not
    // the first session's totals.
    let restored = Checkpoint::from_json(&json).unwrap();
    let mut resumer = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .cache_store(&CacheStore::new())
        .build()
        .unwrap();
    resumer.run_resumable(Some(restored), |_| Ok(())).unwrap();
    let after_resume = resumer.cache_stats();
    assert_eq!(
        after_resume.hits + after_resume.misses,
        0,
        "{after_resume:?}"
    );

    // …while the rehydrated entries are live: re-scoring a design the
    // first session evaluated is served entirely from the table.
    let seen = full
        .history
        .iter()
        .find(|r| r.is_valid())
        .expect("at least one feasible episode");
    let record = resumer
        .evaluate_design(seen.episode, seen.design.clone())
        .unwrap();
    assert_eq!(record.reward, seen.reward);
    let stats = resumer.cache_stats();
    assert_eq!(stats.hits, 2, "accuracy + hardware both hit: {stats:?}");
    assert_eq!(stats.misses, 0);
}

/// Journals are deterministic artifacts: two identically seeded runs
/// write byte-identical JSONL, journaling never changes the outcome, and
/// the aggregated report's cache counters equal the pipeline's
/// run-local statistics.
#[test]
fn journal_is_byte_identical_across_identical_runs() {
    let space = DesignSpace::nacim_cifar10();
    let journaled = |seed: u64| {
        let (journal, buffer) = Journal::in_memory();
        let mut run = CoDesign::builder(space.clone(), cfg(Objective::AccuracyEnergy, 6, seed))
            .optimizer(OptimizerSpec::ExpertLlm)
            .journal(journal.clone())
            .build()
            .unwrap();
        let outcome = run.run().unwrap();
        journal.finish().unwrap();
        (outcome, buffer.contents(), run.cache_stats())
    };

    let (outcome_a, journal_a, stats_a) = journaled(7);
    let (outcome_b, journal_b, _) = journaled(7);
    assert!(!journal_a.is_empty());
    assert_eq!(journal_a, journal_b, "same seed, same bytes");

    // Observation is transparent: an un-journaled run proposes and scores
    // the exact same episodes.
    let mut plain = CoDesign::builder(space, cfg(Objective::AccuracyEnergy, 6, 7))
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap();
    assert_eq!(
        outcome_json(&plain.run().unwrap()),
        outcome_json(&outcome_a)
    );

    // The report rebuilt from the journal mirrors the live counters.
    let report = RunReport::from_jsonl(&journal_a).unwrap();
    assert_eq!(report.cache, stats_a);
    assert_eq!(report.episodes, 6);
    assert_eq!(report.best_reward, Some(outcome_a.best.reward));
    assert_eq!(outcome_b.best.reward, outcome_a.best.reward);
}

/// Disabling the cache through the CLI-facing builder knob really turns
/// memoization off, including for checkpoints: snapshots carry no cache.
#[test]
fn no_cache_runs_snapshot_without_a_memo_table() {
    let mut snapshots: Vec<Checkpoint> = Vec::new();
    CoDesign::builder(
        DesignSpace::nacim_cifar10(),
        cfg(Objective::AccuracyEnergy, 3, 2),
    )
    .optimizer(OptimizerSpec::ExpertLlm)
    .no_cache()
    .build()
    .unwrap()
    .run_resumable(None, |cp| {
        snapshots.push(cp.clone());
        Ok(())
    })
    .unwrap();
    assert!(snapshots.iter().all(|cp| cp.eval_cache.is_none()));
}
