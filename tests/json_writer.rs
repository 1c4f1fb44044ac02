//! One writer: every persisted or printed type streams, through
//! `ToJson::write_json`, exactly the text its `Value` tree prints, in the
//! compact and the pretty form. The streamed text is what `--json`,
//! journals, checkpoint logs, the WAL and served bodies hold; the tree is
//! what `to_json()` builds for `json!` bodies and tests. The two are
//! written by separate code (the `impl_json!` arms and the hand-written
//! `JournalRecord`, `WalRecord` and `JobId` impls each implement both),
//! so this pins them to each other; `scripts/ci.sh` pins the streamed
//! bytes to files recorded from the tree writer.

use lcda::core::serve::JobStatus;
use lcda::core::wal::{WalEntry, WalRecord};
use lcda::core::HwHierarchy;
use lcda::prelude::*;
use lcda_base::json::{self, ToJson};

/// Compact and pretty streamed text equal the tree's.
fn assert_one_writer<T: ToJson + ?Sized>(what: &str, value: &T) {
    let tree = value.to_json();
    assert_eq!(json::to_string(value), tree.to_string(), "{what}, compact");
    assert_eq!(
        json::to_string_pretty(value),
        format!("{tree:#}"),
        "{what}, pretty"
    );
}

/// A seeded search, and the checkpoint it saved after its last episode.
fn search(optimizer: OptimizerSpec, episodes: u32) -> (Outcome, Checkpoint) {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(5)
        .build();
    let mut run = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(optimizer)
        .build()
        .expect("build");
    let mut last = None;
    let outcome = run
        .run_resumable(None, |cp| {
            last = Some(cp.clone());
            Ok(())
        })
        .expect("run");
    (outcome, last.expect("a checkpoint per episode"))
}

#[test]
fn outcomes_and_checkpoints_stream_their_tree_text() {
    for (name, optimizer, episodes) in [
        ("expert", OptimizerSpec::ExpertLlm, 20),
        ("rl", OptimizerSpec::Rl, 60),
    ] {
        let (outcome, checkpoint) = search(optimizer, episodes);
        assert_eq!(outcome.history.len(), episodes as usize);
        assert_one_writer(&format!("{name} outcome"), &outcome);
        assert!(checkpoint.eval_cache.is_some(), "{name}: memo table");
        assert_one_writer(&format!("{name} checkpoint"), &checkpoint);
    }
}

/// Its index in declaration order. The match has no wildcard, so a new
/// variant does not compile until this test covers it.
fn journal_variant(event: &JournalEvent) -> usize {
    match event {
        JournalEvent::RunStart { .. } => 0,
        JournalEvent::HwConfig { .. } => 1,
        JournalEvent::RunEnd { .. } => 2,
        JournalEvent::Episode { .. } => 3,
        JournalEvent::EvalRequest { .. } => 4,
        JournalEvent::CacheHit { .. } => 5,
        JournalEvent::CacheMiss { .. } => 6,
        JournalEvent::CacheInsert { .. } => 7,
        JournalEvent::McBatch { .. } => 8,
        JournalEvent::BackendCost { .. } => 9,
        JournalEvent::CheckpointSaved { .. } => 10,
        JournalEvent::LlmPrompt { .. } => 11,
        JournalEvent::LlmParseFailure { .. } => 12,
        JournalEvent::EvalPanic { .. } => 13,
        JournalEvent::EvalQuarantined { .. } => 14,
        JournalEvent::JobAdmitted { .. } => 15,
        JournalEvent::JobStarted { .. } => 16,
        JournalEvent::JobEnded { .. } => 17,
        JournalEvent::SharedCache { .. } => 18,
        JournalEvent::JobRecovered { .. } => 19,
        JournalEvent::JobDeadline { .. } => 20,
        JournalEvent::JobPanic { .. } => 21,
        JournalEvent::QueueRejected { .. } => 22,
        JournalEvent::StreamDropped { .. } => 23,
    }
}

#[test]
fn every_journal_event_streams_its_tree_text() {
    use lcda::core::journal::CacheKind;
    let job = || "job-7".to_string();
    let events = vec![
        JournalEvent::RunStart {
            optimizer: "lcda/sim-llm/pretrained".into(),
            backend: "cim".into(),
            objective: "accuracy-energy".into(),
            episodes: 20,
            seed: u64::MAX,
            resumed: 3,
        },
        JournalEvent::HwConfig {
            backend: "cim".into(),
            digest: "ea5f1ca36e1a4e24".into(),
            summary: "chip 1x1 \"isaac\"\n\ttiers: 4".into(),
        },
        JournalEvent::RunEnd {
            episodes: 20,
            best_reward: -1.0,
        },
        JournalEvent::Episode {
            episode: 4,
            reward: f64::NAN,
            accuracy: 0.1,
            quarantined: true,
        },
        JournalEvent::EvalRequest {
            design: "[[32,3],[64,5]] | hw: [128,8,2,rram]".into(),
        },
        JournalEvent::CacheHit {
            kind: CacheKind::Accuracy,
        },
        JournalEvent::CacheMiss {
            kind: CacheKind::Hardware,
        },
        JournalEvent::CacheInsert {
            kind: CacheKind::Accuracy,
        },
        JournalEvent::McBatch {
            trials: 16,
            threads: 2,
            mean: f64::INFINITY,
        },
        JournalEvent::BackendCost {
            backend: "cim".into(),
            feasible: false,
        },
        JournalEvent::CheckpointSaved { episodes_done: 9 },
        JournalEvent::LlmPrompt {
            episode: 1,
            attempt: 2,
            chars: 4096,
        },
        JournalEvent::LlmParseFailure {
            episode: 1,
            error: "expected `]` — got «»".into(),
        },
        JournalEvent::EvalPanic {
            message: "index out of bounds\u{1}".into(),
        },
        JournalEvent::EvalQuarantined {
            reason: "non-finite energy".into(),
        },
        JournalEvent::JobAdmitted {
            job: job(),
            optimizer: "rl".into(),
            backend: "cim".into(),
            episodes: 60,
            seed: 5,
        },
        JournalEvent::JobStarted { job: job() },
        JournalEvent::JobEnded {
            job: job(),
            state: "done".into(),
        },
        JournalEvent::SharedCache {
            job: job(),
            hits: 1,
            misses: 2,
            inserts: 3,
            cross_run_hits: 4,
            store_entries: 5,
            store_evictions: 0,
        },
        JournalEvent::JobRecovered {
            job: job(),
            state: "queued".into(),
            episodes_done: 0,
        },
        JournalEvent::JobDeadline {
            job: job(),
            deadline_secs: 30,
        },
        JournalEvent::JobPanic {
            job: job(),
            message: "boom".into(),
        },
        JournalEvent::QueueRejected {
            depth: 1024,
            capacity: 1024,
        },
        JournalEvent::StreamDropped { job: job() },
    ];
    let covered: Vec<usize> = events.iter().map(journal_variant).collect();
    assert_eq!(covered, (0..24).collect::<Vec<_>>());
    for (step, event) in events.into_iter().enumerate() {
        let name = format!("{event:?}");
        assert_one_writer(&name, &event);
        let record = JournalRecord {
            step: step as u64,
            event,
        };
        assert_one_writer(&name, &record);
        // The step leads, and the event's own tag follows it on one level.
        let text = json::to_string(&record);
        assert!(
            text.starts_with(&format!("{{\"step\":{step},\"event\":\"")),
            "{text}"
        );
    }
}

/// Its index in declaration order; no wildcard, as above.
fn wal_variant(entry: &WalEntry) -> usize {
    match entry {
        WalEntry::Admitted { .. } => 0,
        WalEntry::Unreadable { .. } => 1,
        WalEntry::Transition { .. } => 2,
    }
}

#[test]
fn every_wal_entry_and_job_status_streams_its_tree_text() {
    let spec = JobSpec {
        optimizer: "rl".into(),
        episodes: 60,
        seed: 5,
        hw: Some(HwHierarchy::isaac()),
        deadline_secs: Some(0),
        ..JobSpec::default()
    };
    let entries = vec![
        WalEntry::Admitted {
            job: 1,
            spec: Box::new(spec.clone()),
        },
        WalEntry::Unreadable {
            job: 2,
            spec: lcda_base::json!({ "backend": "cim@old.json", "retired": [1, 2.5, null] }),
            error: "unknown field `retired`".into(),
        },
        WalEntry::Transition {
            job: 1,
            state: JobState::Failed,
            error: Some("deadline_exceeded".into()),
        },
        WalEntry::Transition {
            job: 1,
            state: JobState::Running,
            error: None,
        },
    ];
    let covered: Vec<usize> = entries.iter().map(wal_variant).collect();
    assert_eq!(covered, [0, 1, 2, 2]);
    for (seq, entry) in entries.into_iter().enumerate() {
        let name = format!("{entry:?}");
        assert_one_writer(&name, &entry);
        assert_one_writer(
            &name,
            &WalRecord {
                seq: seq as u64,
                entry,
            },
        );
    }

    let mut status = JobStatus {
        job: "job-3".parse::<JobId>().expect("job id"),
        state: JobState::Done,
        spec,
        error: None,
        cache: Some(SessionStats::default()),
        recovered: true,
    };
    assert_one_writer("job status", &status);
    // Every optional field skipped.
    status.cache = None;
    status.recovered = false;
    assert_one_writer("bare job status", &status);
    assert_one_writer("hierarchy", &HwHierarchy::isaac());
}

#[test]
fn integers_print_their_i128_digits() {
    let cases: [i128; 9] = [
        0,
        1,
        -1,
        i128::from(i64::MIN),
        i128::from(i64::MAX),
        i128::from(u64::MAX),
        i128::from(u64::MAX) + 1,
        i128::MIN,
        i128::MAX,
    ];
    for i in cases {
        let mut text = String::new();
        json::JsonOut::new(&mut text, false).int(i).unwrap();
        assert_eq!(text, i.to_string());
        assert_eq!(json::Value::Int(i).to_string(), i.to_string());
    }
}
