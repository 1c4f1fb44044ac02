//! One writer, pinned to recorded bytes: every persisted or printed type
//! streams, through `ToJson::write_json`, the text recorded under
//! `tests/fixtures/json_writer/`, in the compact and the pretty form,
//! and that text reads back (`FromJson`) to a value that streams it
//! again. The streamed text is what `--json`, journals, checkpoint logs,
//! the WAL and served bodies hold; `scripts/ci.sh` pins the same
//! fixtures' CLI and server output byte for byte.
//!
//! `values.txt` holds one `== name` section per value below, followed by
//! its text. The search outcomes' pretty text is `expert.json` and
//! `rl.json`, which the CLI prints with a trailing newline.

use lcda::core::serve::JobStatus;
use lcda::core::wal::{WalEntry, WalRecord};
use lcda::core::HwHierarchy;
use lcda::prelude::*;
use lcda_base::json::{self, FromJson, ToJson};

/// The recorded text of the section `name` of `values.txt`.
fn recorded(name: &str) -> &'static str {
    let values = include_str!("fixtures/json_writer/values.txt");
    values
        .strip_prefix("== ")
        .expect("values.txt starts with a section")
        .split("\n== ")
        .find_map(|section| {
            let (title, text) = section.split_once('\n')?;
            (title == name).then(|| text.strip_suffix('\n').unwrap_or(text))
        })
        .unwrap_or_else(|| panic!("values.txt has no section `{name}`"))
}

/// `value` streams the text recorded as `name` (compact, or pretty when
/// `pretty` holds), and that text reads back to a value that streams it
/// again.
fn assert_recorded<T: ToJson + FromJson>(name: &str, value: &T, pretty: bool) {
    assert_text(name, value, pretty, recorded(name));
}

/// `value` streams the compact text recorded as `name`.
fn assert_streams<T: ToJson>(name: &str, value: &T) {
    assert_eq!(json::to_string(value), recorded(name), "{name}");
}

/// `value` streams `expected`, which reads back to a value that streams
/// it again.
fn assert_text<T: ToJson + FromJson>(name: &str, value: &T, pretty: bool, expected: &str) {
    let text = render(value, pretty);
    assert_eq!(text, expected, "{name}");
    let back = json::from_str::<T>(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(render(&back, pretty), text, "{name}, read back");
}

fn render<T: ToJson>(value: &T, pretty: bool) -> String {
    if pretty {
        json::to_string_pretty(value)
    } else {
        json::to_string(value)
    }
}

/// A seeded search, and the checkpoint it saved after its last episode.
/// It runs on an attached store, so the checkpoint names a memo context
/// (a private run on the analytic evaluators keeps no memo).
fn search(optimizer: OptimizerSpec, episodes: u32) -> (Outcome, Checkpoint) {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(5)
        .build();
    let mut run = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(optimizer)
        .cache_store(&CacheStore::new())
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
fn outcomes_and_checkpoints_stream_their_recorded_text() {
    for (name, optimizer, episodes, printed) in [
        (
            "expert",
            OptimizerSpec::ExpertLlm,
            20,
            include_str!("fixtures/json_writer/expert.json"),
        ),
        (
            "rl",
            OptimizerSpec::Rl,
            60,
            include_str!("fixtures/json_writer/rl.json"),
        ),
    ] {
        let (outcome, checkpoint) = search(optimizer, episodes);
        assert_eq!(outcome.history.len(), episodes as usize);
        // `lcda search --json` prints the pretty text and a newline.
        let pretty = printed.strip_suffix('\n').expect("a trailing newline");
        assert_text(&format!("{name} outcome, pretty"), &outcome, true, pretty);
        assert_recorded(&format!("{name} outcome"), &outcome, false);
        assert!(checkpoint.cache_context.is_some(), "{name}: memo context");
        assert_recorded(&format!("{name} checkpoint"), &checkpoint, false);
        assert_recorded(&format!("{name} checkpoint, pretty"), &checkpoint, true);
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
fn every_journal_event_streams_its_recorded_text() {
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
        let record = JournalRecord {
            step: step as u64,
            event,
        };
        let (event_name, record_name) = (
            format!("journal event {step}"),
            format!("journal record {step}"),
        );
        let finite = match &record.event {
            JournalEvent::Episode { reward: x, .. } | JournalEvent::McBatch { mean: x, .. } => {
                x.is_finite()
            }
            _ => true,
        };
        if finite {
            assert_recorded(&event_name, &record.event, false);
            assert_recorded(&record_name, &record, false);
        } else {
            // A non-finite float prints `null`, which reads back as no
            // number.
            assert_streams(&event_name, &record.event);
            assert_streams(&record_name, &record);
            assert!(json::from_str::<JournalRecord>(recorded(&record_name)).is_err());
        }
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
fn every_wal_entry_and_job_status_streams_its_recorded_text() {
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
        assert_recorded(&format!("wal entry {seq}"), &entry, false);
        assert_recorded(
            &format!("wal record {seq}"),
            &WalRecord {
                seq: seq as u64,
                entry,
            },
            false,
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
    assert_recorded("job status", &status, false);
    assert_recorded("job status, pretty", &status, true);
    // Every optional field skipped.
    status.cache = None;
    status.recovered = false;
    assert_recorded("bare job status", &status, false);
    assert_recorded("bare job status, pretty", &status, true);
    assert_recorded("hierarchy", &HwHierarchy::isaac(), false);
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
