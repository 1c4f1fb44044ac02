//! Durable write-ahead log for the [`serve`](crate::serve) job ledger.
//!
//! The job server's in-memory job table vanishes on `kill -9`. The WAL
//! makes the *ledger* — which jobs exist, their specs, and their
//! lifecycle transitions — durable: every admission and every state
//! transition is appended to `jobs.wal.jsonl` (one checksummed JSON
//! record per line, fsynced before the corresponding in-memory change
//! is observable), so a restarted server can replay the file and
//! reconstruct exactly which jobs were terminal, queued, or running at
//! the instant of the crash.
//!
//! # Durability
//!
//! Each line is a compact [`WalRecord`] with an embedded checksum, and
//! [`Wal::open`] salvages a torn tail but fails loudly on mid-file
//! damage. `durable.rs` holds these rules for every artifact.
//!
//! # Replay semantics
//!
//! [`Wal::open`] returns the salvaged records in append order. The
//! server folds them into a ledger ([`replay_ledger`]): an `admitted`
//! record creates a job in `queued`; each `transition` record overwrites
//! the job's state. Jobs that replay to a terminal state keep their
//! on-disk artifacts (result file, journal); jobs that replay to
//! `queued` or `running` are re-admitted in original admission order and
//! resume from their newest checkpoint generation. An `admitted` record
//! whose spec this build no longer decodes still creates its job, which
//! the server fails rather than runs if it replays to `queued` or
//! `running`.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};

use crate::durable::{append_line, from_checksummed_json, open_jsonl, to_checksummed_compact_json};
use crate::serve::{JobSpec, JobState};
use crate::{lock, CoreError, Result};
use lcda_base::json::{FromJson, JsonOut, ToJson, Value};
use std::sync::Mutex;

/// File name of the job ledger inside the serve journal directory.
pub const WAL_FILE: &str = "jobs.wal.jsonl";

/// One durable ledger event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A job passed admission validation and entered the queue.
    Admitted {
        /// Numeric job index (1-based admission order).
        job: u64,
        /// The spec as admitted — everything needed to re-run the job.
        spec: Box<JobSpec>,
    },
    /// An admission whose spec this build no longer decodes, such as
    /// one naming a hardware field since retired. Replay keeps the job
    /// on the ledger, but it can never run again.
    Unreadable {
        /// Numeric job index.
        job: u64,
        /// The spec as admitted, undecoded.
        spec: Value,
        /// Why the spec does not decode.
        error: String,
    },
    /// A job's lifecycle state changed.
    Transition {
        /// Numeric job index.
        job: u64,
        /// The state entered.
        state: JobState,
        /// Error message, for `failed` transitions.
        error: Option<String>,
    },
}

lcda_base::impl_json!(#[tag = "entry", snake_case] enum WalEntry {
    Admitted { job, spec },
    Unreadable { job, spec, error },
    Transition { job, state, #[skip_if = Option::is_none] error },
});

impl WalEntry {
    /// The numeric job index this entry concerns.
    pub fn job(&self) -> u64 {
        match self {
            WalEntry::Admitted { job, .. }
            | WalEntry::Unreadable { job, .. }
            | WalEntry::Transition { job, .. } => *job,
        }
    }
}

/// One WAL line: a monotonic sequence number plus the entry payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic append index within the file (0-based).
    pub seq: u64,
    /// The ledger event.
    pub entry: WalEntry,
}

// `seq` followed by the entry's own tagged object, on one level.
impl ToJson for WalRecord {
    fn write_json(&self, out: &mut JsonOut<'_>) -> std::fmt::Result {
        out.flatten("seq", &self.seq, &self.entry)
    }
}

// An `admitted` line whose spec no longer decodes reads as
// `Unreadable`: its checksum holds, so it is no corruption, and the
// ledger must keep the job rather than lose it.
impl FromJson for WalRecord {
    fn from_json(value: &Value) -> lcda_base::json::Result<Self> {
        let entry = WalEntry::from_json(value).or_else(|e| {
            if value.get("entry").and_then(Value::as_str) != Some("admitted") {
                return Err(e);
            }
            Ok(WalEntry::Unreadable {
                job: value.field("job")?,
                spec: value.field("spec")?,
                error: e.to_string(),
            })
        })?;
        Ok(WalRecord {
            seq: value.field("seq")?,
            entry,
        })
    }
}

/// Encodes one WAL record as its on-disk line (compact JSON with an
/// embedded content checksum; no trailing newline).
///
/// Public so tests can synthesize crash-state WAL files byte-exactly.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] when serialization fails.
pub fn encode_line(record: &WalRecord) -> Result<String> {
    to_checksummed_compact_json(record)
}

/// Decodes one on-disk WAL line, verifying its embedded checksum.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] for malformed JSON or a checksum
/// mismatch.
pub fn decode_line(line: &str) -> Result<WalRecord> {
    from_checksummed_json(line)
}

/// A job's replayed ledger view: the spec as admitted, the last state
/// the WAL recorded, and the error (when the last transition carried
/// one).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerJob {
    /// The spec as admitted; for an [unreadable](WalEntry::Unreadable)
    /// spec, only the fields that still decode one by one.
    pub spec: JobSpec,
    /// The last state the ledger recorded for this job.
    pub state: JobState,
    /// Error message from the last `failed` transition, if any.
    pub error: Option<String>,
    /// Why the admitted spec no longer decodes, if it does not: such a
    /// job can never run again.
    pub unreadable: Option<String>,
}

/// Folds replayed WAL records into the final per-job ledger, keyed by
/// numeric job index (ascending == original admission order, since ids
/// are allocated densely at admission).
///
/// Transitions for unknown jobs are ignored: they can only appear if an
/// `admitted` line was lost to mid-file corruption, which
/// [`Wal::open`] already rejects — tolerating them here keeps replay
/// total.
pub fn replay_ledger(records: &[WalRecord]) -> BTreeMap<u64, LedgerJob> {
    let mut ledger: BTreeMap<u64, LedgerJob> = BTreeMap::new();
    for record in records {
        match &record.entry {
            WalEntry::Admitted { job, spec } => {
                ledger.entry(*job).or_insert_with(|| LedgerJob {
                    spec: (**spec).clone(),
                    state: JobState::Queued,
                    error: None,
                    unreadable: None,
                });
            }
            WalEntry::Unreadable { job, spec, error } => {
                ledger.entry(*job).or_insert_with(|| LedgerJob {
                    spec: salvage_spec(spec),
                    state: JobState::Queued,
                    error: None,
                    unreadable: Some(format!("job spec no longer decodes: {error}")),
                });
            }
            WalEntry::Transition { job, state, error } => {
                if let Some(entry) = ledger.get_mut(job) {
                    entry.state = *state;
                    entry.error.clone_from(error);
                }
            }
        }
    }
    ledger
}

/// The fields of an undecodable spec that decode one by one, the rest
/// at their defaults: what status can still show of the job.
fn salvage_spec(spec: &Value) -> JobSpec {
    let Value::Object(fields) = spec else {
        return JobSpec::default();
    };
    let decodes = |field: &&(String, Value)| {
        JobSpec::from_json(&Value::Object(vec![(*field).clone()])).is_ok()
    };
    let kept = fields.iter().filter(decodes).cloned().collect();
    JobSpec::from_json(&Value::Object(kept)).unwrap_or_default()
}

/// The append handle: serializes appends behind a mutex and fsyncs
/// every line before returning, so an acknowledged admission or
/// transition survives `kill -9`.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

#[derive(Debug)]
struct WalInner {
    file: File,
    next_seq: u64,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, salvaging a torn tail:
    /// the longest prefix of checksummed-valid lines is kept, the torn
    /// remainder (at most one crash's partial append) is truncated
    /// away, and the replayed records are returned in append order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] for I/O failures or a
    /// corrupted record *before* the final line (a mid-file gap would
    /// silently lose transitions, so it is loud).
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>)> {
        let mut records = Vec::new();
        let file = open_jsonl(path, CoreError::Checkpoint, |line| {
            decode_line(line).map(|record| records.push(record))
        })?;
        let next_seq = records.last().map_or(0, |r| r.seq + 1);
        Ok((
            Wal {
                path: path.to_path_buf(),
                inner: Mutex::new(WalInner { file, next_seq }),
            },
            records,
        ))
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry, fsyncing before returning its sequence
    /// number. After this returns, the entry survives `kill -9`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on serialization or I/O
    /// failure.
    pub fn append(&self, entry: WalEntry) -> Result<u64> {
        let mut inner = lock(&self.inner);
        let record = WalRecord {
            seq: inner.next_seq,
            entry,
        };
        let line = encode_line(&record)?;
        append_line(&mut inner.file, &self.path, &line, CoreError::Checkpoint)?;
        inner.next_seq = record.seq + 1;
        Ok(record.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lcda-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn wal_round_trips_admissions_and_transitions() {
        let d = dir("roundtrip");
        let path = d.join(WAL_FILE);
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert!(replayed.is_empty());
        wal.append(WalEntry::Admitted {
            job: 1,
            spec: Box::default(),
        })
        .unwrap();
        wal.append(WalEntry::Transition {
            job: 1,
            state: JobState::Running,
            error: None,
        })
        .unwrap();
        wal.append(WalEntry::Transition {
            job: 1,
            state: JobState::Failed,
            error: Some("boom".into()),
        })
        .unwrap();
        drop(wal);

        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2]);
        let ledger = replay_ledger(&records);
        let job = &ledger[&1];
        assert_eq!(job.state, JobState::Failed);
        assert_eq!(job.error.as_deref(), Some("boom"));
        assert_eq!(job.spec, JobSpec::default());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_salvaged_and_appends_continue() {
        let d = dir("torn");
        let path = d.join(WAL_FILE);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(WalEntry::Admitted {
            job: 1,
            spec: Box::default(),
        })
        .unwrap();
        wal.append(WalEntry::Transition {
            job: 1,
            state: JobState::Running,
            error: None,
        })
        .unwrap();
        drop(wal);
        // Tear the final line mid-record, as a kill mid-append would.
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len() - 7;
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();

        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 1, "torn line dropped, prefix kept");
        assert_eq!(records[0].seq, 0);
        // The file was truncated back to the valid prefix, so the next
        // append starts on a fresh line.
        wal.append(WalEntry::Transition {
            job: 1,
            state: JobState::Failed,
            error: Some("retry".into()),
        })
        .unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].seq, 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corruption_before_the_tail_is_loud() {
        let d = dir("midfile");
        let path = d.join(WAL_FILE);
        let (wal, _) = Wal::open(&path).unwrap();
        for job in 1..=3u64 {
            wal.append(WalEntry::Admitted {
                job,
                spec: Box::default(),
            })
            .unwrap();
        }
        drop(wal);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"job\":1", "\"job\":9", 1);
        assert_ne!(text, corrupted, "corruption must actually change a line");
        std::fs::write(&path, corrupted).unwrap();
        let err = Wal::open(&path).unwrap_err().to_string();
        assert!(
            err.contains("corrupted record before the final line") || err.contains("checksum"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn checksums_reject_bit_rot_on_the_final_line() {
        let d = dir("bitrot");
        let path = d.join(WAL_FILE);
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append(WalEntry::Admitted {
            job: 1,
            spec: Box::default(),
        })
        .unwrap();
        drop(wal);
        // Flip a digit inside the record: the line still parses as JSON
        // but the checksum no longer matches, so replay treats it as
        // torn and drops it.
        let text = std::fs::read_to_string(&path).unwrap();
        let rotted = text.replacen("\"seq\":0", "\"seq\":4", 1);
        assert_ne!(text, rotted);
        std::fs::write(&path, rotted).unwrap();
        let (_, records) = Wal::open(&path).unwrap();
        assert!(records.is_empty(), "rotted final line must not replay");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn undecodable_spec_replays_as_unreadable_not_torn() {
        let d = dir("unreadable");
        let path = d.join(WAL_FILE);
        // A checksummed final line whose spec names a field this build
        // does not know: it must replay, not be truncated as torn.
        let spec = lcda_base::json!({ "backend": "cim", "seed": 4, "retired": 1 });
        let line = lcda_base::json!({ "seq": 0, "entry": "admitted", "job": 1, "spec": spec });
        let text = format!("{}\n", to_checksummed_compact_json(&line).unwrap());
        std::fs::write(&path, &text).unwrap();

        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let WalEntry::Unreadable { job: 1, error, .. } = &records[0].entry else {
            panic!("{:?}", records[0].entry);
        };
        assert!(error.contains("unknown field `retired`"), "{error}");
        let job = &replay_ledger(&records)[&1];
        assert_eq!(job.state, JobState::Queued);
        assert_eq!(job.spec.seed, 4, "fields that decode are kept");
        assert!(job.unreadable.as_deref().unwrap().contains("`retired`"));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn ledger_orders_jobs_by_admission() {
        let records = vec![
            WalRecord {
                seq: 0,
                entry: WalEntry::Admitted {
                    job: 1,
                    spec: Box::default(),
                },
            },
            WalRecord {
                seq: 1,
                entry: WalEntry::Admitted {
                    job: 2,
                    spec: Box::default(),
                },
            },
            WalRecord {
                seq: 2,
                entry: WalEntry::Transition {
                    job: 1,
                    state: JobState::Running,
                    error: None,
                },
            },
            WalRecord {
                seq: 3,
                entry: WalEntry::Transition {
                    job: 9,
                    state: JobState::Done,
                    error: None,
                },
            },
        ];
        let ledger = replay_ledger(&records);
        assert_eq!(ledger.keys().copied().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(ledger[&1].state, JobState::Running);
        assert_eq!(ledger[&2].state, JobState::Queued);
        assert!(!ledger.contains_key(&9), "orphan transitions are ignored");
    }
}
