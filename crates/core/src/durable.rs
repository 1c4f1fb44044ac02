//! The on-disk durability rules, in one place (DESIGN §11): atomic
//! writes (`atomic_write`), embedded content checksums
//! (`save_checksummed`, `load_checksummed`), rotated generation
//! paths (`generation_path`, `rotate_generations`, which
//! [`crate::CheckpointStore`] builds its newest-valid fallback on), and
//! fsynced appends to append-only JSONL files (`append_line`) with
//! torn-tail salvage on reopen (`open_jsonl`, `valid_jsonl_prefix`).
//! The helpers are crate-private.
//! Checkpoint logs, the cache store, the serve WAL and run journals all
//! go through this module.

use crate::pipeline::Fnv;
use crate::{CoreError, Result};
use lcda_base::json::{FromJson, JsonOut, ToJson, Value};
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// The JSON key carrying the content checksum. Not a struct field:
/// the checksum describes the file, not the run, and keeping it out of
/// the artifact types keeps `PartialEq`/round-trip semantics
/// value-based.
pub(crate) const CHECKSUM_KEY: &str = "checksum";

/// The content checksum of an artifact (without its checksum field): a
/// stable FNV digest of its compact JSON, equal to
/// `stable_fingerprint(&[&lcda_base::json::to_string(artifact)])`. The
/// compact text streams into the hasher, never held as a string. Objects
/// keep their entry order through a parse, so the digest of the parsed
/// [`Value`] equals the digest of the artifact that was written.
fn checksum_of<T: ToJson + ?Sized>(artifact: &T) -> String {
    let mut h = Fnv::default();
    // The hasher never fails, and a streamed artifact fails only where
    // its second, checksummed write below fails too.
    let _ = artifact.write_json(&mut JsonOut::new(&mut h, false));
    h.end_part();
    h.hex()
}

/// `artifact` as JSON with its content checksum as the first entry, so
/// the checksum leads the file: `{:#}` is the pretty form, `{}` the
/// compact one. Both stream from the artifact; no tree is built.
struct Checksummed<'a, T: ?Sized>(&'a T);

impl<T: ToJson + ?Sized> fmt::Display for Checksummed<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pretty = f.alternate();
        JsonOut::new(f, pretty).flatten(CHECKSUM_KEY, &checksum_of(self.0), self.0)
    }
}

/// The error for an artifact whose JSON is not an object, which no
/// checksum entry can lead.
fn not_an_object() -> CoreError {
    CoreError::Checkpoint("serialize: artifact did not form a JSON object".into())
}

/// Serializes any durable artifact to pretty JSON with an embedded
/// content checksum: the bytes [`save_checksummed`] writes, as a string.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] when the value does not form a JSON
/// object.
pub(crate) fn to_checksummed_json<T: ToJson + ?Sized>(artifact: &T) -> Result<String> {
    let mut text = String::new();
    write!(text, "{:#}", Checksummed(artifact)).map_err(|_| not_an_object())?;
    Ok(text)
}

/// Saves a durable artifact to `path` as [`to_checksummed_json`] renders
/// it, atomically and durably ([`atomic_write`]). The pretty body streams
/// from the artifact into the file, so neither the compact text (for
/// the checksum) nor the pretty text is ever held in memory.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on I/O failure, or when the value
/// does not form a JSON object (the write fails and `path` is left as
/// it was).
pub(crate) fn save_checksummed<T: ToJson + ?Sized>(path: &Path, artifact: &T) -> Result<()> {
    atomic_write(path, |out| write!(out, "{:#}", Checksummed(artifact)))
}

/// Serializes a durable artifact to **compact** single-line JSON with an
/// embedded content checksum — the WAL-line variant of
/// [`to_checksummed_json`] (a write-ahead log needs one record per
/// line, so pretty printing is out).
///
/// # Errors
///
/// As [`to_checksummed_json`].
pub(crate) fn to_checksummed_compact_json<T: ToJson + ?Sized>(artifact: &T) -> Result<String> {
    let mut text = String::new();
    write!(text, "{}", Checksummed(artifact)).map_err(|_| not_an_object())?;
    Ok(text)
}

/// Parses a checksummed JSON artifact, verifying and stripping the
/// embedded checksum (when present — pre-checksum files pass
/// unverified), then decodes it with [`FromJson`].
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] for malformed JSON, a checksum
/// mismatch, or a value that does not decode as `T`.
pub(crate) fn from_checksummed_json<T: FromJson>(json: &str) -> Result<T> {
    let mut value = Value::parse(json).map_err(|e| CoreError::Checkpoint(format!("parse: {e}")))?;
    if let Some(recorded) = value.remove(CHECKSUM_KEY) {
        let computed = checksum_of(&value);
        if recorded.as_str() != Some(computed.as_str()) {
            return Err(CoreError::Checkpoint(format!(
                "checksum mismatch (corrupted file): recorded {recorded}, computed \"{computed}\""
            )));
        }
    }
    T::from_json(&value).map_err(|e| CoreError::Checkpoint(format!("parse: {e}")))
}

/// Reads a checksummed artifact from disk: read, verify, decode
/// ([`from_checksummed_json`]). Version checks stay with each type.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] when the file cannot be read, or as
/// [`from_checksummed_json`].
pub(crate) fn load_checksummed<T: FromJson>(path: &Path) -> Result<T> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CoreError::Checkpoint(format!("read {}: {e}", path.display())))?;
    from_checksummed_json(&json)
}

/// Writes a file atomically **and durably**: `write` fills `<file>.tmp`
/// through a buffer, which is fsynced, renamed over `path`, and then the
/// parent directory is fsynced (unix). A kill at any instant leaves
/// either the previous or the new file — never a torn one.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on I/O failure.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let write_error =
        |e: &dyn std::fmt::Display| CoreError::Checkpoint(format!("write {}: {e}", tmp.display()));
    let file = File::create(&tmp)
        .map_err(|e| CoreError::Checkpoint(format!("create {}: {e}", tmp.display())))?;
    let mut out = BufWriter::new(file);
    write(&mut out).map_err(|e| write_error(&e))?;
    let file = out.into_inner().map_err(|e| write_error(e.error()))?;
    file.sync_all()
        .map_err(|e| CoreError::Checkpoint(format!("fsync {}: {e}", tmp.display())))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| CoreError::Checkpoint(format!("rename to {}: {e}", path.display())))?;
    // Durability of the rename itself requires fsyncing the directory
    // entry (POSIX; meaningless and unsupported on other platforms).
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let dir = std::fs::File::open(&parent)
            .map_err(|e| CoreError::Checkpoint(format!("open {}: {e}", parent.display())))?;
        dir.sync_all()
            .map_err(|e| CoreError::Checkpoint(format!("fsync {}: {e}", parent.display())))?;
    }
    Ok(())
}

/// The on-disk path of a rotated generation (0 = newest = `base`;
/// generation *k* is `<base>.k`).
pub(crate) fn generation_path(base: &Path, generation: u32) -> PathBuf {
    if generation == 0 {
        base.to_path_buf()
    } else {
        let name = base
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("checkpoint");
        base.with_file_name(format!("{name}.{generation}"))
    }
}

/// Shifts existing generations of `base` up by one, dropping the oldest
/// beyond `keep` (the rotation half of a generation-rotating save).
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on a failed rename.
pub(crate) fn rotate_generations(base: &Path, keep: u32) -> Result<()> {
    for generation in (0..keep.saturating_sub(1)).rev() {
        let from = generation_path(base, generation);
        if from.exists() {
            let to = generation_path(base, generation + 1);
            std::fs::rename(&from, &to).map_err(|e| {
                CoreError::Checkpoint(format!(
                    "rotate {} -> {}: {e}",
                    from.display(),
                    to.display()
                ))
            })?;
        }
    }
    Ok(())
}

/// Opens the append-only JSONL file at `path` for appending (creating it
/// when missing), salvaging a torn tail first.
///
/// `decode` sees each complete line of the file as [`valid_jsonl_prefix`]
/// describes. A bad or unterminated final line is the signature of a kill
/// mid-append: the file is truncated back to the prefix and the
/// truncation is fsynced.
///
/// # Errors
///
/// Returns `error(..)` for mid-file damage or an I/O failure.
pub(crate) fn open_jsonl<E: std::fmt::Display>(
    path: &Path,
    error: fn(String) -> CoreError,
    decode: impl FnMut(&str) -> std::result::Result<(), E>,
) -> Result<File> {
    let io = |op: &str, e: std::io::Error| error(format!("{op} {}: {e}", path.display()));
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io("read", e)),
    };
    let valid_len = valid_jsonl_prefix(path, &bytes, error, decode)?;
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io("open", e))?;
    if valid_len < bytes.len() {
        file.set_len(valid_len as u64)
            .map_err(|e| io("truncate torn tail of", e))?;
        file.sync_all().map_err(|e| io("fsync", e))?;
    }
    Ok(file)
}

/// The length of the longest prefix of `bytes`, the content of the JSONL
/// file at `path`, whose lines are complete and decode.
///
/// `decode` sees each complete line in order, without its line
/// terminator, until it rejects one; the callers keep what they decode.
/// A bad or unterminated final line is a torn tail and ends the prefix.
/// A bad line with any line after it is mid-file damage — dropping it
/// would silently drop the records after it — so `error` builds the
/// typed error instead.
///
/// # Errors
///
/// Returns `error(..)` for mid-file damage.
pub(crate) fn valid_jsonl_prefix<E: std::fmt::Display>(
    path: &Path,
    bytes: &[u8],
    error: fn(String) -> CoreError,
    mut decode: impl FnMut(&str) -> std::result::Result<(), E>,
) -> Result<usize> {
    let mut valid_len = 0usize;
    for (index, chunk) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        // A line missing its newline is torn even when it decodes: the
        // append was cut before the terminator, so the *next* append
        // would corrupt it.
        let bad = match std::str::from_utf8(chunk) {
            Ok(line) if line.ends_with('\n') => decode(line.trim_end_matches(['\n', '\r']))
                .err()
                .map(|e| e.to_string()),
            Ok(_) => Some("no line terminator".to_string()),
            Err(e) => Some(e.to_string()),
        };
        if let Some(reason) = bad {
            if valid_len + chunk.len() < bytes.len() {
                return Err(error(format!(
                    "{}: corrupted record before the final line (line {}: {reason})",
                    path.display(),
                    index + 1
                )));
            }
            break;
        }
        valid_len += chunk.len();
    }
    Ok(valid_len)
}

/// Appends `line` and its terminator to an append-only JSONL file in one
/// write, then fsyncs the data: once this returns, the line survives
/// `kill -9`. A failed append may leave a torn tail, which the next
/// [`open_jsonl`] salvages.
///
/// # Errors
///
/// Returns `error(..)` on I/O failure.
pub(crate) fn append_line(
    file: &mut File,
    path: &Path,
    line: &str,
    error: fn(String) -> CoreError,
) -> Result<()> {
    let io = |op: &str, e: std::io::Error| error(format!("{op} {}: {e}", path.display()));
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    file.write_all(&bytes).map_err(|e| io("append", e))?;
    file.sync_data().map_err(|e| io("fsync", e))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codesign::{CoDesign, CoDesignConfig, OptimizerSpec};
    use crate::pipeline::stable_fingerprint;
    use crate::reward::Objective;
    use crate::space::DesignSpace;
    use crate::Checkpoint;

    /// The recorded text of the section `name` of
    /// `tests/fixtures/searched_checkpoint.txt`: one `== name` line per
    /// section, then its text. Each section holds the bytes the JSON
    /// writer printed for a value of [`searched_checkpoint`]'s search.
    pub(crate) fn recorded(name: &str) -> &'static str {
        let values = include_str!("../tests/fixtures/searched_checkpoint.txt");
        values
            .strip_prefix("== ")
            .expect("the fixture starts with a section")
            .split("\n== ")
            .find_map(|section| {
                let (title, text) = section.split_once('\n')?;
                (title == name).then(|| text.strip_suffix('\n').unwrap_or(text))
            })
            .unwrap_or_else(|| panic!("no recorded section `{name}`"))
    }

    /// `value` streams the compact text recorded as `name` and the pretty
    /// text recorded as `name, pretty`.
    pub(crate) fn assert_recorded<T: ToJson + ?Sized>(name: &str, value: &T) {
        assert_eq!(lcda_base::json::to_string(value), recorded(name), "{name}");
        assert_eq!(
            lcda_base::json::to_string_pretty(value),
            recorded(&format!("{name}, pretty")),
            "{name}, pretty"
        );
    }

    /// The checkpoint after the last episode of a seeded 12-episode RL
    /// search on `store`, which it fills, so the checkpoint names a memo
    /// context.
    pub(crate) fn searched_checkpoint(store: &crate::CacheStore) -> Checkpoint {
        let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
            .episodes(12)
            .seed(5)
            .build();
        let mut run = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
            .optimizer(OptimizerSpec::Rl)
            .cache_store(store)
            .build()
            .unwrap();
        let mut last = None;
        run.run_resumable(None, |cp| {
            last = Some(cp.clone());
            Ok(())
        })
        .unwrap();
        last.unwrap()
    }

    #[test]
    fn checksummed_writes_stream_the_recorded_bytes() {
        let store = crate::CacheStore::new();
        let cp = searched_checkpoint(&store);
        assert!(cp.cache_context.is_some());
        assert_recorded("checkpoint", &cp);
        let pretty = to_checksummed_json(&cp).unwrap();
        assert_eq!(pretty, recorded("checksummed, pretty"));
        assert_eq!(
            to_checksummed_compact_json(&cp).unwrap(),
            recorded("checksummed")
        );
        let path =
            std::env::temp_dir().join(format!("lcda-durable-stream-{}.json", std::process::id()));
        save_checksummed(&path, &cp).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), pretty);
        assert_eq!(load_checksummed::<Checkpoint>(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_artifact_that_is_not_an_object_is_refused() {
        for not_an_object in [Value::Null, Value::Array(Vec::new())] {
            assert!(to_checksummed_json(&not_an_object).is_err());
            assert!(to_checksummed_compact_json(&not_an_object).is_err());
        }
        let empty = Value::Object(Vec::new());
        assert_eq!(
            to_checksummed_compact_json(&empty).unwrap(),
            format!("{{\"checksum\":\"{}\"}}", stable_fingerprint(&["{}"]))
        );
    }

    /// A kill can cut a line inside a multi-byte character (the JSON
    /// writer emits non-ASCII text raw): that is a torn tail, not a
    /// read error.
    #[test]
    fn a_tail_cut_inside_a_character_is_salvaged() {
        let path =
            std::env::temp_dir().join(format!("lcda-durable-utf8-{}.jsonl", std::process::id()));
        std::fs::write(&path, b"1\n2\n\"\xc3").unwrap();
        let mut kept = Vec::new();
        let mut file = open_jsonl(&path, CoreError::Journal, |line| {
            line.parse::<u64>().map(|n| kept.push(n))
        })
        .unwrap();
        assert_eq!(kept, [1, 2]);
        file.write_all(b"3\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n3\n");
        std::fs::remove_file(&path).ok();
    }
}
