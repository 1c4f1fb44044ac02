//! The shared, cross-run evaluation cache: [`CacheStore`] and
//! [`CacheSession`].
//!
//! The content-addressed memo table of every run lives in a
//! [`CacheStore`]. A one-shot CLI run keeps a private one; a job server
//! shares one across its jobs, because when many searches share one
//! process most of the throughput win comes from *cross-run* admission —
//! user B's search hitting entries user A's search already paid for. A
//! store is:
//!
//! - **concurrent** — a cheaply cloneable handle over a
//!   `std::sync::Mutex`, locked poison-tolerantly so a panicking holder
//!   cannot wedge it; every pipeline can share one store (`lcda serve`
//!   shares one across its jobs);
//! - **capacity-bounded with deterministic eviction** — a FIFO admission
//!   queue; when the store exceeds its bound the *oldest admission* is
//!   evicted. Two stores fed the same admission sequence evict the same
//!   entries in the same order, so a bounded store stays reproducible;
//! - **persistable** — checksummed JSON saved through [`crate::durable`] like
//!   checkpoints, so a server restart rehydrates its server-wide table;
//! - **keyed exactly as before** — entries live under the evaluator-pair
//!   context fingerprint (which embeds the `{backend-id}/{digest}`
//!   namespace), so entries can never cross backends or evaluator
//!   configurations;
//! - **one shared key per design** — a [`Key`] is an `Arc<str>`: the
//!   accuracy and hardware entries and both admission records of a
//!   design hold clones of the one key its evaluation allocated, and each
//!   context's fingerprint is held once per store. Keys order and
//!   serialize like `String`s, so the persisted bytes are those of owned
//!   copies;
//! - **per-session stat views** — a [`CacheSession`] is one run's window
//!   onto the store. Lookups and admissions go to the shared table, but
//!   hit/miss/insert counters are session-local, and a hit on an entry
//!   admitted by a *different* session is additionally counted as a
//!   [`SessionStats::cross_run_hits`] — the number the serve acceptance
//!   criterion observes.
//!
//! Which runs use a store: every `lcda serve` job opens a session on the
//! server's shared store, whatever its evaluators. A single run's
//! private store gets a session only when one of its evaluators
//! memoizes (the trained evaluator does; the analytic surrogate and `cim`
//! cost model, cheaper than a lookup, do not), so a private run on the
//! analytic evaluators admits nothing. See the [`crate::pipeline`] docs
//! for the rule. A checkpoint carries no memo table: a resumed session
//! re-admits, silently and as its own, the results its replayed history
//! records ([`crate::Checkpoint::cache_context`]).
//!
//! Consistency argument (why sharing is safe): every in-tree evaluator is
//! a pure function of `(design, evaluator configuration)`, and the
//! context fingerprint pins the configuration. Therefore any two sessions
//! that agree on the context compute — and admit — identical values for
//! identical keys, and serving one session's entry to another cannot
//! change any observable result. Eviction only ever *removes* memoized
//! values, forcing a recompute of the same pure function. Hence a shared
//! store is observation-equivalent to per-run caches, which is what keeps
//! a served job byte-identical to the same seeded search run offline.

use crate::evaluate::HwMetrics;
use crate::{lock, Result};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A memo key (a design's canonical text) or a context fingerprint: an
/// immutable string shared by reference count. One evaluation allocates
/// its design's key once; the store's table and its admission queue hold
/// clones of that one allocation. It orders, compares and prints exactly
/// like the `String` it replaces.
pub type Key = Arc<str>;

/// Hit/miss/insert counters of one cache view (see also [`SessionStats`],
/// which adds the cross-run split).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the wrapped evaluator.
    pub misses: u64,
    /// Results admitted into the cache.
    pub inserts: u64,
}

lcda_base::impl_json!(struct CacheStats { hits, misses, inserts });

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-session counters: one run's window onto a shared [`CacheStore`].
///
/// `hits`/`misses`/`inserts` mirror the classic [`CacheStats`] semantics
/// exactly (a single-session store behaves bit-for-bit like the old
/// per-run cache). `cross_run_hits` additionally counts the hits served
/// by entries some *other* session admitted — the multi-tenant payoff.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups served from the store (own + cross-run).
    pub hits: u64,
    /// Lookups that fell through to the wrapped evaluator.
    pub misses: u64,
    /// Results this session admitted.
    pub inserts: u64,
    /// Hits served by an entry admitted by a different session (or loaded
    /// from a persisted store). Always `<= hits`.
    pub cross_run_hits: u64,
}

lcda_base::impl_json!(struct SessionStats { hits, misses, inserts, cross_run_hits });

impl SessionStats {
    /// The classic hit/miss/insert view, for run reports.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
        }
    }
}

/// Store-wide counters aggregated across every session.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store, all sessions.
    pub hits: u64,
    /// Lookups that missed, all sessions.
    pub misses: u64,
    /// Entries admitted by live sessions (a resume's re-admissions not
    /// counted).
    pub inserts: u64,
    /// Hits where the requesting session was not the admitting session.
    pub cross_run_hits: u64,
    /// Entries dropped by the capacity bound, oldest-admission-first.
    pub evictions: u64,
}

lcda_base::impl_json!(struct StoreStats { hits, misses, inserts, cross_run_hits, evictions });

/// Which half of the memo table an entry lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum EntryKind {
    Accuracy,
    Hardware,
}

lcda_base::impl_json!(
    #[snake_case]
    enum EntryKind {
        Accuracy,
        Hardware,
    }
);

/// One admission, in FIFO order — the eviction unit. Both strings are
/// clones of the keys the store's tables hold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Admission {
    context: Key,
    kind: EntryKind,
    key: Key,
}

lcda_base::impl_json!(struct Admission { context, kind, key });

/// A memoized value plus the id of the session that admitted it. Owner 0
/// is the reserved "persisted store" pseudo-session (live session ids
/// start at 1), so entries rehydrated from disk count as cross-run for
/// every session that hits them.
#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    owner: u64,
}

#[derive(Debug, Default)]
struct ContextTable {
    accuracy: BTreeMap<Key, Entry<f64>>,
    hardware: BTreeMap<Key, Entry<Option<HwMetrics>>>,
}

impl ContextTable {
    /// The table's own key for `key` in the `kind` half, when held.
    fn key(&self, kind: EntryKind, key: &str) -> Option<&Key> {
        match kind {
            EntryKind::Accuracy => self.accuracy.get_key_value(key).map(|(k, _)| k),
            EntryKind::Hardware => self.hardware.get_key_value(key).map(|(k, _)| k),
        }
    }
}

#[derive(Debug)]
struct StoreInner {
    capacity: Option<usize>,
    contexts: BTreeMap<Key, ContextTable>,
    admissions: VecDeque<Admission>,
    stats: StoreStats,
    next_session: u64,
}

impl StoreInner {
    /// The store's own key for `context` — so each context's text is held
    /// once however many sessions and admissions name it — or `context`
    /// itself when the store holds no entry under it.
    fn intern(&self, context: &Key) -> Key {
        self.contexts
            .get_key_value(&**context)
            .map_or_else(|| context.clone(), |(k, _)| k.clone())
    }
}

/// The persisted wire format: contexts plus the admission order (the
/// order must survive a round-trip or a bounded store would evict
/// differently after a restart). The capacity bound is not part of it:
/// the loader supplies the bound, so a configured bound is never
/// overridden by the one a file was saved under. Files that still carry
/// a `capacity` key load, and the key is ignored.
struct StoreSnapshot {
    version: u32,
    contexts: BTreeMap<Key, ContextSnapshot>,
    admissions: Vec<Admission>,
}

lcda_base::impl_json!(struct StoreSnapshot { version, contexts, admissions });

#[derive(Default)]
struct ContextSnapshot {
    accuracy: BTreeMap<Key, f64>,
    hardware: BTreeMap<Key, Option<HwMetrics>>,
}

lcda_base::impl_json!(struct ContextSnapshot { accuracy, hardware });

const STORE_VERSION: u32 = 1;

/// The shared, cross-run memo table. Cloning the handle shares the store.
///
/// See the [module docs](self) for the design; use
/// [`CacheStore::session`] to obtain a per-run [`CacheSession`] view.
#[derive(Clone)]
pub struct CacheStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = lock(&self.inner);
        f.debug_struct("CacheStore")
            .field("entries", &g.admissions.len())
            .field("contexts", &g.contexts.len())
            .field("capacity", &g.capacity)
            .finish()
    }
}

impl Default for CacheStore {
    fn default() -> Self {
        CacheStore::new()
    }
}

impl CacheStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An empty store bounded to `capacity` entries (clamped to ≥ 1).
    /// When full, the oldest admission is evicted first — deterministic
    /// under identical admission order.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(Some(capacity))
    }

    /// An empty store under `capacity` (clamped to ≥ 1), or unbounded.
    fn build(capacity: Option<usize>) -> Self {
        CacheStore {
            inner: Arc::new(Mutex::new(StoreInner {
                capacity: capacity.map(|cap| cap.max(1)),
                contexts: BTreeMap::new(),
                admissions: VecDeque::new(),
                stats: StoreStats::default(),
                next_session: 0,
            })),
        }
    }

    /// Opens a per-run session view bound to an evaluator-context
    /// fingerprint. Each session gets a unique id; entries it admits are
    /// owned by it, and its counters are independent of every other
    /// session's.
    pub fn session(&self, context: impl Into<Key>) -> CacheSession {
        let context = context.into();
        let (id, context) = {
            let mut g = lock(&self.inner);
            g.next_session += 1;
            (g.next_session, g.intern(&context))
        };
        CacheSession {
            store: self.clone(),
            context,
            id,
            stats: SessionStats::default(),
        }
    }

    /// Total memoized entries across all contexts.
    pub fn len(&self) -> usize {
        lock(&self.inner).admissions.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        lock(&self.inner).capacity
    }

    /// Number of distinct evaluator contexts with at least one entry.
    pub fn contexts(&self) -> usize {
        lock(&self.inner).contexts.len()
    }

    /// Store-wide counters aggregated across all sessions.
    pub fn stats(&self) -> StoreStats {
        lock(&self.inner).stats
    }

    /// A table's entries without their owners, sharing its keys.
    fn values<V: Copy>(table: &BTreeMap<Key, Entry<V>>) -> BTreeMap<Key, V> {
        table.iter().map(|(k, e)| (k.clone(), e.value)).collect()
    }

    /// Serializes the whole store (entries + admission order) to
    /// checksummed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`](crate::CoreError::Checkpoint)
    /// when serialization fails.
    pub fn to_json(&self) -> Result<String> {
        crate::durable::to_checksummed_json(&self.persisted())
    }

    /// The persisted form of the whole store: entries + admission order.
    fn persisted(&self) -> StoreSnapshot {
        let g = lock(&self.inner);
        let contexts = g
            .contexts
            .iter()
            .map(|(ctx, table)| {
                let snap = ContextSnapshot {
                    accuracy: Self::values(&table.accuracy),
                    hardware: Self::values(&table.hardware),
                };
                (ctx.clone(), snap)
            })
            .collect();
        StoreSnapshot {
            version: STORE_VERSION,
            contexts,
            admissions: g.admissions.iter().cloned().collect(),
        }
    }

    /// Rebuilds a store from [`CacheStore::to_json`] output under
    /// `capacity` (clamped to ≥ 1; `None` is unbounded). A store larger
    /// than the bound is evicted down to it, oldest admission first, as a
    /// live overflow is. Entries are owned by the reserved pseudo-session
    /// 0, so every live session that hits them counts a cross-run hit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`](crate::CoreError::Checkpoint)
    /// for malformed or corrupt JSON.
    pub fn from_json(json: &str, capacity: Option<usize>) -> Result<Self> {
        crate::durable::from_checksummed_json(json).map(|snap| Self::restore(snap, capacity))
    }

    /// Rebuilds a store from its persisted form under `capacity`, in time
    /// linear in the entries and admission records.
    fn restore(snapshot: StoreSnapshot, capacity: Option<usize>) -> Self {
        let store = Self::build(capacity);
        {
            let mut g = lock(&store.inner);
            for (ctx, snap) in snapshot.contexts {
                let table = g.contexts.entry(ctx).or_default();
                for (k, v) in snap.accuracy {
                    table.accuracy.insert(k, Entry { value: v, owner: 0 });
                }
                for (k, v) in snap.hardware {
                    table.hardware.insert(k, Entry { value: v, owner: 0 });
                }
            }
            // Admission order drives eviction; keep the first record of
            // each live entry (rebuilt on the table's own keys), then
            // append any entry the admission list missed
            // (deterministically, in map order) so the FIFO-length ==
            // entry-count invariant holds.
            let mut queued: HashSet<Admission> = HashSet::new();
            let mut order: VecDeque<Admission> = VecDeque::new();
            let mut push = |adm: Admission| {
                if queued.insert(adm.clone()) {
                    order.push_back(adm);
                }
            };
            for adm in snapshot.admissions {
                let held = g
                    .contexts
                    .get_key_value(&*adm.context)
                    .and_then(|(ctx, t)| {
                        t.key(adm.kind, &adm.key).map(|key| Admission {
                            context: ctx.clone(),
                            kind: adm.kind,
                            key: key.clone(),
                        })
                    });
                if let Some(held) = held {
                    push(held);
                }
            }
            for (ctx, table) in &g.contexts {
                let accuracy = table.accuracy.keys().map(|k| (EntryKind::Accuracy, k));
                let hardware = table.hardware.keys().map(|k| (EntryKind::Hardware, k));
                for (kind, key) in accuracy.chain(hardware) {
                    push(Admission {
                        context: ctx.clone(),
                        kind,
                        key: key.clone(),
                    });
                }
            }
            g.admissions = order;
            Self::evict_to_capacity(&mut g);
        }
        store
    }

    /// Atomically persists the store to `path` (tmp + fsync + rename),
    /// writing the bytes of [`CacheStore::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`](crate::CoreError::Checkpoint)
    /// on serialization or I/O failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        crate::durable::save_checksummed(path, &self.persisted())
    }

    /// Loads a store persisted by [`CacheStore::save`] under `capacity`,
    /// as [`CacheStore::from_json`] does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`](crate::CoreError::Checkpoint)
    /// when the file is unreadable or corrupt.
    pub fn load(path: &Path, capacity: Option<usize>) -> Result<Self> {
        crate::durable::load_checksummed(path).map(|snap| Self::restore(snap, capacity))
    }

    /// Inserts an accuracy entry if absent; returns true when the key is
    /// newly admitted (false when an identical entry already existed).
    fn admit_accuracy(
        g: &mut StoreInner,
        context: &Key,
        key: &Key,
        value: f64,
        owner: u64,
    ) -> bool {
        let context = g.intern(context);
        let table = g.contexts.entry(context.clone()).or_default();
        if table.accuracy.contains_key(key) {
            return false;
        }
        table.accuracy.insert(key.clone(), Entry { value, owner });
        Self::queue(g, context, EntryKind::Accuracy, key);
        true
    }

    /// Inserts a hardware entry if absent; returns true when newly
    /// admitted.
    fn admit_hardware(
        g: &mut StoreInner,
        context: &Key,
        key: &Key,
        value: Option<HwMetrics>,
        owner: u64,
    ) -> bool {
        let context = g.intern(context);
        let table = g.contexts.entry(context.clone()).or_default();
        if table.hardware.contains_key(key) {
            return false;
        }
        table.hardware.insert(key.clone(), Entry { value, owner });
        Self::queue(g, context, EntryKind::Hardware, key);
        true
    }

    /// Queues a new entry's admission under clones of the keys its table
    /// holds, then evicts down to the bound.
    fn queue(g: &mut StoreInner, context: Key, kind: EntryKind, key: &Key) {
        g.admissions.push_back(Admission {
            context,
            kind,
            key: key.clone(),
        });
        Self::evict_to_capacity(g);
    }

    /// Drops oldest admissions until the capacity bound holds.
    fn evict_to_capacity(g: &mut StoreInner) {
        let Some(cap) = g.capacity else { return };
        while g.admissions.len() > cap {
            let Some(adm) = g.admissions.pop_front() else {
                break;
            };
            let mut empty = false;
            if let Some(table) = g.contexts.get_mut(&adm.context) {
                match adm.kind {
                    EntryKind::Accuracy => {
                        table.accuracy.remove(&adm.key);
                    }
                    EntryKind::Hardware => {
                        table.hardware.remove(&adm.key);
                    }
                }
                empty = table.accuracy.is_empty() && table.hardware.is_empty();
            }
            if empty {
                g.contexts.remove(&adm.context);
            }
            g.stats.evictions += 1;
        }
    }
}

/// One run's view onto a shared [`CacheStore`]: same lookup/admission
/// semantics as the old per-run cache, plus session-local counters with a
/// cross-run split. Obtained via [`CacheStore::session`]; owned by one
/// pipeline (not `Clone` — counters must have exactly one writer).
#[derive(Debug)]
pub struct CacheSession {
    store: CacheStore,
    context: Key,
    id: u64,
    stats: SessionStats,
}

impl CacheSession {
    /// The evaluator-context fingerprint this session reads and writes.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// The unique session id (1-based; 0 is the persisted-store owner).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared store this session is a view onto.
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// Session-local counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Zeroes the session counters (a resumed run reports its own rate).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Looks up a memoized accuracy, counting a hit or miss.
    pub fn lookup_accuracy(&mut self, key: &str) -> Option<f64> {
        self.lookup(key, |t| &t.accuracy)
    }

    /// Looks up memoized hardware metrics, counting a hit or miss.
    pub fn lookup_hardware(&mut self, key: &str) -> Option<Option<HwMetrics>> {
        self.lookup(key, |t| &t.hardware)
    }

    /// Looks `key` up in one half of this context's table and ticks the
    /// hit/miss (and cross-run) counters of the session and the store,
    /// all under one lock.
    fn lookup<V: Copy>(
        &mut self,
        key: &str,
        half: fn(&ContextTable) -> &BTreeMap<Key, Entry<V>>,
    ) -> Option<V> {
        let mut g = lock(&self.store.inner);
        let found = g
            .contexts
            .get(&self.context)
            .and_then(|t| half(t).get(key))
            .map(|e| (e.value, e.owner));
        let (session, store) = (&mut self.stats, &mut g.stats);
        match found {
            Some((_, owner)) => {
                session.hits += 1;
                store.hits += 1;
                if owner != self.id {
                    session.cross_run_hits += 1;
                    store.cross_run_hits += 1;
                }
            }
            None => {
                session.misses += 1;
                store.misses += 1;
            }
        }
        found.map(|(v, _)| v)
    }

    /// Admits an accuracy result; returns true, and counts an insert,
    /// only when the key was newly admitted. A key the store already
    /// holds (another session admitted it first) keeps its first value.
    /// Non-finite results are refused — admitting them would break the
    /// JSON round-trip (JSON cannot represent NaN) and re-serve poison.
    pub fn insert_accuracy(&mut self, key: impl Into<Key>, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        let mut g = lock(&self.store.inner);
        let admitted =
            CacheStore::admit_accuracy(&mut g, &self.context, &key.into(), value, self.id);
        if admitted {
            g.stats.inserts += 1;
            drop(g);
            self.stats.inserts += 1;
        }
        admitted
    }

    /// Admits a hardware result (finite, or `None` = a deterministic
    /// constraint violation); returns true, and counts an insert, only
    /// when the key was newly admitted.
    pub fn insert_hardware(&mut self, key: impl Into<Key>, value: Option<HwMetrics>) -> bool {
        if !value.as_ref().is_none_or(HwMetrics::is_finite) {
            return false;
        }
        let mut g = lock(&self.store.inner);
        let admitted =
            CacheStore::admit_hardware(&mut g, &self.context, &key.into(), value, self.id);
        if admitted {
            g.stats.inserts += 1;
            drop(g);
            self.stats.inserts += 1;
        }
        admitted
    }

    /// Admits one episode's results silently: owned by this session, so
    /// its hits on them are its own, but counted as no insert, here or in
    /// the store. A resumed run rebuilds its memo this way from the
    /// history it replays. `accuracy` is `None` where the episode's design
    /// failed the hardware check, so its accuracy was never evaluated.
    /// Keys the store holds keep their entries, and non-finite values are
    /// refused, as at live admission.
    pub(crate) fn readmit(&self, key: &Key, hardware: Option<HwMetrics>, accuracy: Option<f64>) {
        let mut g = lock(&self.store.inner);
        if hardware.as_ref().is_none_or(HwMetrics::is_finite) {
            CacheStore::admit_hardware(&mut g, &self.context, key, hardware, self.id);
        }
        if let Some(value) = accuracy.filter(|v| v.is_finite()) {
            CacheStore::admit_accuracy(&mut g, &self.context, key, value, self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_store_snapshot_streams_its_recorded_text() {
        let store = CacheStore::new();
        crate::durable::tests::searched_checkpoint(&store);
        let snapshot = store.persisted();
        assert!(!snapshot.admissions.is_empty());
        crate::durable::tests::assert_recorded("store snapshot", &snapshot);
        let empty = CacheStore::new().persisted();
        assert_eq!(
            lcda_base::json::to_string(&empty),
            r#"{"version":1,"contexts":{},"admissions":[]}"#
        );
        assert_eq!(
            lcda_base::json::to_string_pretty(&empty),
            "{\n  \"version\": 1,\n  \"contexts\": {},\n  \"admissions\": []\n}"
        );
    }

    /// The store's persisted text: its entries and admission order.
    fn persisted(store: &CacheStore) -> String {
        lcda_base::json::to_string(&store.persisted())
    }

    fn hw(latency: f64) -> Option<HwMetrics> {
        Some(HwMetrics {
            energy_pj: 1.0,
            latency_ns: latency,
            area_mm2: 2.0,
            leakage_uw: 3.0,
        })
    }

    /// A key one session already admitted is not admitted, or counted,
    /// again when another session of the store inserts it: the
    /// `inserts` counters equal the entries admitted.
    #[test]
    fn a_held_key_is_neither_admitted_nor_counted_twice() {
        let store = CacheStore::new();
        let mut first = store.session("ctx");
        let mut second = store.session("ctx");
        assert!(first.insert_accuracy("d", 0.5));
        assert!(!second.insert_accuracy("d", 0.5));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().inserts, 1);
        assert_eq!(first.stats().inserts, 1);
        assert_eq!(second.stats().inserts, 0);

        assert!(first.insert_hardware("d", hw(4.0)));
        assert!(!second.insert_hardware("d", hw(4.0)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().inserts, 2);
        assert_eq!(second.stats().inserts, 0);
        // The first value stays.
        assert_eq!(second.lookup_accuracy("d"), Some(0.5));
    }

    #[test]
    fn single_session_mirrors_classic_cache_semantics() {
        let store = CacheStore::new();
        let mut s = store.session("ctx");
        assert_eq!(s.lookup_accuracy("d1"), None);
        assert!(s.insert_accuracy("d1", 0.9));
        assert_eq!(s.lookup_accuracy("d1"), Some(0.9));
        assert!(!s.insert_accuracy("nan", f64::NAN));
        let st = s.stats();
        assert_eq!(
            (st.hits, st.misses, st.inserts, st.cross_run_hits),
            (1, 1, 1, 0)
        );
        assert_eq!(st.cache_stats().hit_rate(), 0.5);
    }

    #[test]
    fn cross_run_hits_are_counted_per_session() {
        let store = CacheStore::new();
        let mut a = store.session("ctx");
        let mut b = store.session("ctx");
        a.insert_accuracy("d", 0.5);
        assert_eq!(a.lookup_accuracy("d"), Some(0.5));
        assert_eq!(a.stats().cross_run_hits, 0, "own hits are not cross-run");
        assert_eq!(b.lookup_accuracy("d"), Some(0.5));
        assert_eq!(b.stats().cross_run_hits, 1);
        assert_eq!(b.stats().hits, 1);
        assert_eq!(store.stats().cross_run_hits, 1);
    }

    #[test]
    fn contexts_are_isolated() {
        let store = CacheStore::new();
        let mut a = store.session("ctx-a");
        let mut b = store.session("ctx-b");
        a.insert_hardware("d", hw(1.0));
        assert_eq!(b.lookup_hardware("d"), None);
        assert_eq!(store.contexts(), 1);
        b.insert_hardware("d", None);
        assert_eq!(store.contexts(), 2);
        assert_eq!(store.len(), 2);
    }

    /// One evaluation allocates its design's key once: the accuracy and
    /// hardware entries and both admissions hold that one allocation, and
    /// every holder of the context shares the store's.
    #[test]
    fn every_holder_shares_one_key_per_design() {
        use crate::backend::CimBackend;
        use crate::pipeline::EvalPipeline;
        use crate::space::DesignSpace;
        use crate::surrogate::SurrogateEvaluator;
        let space = DesignSpace::nacim_cifar10();
        let design = space.reference_design();
        let mut pipeline = EvalPipeline::new(
            Box::new(SurrogateEvaluator::new(space.clone(), 1)),
            Box::new(CimBackend::new(space)),
        );
        // The analytic pair memoizes only on an attached store.
        pipeline.attach_store(&CacheStore::new());
        pipeline.evaluate(&design).unwrap();

        let text = design.to_response_text();
        let g = lock(&pipeline.cache_store().inner);
        let (context, table) = g.contexts.iter().next().unwrap();
        let (key, _) = table.accuracy.get_key_value(text.as_str()).unwrap();
        let holders = [
            table.hardware.get_key_value(text.as_str()).unwrap().0,
            &g.admissions[0].key,
            &g.admissions[1].key,
        ];
        for holder in holders {
            assert!(Arc::ptr_eq(key, holder));
        }
        assert_eq!(Arc::strong_count(key), 4, "no other holder");
        assert!(g
            .admissions
            .iter()
            .all(|a| Arc::ptr_eq(&a.context, context)));
    }

    /// A loaded store keeps the first record of each live entry in file
    /// order, drops duplicates and records of absent entries, then
    /// queues the entries the file did not record, in map order. Every
    /// queued record holds the table's own keys.
    #[test]
    fn restore_orders_duplicate_and_missing_admissions_fifo() {
        use EntryKind::{Accuracy, Hardware};
        let adm = |context: &str, kind, key: &str| Admission {
            context: context.into(),
            kind,
            key: key.into(),
        };
        let table = ContextSnapshot {
            accuracy: ["a", "b", "c"].map(|k| (Key::from(k), 0.5)).into(),
            hardware: ["a", "c"].map(|k| (Key::from(k), None)).into(),
        };
        let file = StoreSnapshot {
            version: STORE_VERSION,
            contexts: [(Key::from("ctx"), table)].into(),
            admissions: vec![
                adm("ctx", Hardware, "c"),
                adm("ctx", Accuracy, "b"),
                adm("ctx", Hardware, "c"),
                adm("ctx", Accuracy, "gone"),
                adm("other", Accuracy, "a"),
                adm("ctx", Accuracy, "a"),
                adm("ctx", Accuracy, "b"),
            ],
        };
        let json = crate::durable::to_checksummed_json(&file).unwrap();

        let store = CacheStore::from_json(&json, None).unwrap();
        let g = lock(&store.inner);
        let order: Vec<(EntryKind, &str)> =
            g.admissions.iter().map(|a| (a.kind, &*a.key)).collect();
        let expected = [
            (Hardware, "c"),
            (Accuracy, "b"),
            (Accuracy, "a"),
            (Accuracy, "c"),
            (Hardware, "a"),
        ];
        assert_eq!(order, expected);
        for a in &g.admissions {
            let (context, table) = g.contexts.get_key_value(&a.context).unwrap();
            assert!(Arc::ptr_eq(&a.context, context));
            assert!(Arc::ptr_eq(&a.key, table.key(a.kind, &a.key).unwrap()));
        }
        drop(g);

        // The order survives a save, and eviction follows it.
        let again = CacheStore::from_json(&store.to_json().unwrap(), None).unwrap();
        let order: Vec<(EntryKind, String)> = lock(&again.inner)
            .admissions
            .iter()
            .map(|a| (a.kind, a.key.to_string()))
            .collect();
        assert_eq!(order, expected.map(|(kind, k)| (kind, k.to_string())));
        let bounded = CacheStore::from_json(&json, Some(2)).unwrap();
        let mut probe = bounded.session("ctx");
        assert_eq!(probe.lookup_accuracy("c"), Some(0.5));
        assert_eq!(probe.lookup_hardware("a"), Some(None));
        assert_eq!(probe.lookup_accuracy("a"), None);
    }

    #[test]
    fn eviction_is_fifo_and_deterministic() {
        let run = |cap: usize| {
            let store = CacheStore::with_capacity(cap);
            let mut s = store.session("ctx");
            for i in 0..10 {
                s.insert_accuracy(format!("d{i}"), i as f64 / 10.0);
            }
            let survivors: Vec<bool> = (0..10)
                .map(|i| {
                    let mut probe = store.session("ctx");
                    probe.lookup_accuracy(&format!("d{i}")).is_some()
                })
                .collect();
            (survivors, store.stats().evictions, store.len())
        };
        let (a, ev_a, len_a) = run(3);
        let (b, ev_b, len_b) = run(3);
        assert_eq!(a, b, "identical admission order evicts identically");
        assert_eq!((ev_a, len_a), (ev_b, len_b));
        assert_eq!(ev_a, 7);
        assert_eq!(len_a, 3);
        // Oldest-first: only the last `cap` admissions survive.
        assert_eq!(
            a,
            vec![false, false, false, false, false, false, false, true, true, true]
        );
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let store = CacheStore::with_capacity(0);
        let mut s = store.session("ctx");
        s.insert_accuracy("d", 0.1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn persistence_roundtrips_entries_and_admission_order() {
        let store = CacheStore::with_capacity(4);
        let mut s = store.session("ctx");
        for i in 0..4 {
            s.insert_accuracy(format!("d{i}"), i as f64 / 10.0);
        }
        s.insert_hardware("d0", hw(2.0));
        assert_eq!(store.stats().evictions, 1, "d0-accuracy evicted");

        let json = store.to_json().unwrap();
        assert!(
            !json.contains("capacity"),
            "the loader owns the bound: {json}"
        );
        let back = CacheStore::from_json(&json, Some(4)).unwrap();
        assert_eq!(back.len(), store.len());
        assert_eq!(back.capacity(), Some(4));
        assert_eq!(
            persisted(&back),
            persisted(&store),
            "entries and their order survive the round-trip"
        );

        // Eviction continues from the persisted admission order: the next
        // admission on both stores drops the same oldest entry.
        let mut s1 = store.session("ctx");
        let mut s2 = back.session("ctx");
        s1.insert_hardware("dX", None);
        s2.insert_hardware("dX", None);
        assert_eq!(persisted(&store), persisted(&back));

        // Rehydrated entries are owned by pseudo-session 0 → cross-run.
        let mut probe = back.session("ctx");
        assert!(probe.lookup_hardware("d0").is_some());
        assert_eq!(probe.stats().cross_run_hits, 1);
    }

    #[test]
    fn corrupt_json_is_refused() {
        let store = CacheStore::new();
        store.session("ctx").insert_accuracy("d", 0.5);
        let json = store.to_json().unwrap();
        let tampered = json.replace("0.5", "0.7");
        assert!(
            CacheStore::from_json(&tampered, None).is_err(),
            "checksum must catch tampering"
        );
        assert!(CacheStore::from_json("not json", None).is_err());
    }

    #[test]
    fn save_and_load_are_atomic_and_faithful() {
        let path = std::env::temp_dir().join(format!(
            "lcda-cache-store-{}-roundtrip.json",
            std::process::id()
        ));
        let store = CacheStore::new();
        let mut s = store.session("ctx");
        s.insert_accuracy("d", 0.25);
        s.insert_hardware("d", hw(3.0));
        store.save(&path).unwrap();
        let back = CacheStore::load(&path, None).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(persisted(&back), persisted(&store));
        assert!(CacheStore::load(
            &std::env::temp_dir().join("lcda-cache-store-missing.json"),
            None
        )
        .is_err());
    }

    /// A resume's re-admissions are the session's own entries but count
    /// no insert; a key the store holds keeps its entry, and accuracy
    /// rides only with a hardware result.
    #[test]
    fn readmissions_are_owned_but_not_counted() {
        let store = CacheStore::new();
        let mut other = store.session("ctx");
        other.insert_hardware("held", hw(1.0));
        let mut resumed = store.session("ctx");
        resumed.readmit(&Key::from("held"), hw(9.0), Some(0.5));
        resumed.readmit(&Key::from("fits"), hw(2.0), Some(0.25));
        resumed.readmit(&Key::from("too big"), None, None);
        resumed.readmit(&Key::from("nan"), hw(2.0), Some(f64::NAN));
        // held: the live hardware entry plus the accuracy; fits: both;
        // too big and nan: hardware only.
        assert_eq!(store.len(), 6);
        assert_eq!(resumed.stats(), SessionStats::default());
        assert_eq!(store.stats().inserts, 1, "only the live insert");

        assert_eq!(resumed.lookup_hardware("held"), Some(hw(1.0)));
        assert_eq!(
            resumed.stats().cross_run_hits,
            1,
            "the first owner keeps it"
        );
        assert_eq!(resumed.lookup_accuracy("fits"), Some(0.25));
        assert_eq!(resumed.lookup_hardware("too big"), Some(None));
        assert_eq!(resumed.lookup_accuracy("too big"), None);
        assert_eq!(resumed.lookup_accuracy("nan"), None, "non-finite refused");
        let stats = resumed.stats();
        assert_eq!((stats.hits, stats.cross_run_hits), (3, 1), "own hits");
    }

    #[test]
    fn duplicate_admission_keeps_first_owner() {
        let store = CacheStore::new();
        let mut a = store.session("ctx");
        let mut b = store.session("ctx");
        a.insert_accuracy("d", 0.5);
        b.insert_accuracy("d", 0.5);
        assert_eq!(store.len(), 1, "no duplicate entries");
        assert_eq!(a.lookup_accuracy("d"), Some(0.5));
        assert_eq!(a.stats().cross_run_hits, 0, "first admitter still owns");
        assert_eq!(b.lookup_accuracy("d"), Some(0.5));
        assert_eq!(b.stats().cross_run_hits, 1);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = CacheStore::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let mut s = store.session("ctx");
                    for i in 0..50 {
                        let key = format!("d{}", (t * 50 + i) % 75);
                        if s.lookup_accuracy(&key).is_none() {
                            s.insert_accuracy(key, 0.5);
                        }
                    }
                    s.stats()
                })
            })
            .collect();
        let stats: Vec<SessionStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(store.len(), 75);
        let total: u64 = stats.iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(total, 200);
    }
}
