//! The evaluation pipeline: memoization and threading behind one facade.
//!
//! Every optimizer in the paper spends nearly all of its wall-clock inside
//! the evaluation loop — train/score a candidate, run the Monte-Carlo
//! device-variation sweep, then the NeuroSim cost model. Two structural
//! facts make that loop compressible:
//!
//! 1. **Evaluation is deterministic.** Every [`AccuracyEvaluator`] and
//!    [`HardwareCostEvaluator`] in this repository is a pure function of
//!    `(design, evaluator configuration)`, so a result can be memoized and
//!    replayed bit-exactly.
//! 2. **Some searches repeat themselves.** The genetic optimizer
//!    re-scores surviving designs (29% of a 2,000-episode search's
//!    lookups hit), and a shared serve store sees the same job twice.
//!    NACIM's RL controller and random search almost never revisit a
//!    design.
//!
//! [`EvalPipeline`] therefore wraps the two evaluators behind a single
//! facade (it implements both evaluator traits itself) and adds a
//! content-addressed memo table — a per-run [`CacheSession`] view onto a
//! [`crate::cache::CacheStore`] (private to the pipeline by default,
//! shared server-wide when one is attached via
//! [`EvalPipeline::attach_store`]).
//!
//! **When a run memoizes.** A memo lookup costs about 0.8 µs, more than a
//! surrogate call (0.4 µs) and half a `cim` call (1.6 µs), and it holds
//! every evaluated design in memory. So a pipeline opens a memo session
//! only when caching is on (the default; `--no-cache` turns it off) *and*
//! either its store is shared, as every `lcda serve` job's is, or one of
//! its evaluators says a lookup pays ([`AccuracyEvaluator::memoize`],
//! [`HardwareCostEvaluator::memoize`]): the trained evaluator does, the
//! analytic surrogate and `cim` cost model do not. A private run on the
//! analytic evaluators therefore evaluates every design afresh and
//! writes exactly the journal and checkpoint log of a `--no-cache` run;
//! results are the same either way. Without a session,
//! [`EvalPipeline::evaluate`] renders the design key only for the
//! journal. When a session is open:
//!
//! - **keys** are the candidate's canonical rollout text (its full
//!   content, e.g. `[[32,3],…]| hw: [128,8,2,rram]`) — content-addressed,
//!   collision-free by construction. [`EvalPipeline::evaluate`] renders
//!   it once into a shared [`Key`] that both lookups use; the store and
//!   its admission queue keep clones of that one key, never copies of
//!   the text;
//! - **the context fingerprint** pins the cache to a specific evaluator
//!   configuration ([`AccuracyEvaluator::fingerprint`] ×
//!   [`HardwareCostEvaluator::fingerprint`]): entries produced under a
//!   different seed, design space or evaluator config are never served;
//! - **values** are episode-grade results — Monte-Carlo/surrogate accuracy
//!   and the full [`HwMetrics`] — and only finite values are admitted, so
//!   a saved store can never be poisoned by NaN;
//! - **counters** ([`CacheStats`]) expose hits/misses/inserts for run
//!   reports and for the perf trajectory benches. Counters are strictly
//!   **session-local**: they are never serialized, and a resumed run
//!   starts its own from zero, so it reports its own hit-rate — not the
//!   previous run's.
//!
//! A checkpoint carries the session's context
//! (`EvalPipeline::memo_context`) but no memo table: each episode
//! record already holds what its evaluation memoized, so a resumed run
//! under the same context re-admits the records it replays
//! ([`crate::CoDesign::run_resumable`]) and re-proposed designs stay
//! cheap across kills. When a [`Journal`] is attached, every lookup and
//! admission is also emitted as a `cache_hit`/`cache_miss`/`cache_insert`
//! event at exactly the points the counters tick, so a journal's
//! aggregated cache stats always equal [`EvalPipeline::stats`].

use crate::cache::{CacheSession, CacheStore, Key, SessionStats};
use crate::evaluate::{AccuracyEvaluator, HardwareCostEvaluator, HwMetrics};
use crate::journal::{CacheKind, Journal, JournalEvent};
use crate::{CoreError, Result};
use lcda_llm::design::CandidateDesign;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use crate::cache::CacheStats;

/// A stable 64-bit FNV-1a fingerprint of evaluator-identity strings,
/// rendered as fixed-width hex. Used by evaluators to compress their
/// configuration (seeds, design-space JSON, calibration constants) into
/// the cache-context fingerprint. Unlike `DefaultHasher`, the digest is
/// specified and stable across Rust releases, so checkpoints written by
/// one build rehydrate under another.
pub fn stable_fingerprint(parts: &[&str]) -> String {
    let mut h = Fnv::default();
    for part in parts {
        h.bytes(part.as_bytes());
        h.end_part();
    }
    h.hex()
}

/// The running state of [`stable_fingerprint`], for digesting a part
/// that is streamed rather than held in one string: feed the part
/// through `fmt::Write` (so `write!(h, "{value}")` digests a `Display`
/// without rendering it), then call [`Fnv::end_part`].
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Ends one part with a separator byte, so `["ab","c"]` and
    /// `["a","bc"]` differ.
    pub(crate) fn end_part(&mut self) {
        self.bytes(&[0x1F]);
    }

    /// The digest as fixed-width hex.
    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// The evaluation facade: both evaluators plus the memo table, consumed by
/// [`crate::CoDesign`] and usable standalone (it implements
/// [`AccuracyEvaluator`] and [`HardwareCostEvaluator`] itself, so anything
/// that accepts an evaluator accepts a pipeline).
///
/// Every inner-evaluator call runs under [`std::panic::catch_unwind`]: a
/// panicking evaluator surfaces as a typed [`CoreError::EvalPanic`]
/// (journaled as an `eval_panic` event) instead of unwinding through the
/// search loop.
pub struct EvalPipeline {
    accuracy: Box<dyn AccuracyEvaluator>,
    hardware: Box<dyn HardwareCostEvaluator>,
    /// The store sessions bind to: a fresh private store per pipeline
    /// until a shared one is attached ([`EvalPipeline::attach_store`]).
    store: CacheStore,
    /// Whether `store` is shared ([`EvalPipeline::attach_store`]) rather
    /// than the pipeline's own.
    shared: bool,
    /// The caller's on/off choice ([`EvalPipeline::set_caching`]).
    caching: bool,
    /// The open memo session: caching is on and a lookup can pay
    /// ([`EvalPipeline::open_session`]).
    cache: Option<CacheSession>,
    context: Key,
    journal: Journal,
}

impl std::fmt::Debug for EvalPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPipeline")
            .field("accuracy", &self.accuracy.name())
            .field("hardware", &self.hardware.name())
            .field("context", &self.context)
            .field("memoizing", &self.memoizing())
            .finish()
    }
}

impl EvalPipeline {
    /// Wraps an evaluator pair with caching enabled (over a fresh private
    /// [`CacheStore`]; attach a shared one with
    /// [`EvalPipeline::attach_store`]). A memo session opens only when one
    /// of the evaluators [memoizes](AccuracyEvaluator::memoize).
    pub fn new(
        accuracy: Box<dyn AccuracyEvaluator>,
        hardware: Box<dyn HardwareCostEvaluator>,
    ) -> Self {
        let context = Self::context_of(accuracy.as_ref(), hardware.as_ref());
        let mut pipeline = EvalPipeline {
            cache: None,
            store: CacheStore::new(),
            shared: false,
            caching: true,
            accuracy,
            hardware,
            context,
            journal: Journal::disabled(),
        };
        pipeline.open_session();
        pipeline
    }

    /// Replaces the memo session with a fresh one on the store when
    /// caching is on and a lookup can pay: the store is shared, or an
    /// evaluator [memoizes](AccuracyEvaluator::memoize). Otherwise closes
    /// it, and every evaluation recomputes.
    fn open_session(&mut self) {
        let pays = self.shared || self.accuracy.memoize() || self.hardware.memoize();
        self.cache = (self.caching && pays).then(|| self.store.session(self.context.clone()));
    }

    fn context_of(acc: &dyn AccuracyEvaluator, hw: &dyn HardwareCostEvaluator) -> Key {
        stable_fingerprint(&[&acc.fingerprint(), &hw.fingerprint()]).into()
    }

    /// Disables memoization (builder style). Every evaluation recomputes.
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.set_caching(false);
        self
    }

    /// Enables or disables memoization in place. Enabling opens a fresh
    /// session on the pipeline's store where a lookup can pay (see
    /// [`EvalPipeline::memoizing`]); disabling drops the current one
    /// (entries stay in the store; session counters are lost).
    pub fn set_caching(&mut self, enabled: bool) {
        self.caching = enabled;
        if self.cache.is_some() != enabled {
            self.open_session();
        }
    }

    /// Whether a memo session is open: caching is on, and the store is
    /// shared or an evaluator [memoizes](AccuracyEvaluator::memoize).
    pub fn memoizing(&self) -> bool {
        self.cache.is_some()
    }

    /// Rebinds the pipeline onto a shared [`CacheStore`]: admissions
    /// become visible to every other pipeline on the same store (and
    /// vice versa), while hit/miss counters stay session-local. A shared
    /// store is memoized whatever the evaluators cost, since another run
    /// may have paid for an entry. The caching on/off choice is
    /// preserved; with caching on, a fresh session opens on the shared
    /// store (counters restart from zero).
    pub fn attach_store(&mut self, store: &CacheStore) {
        self.store = store.clone();
        self.shared = true;
        self.open_session();
    }

    /// The store this pipeline's sessions bind to.
    pub fn cache_store(&self) -> &CacheStore {
        &self.store
    }

    /// The context fingerprint of the open memo session, `None` when the
    /// pipeline keeps no memo. A checkpoint records it
    /// ([`crate::Checkpoint::cache_context`]).
    pub(crate) fn memo_context(&self) -> Option<&str> {
        self.cache.as_ref().map(CacheSession::context)
    }

    /// Hit/miss/insert counters (zeroes when caching is disabled).
    pub fn stats(&self) -> CacheStats {
        self.session_stats().cache_stats()
    }

    /// Session counters including the cross-run split (hits served by
    /// entries another session admitted into a shared store).
    pub fn session_stats(&self) -> SessionStats {
        self.cache
            .as_ref()
            .map(CacheSession::stats)
            .unwrap_or_default()
    }

    /// Attaches a run journal: every cache lookup/admission and backend
    /// cost call is emitted as an event. Forwarded to both evaluators so
    /// they can report internal phases (Monte-Carlo batches) too.
    pub fn set_journal(&mut self, journal: Journal) {
        self.accuracy.set_journal(journal.clone());
        self.hardware.set_journal(journal.clone());
        self.journal = journal;
    }

    /// Re-admits a replayed episode's results silently, as
    /// [`EvalPipeline::evaluate`] admitted them: the hardware cost, and
    /// the accuracy only where the design met the platform constraint
    /// (`hw` is `Some`). No counter ticks and no journal event is
    /// written; nothing happens when the pipeline keeps no memo.
    pub(crate) fn readmit(&self, design: &CandidateDesign, accuracy: f64, hw: Option<HwMetrics>) {
        if let Some(session) = &self.cache {
            let key = design.to_response_text().into();
            session.readmit(&key, hw, hw.is_some().then_some(accuracy));
        }
    }

    /// Forwards the worker-thread budget to evaluators that can fan out
    /// internally (e.g. Monte-Carlo accuracy).
    pub fn set_threads(&mut self, threads: usize) {
        self.accuracy.set_threads(threads);
    }

    /// One episode-grade evaluation: hardware cost first, then accuracy
    /// when the platform constraint holds — exactly the Algorithm-2 order.
    /// Returns `(accuracy, metrics)`; accuracy is `0.0` for constraint
    /// violations, mirroring [`crate::codesign::EpisodeRecord`].
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures on malformed designs.
    pub fn evaluate(&mut self, design: &CandidateDesign) -> Result<(f64, Option<HwMetrics>)> {
        let key = self.key_of(design);
        if let Some(key) = key.as_ref().filter(|_| self.journal.is_active()) {
            self.journal.record(JournalEvent::EvalRequest {
                design: key.to_string(),
            });
        }
        let hw = self.cost_keyed(design, key.as_ref())?;
        let accuracy = match &hw {
            Some(_) => self.accuracy_keyed(design, key.as_ref())?,
            None => 0.0,
        };
        Ok((accuracy, hw))
    }

    /// The design's text as a memo key, rendered only when a session
    /// looks it up or the journal records it: on the analytic evaluators
    /// rendering costs about as much as evaluating.
    fn key_of(&self, design: &CandidateDesign) -> Option<Key> {
        (self.cache.is_some() || self.journal.is_active()).then(|| design.to_response_text().into())
    }

    /// [`AccuracyEvaluator::accuracy`] under `key`, the design's text:
    /// a miss admits a clone of `key`, not a copy of its text.
    fn accuracy_keyed(&mut self, design: &CandidateDesign, key: Option<&Key>) -> Result<f64> {
        if let (Some(cache), Some(key)) = (&mut self.cache, key) {
            if let Some(hit) = cache.lookup_accuracy(key) {
                self.journal.record(JournalEvent::CacheHit {
                    kind: CacheKind::Accuracy,
                });
                return Ok(hit);
            }
            self.journal.record(JournalEvent::CacheMiss {
                kind: CacheKind::Accuracy,
            });
        }
        let value = self.guarded_accuracy(design)?;
        if let (Some(cache), Some(key)) = (&mut self.cache, key) {
            if cache.insert_accuracy(key.clone(), value) {
                self.journal.record(JournalEvent::CacheInsert {
                    kind: CacheKind::Accuracy,
                });
            }
        }
        Ok(value)
    }

    /// [`HardwareCostEvaluator::cost`] under `key`, the design's text.
    fn cost_keyed(
        &mut self,
        design: &CandidateDesign,
        key: Option<&Key>,
    ) -> Result<Option<HwMetrics>> {
        if let (Some(cache), Some(key)) = (&mut self.cache, key) {
            if let Some(hit) = cache.lookup_hardware(key) {
                self.journal.record(JournalEvent::CacheHit {
                    kind: CacheKind::Hardware,
                });
                return Ok(hit);
            }
            self.journal.record(JournalEvent::CacheMiss {
                kind: CacheKind::Hardware,
            });
        }
        let value = self.guarded_cost(design)?;
        if self.journal.is_active() {
            self.journal.record(JournalEvent::BackendCost {
                backend: self.hardware.name().to_string(),
                feasible: value.is_some(),
            });
        }
        if let (Some(cache), Some(key)) = (&mut self.cache, key) {
            if cache.insert_hardware(key.clone(), value) {
                self.journal.record(JournalEvent::CacheInsert {
                    kind: CacheKind::Hardware,
                });
            }
        }
        Ok(value)
    }

    /// The hardware cost call under panic isolation.
    fn guarded_cost(&mut self, design: &CandidateDesign) -> Result<Option<HwMetrics>> {
        catch_unwind(AssertUnwindSafe(|| self.hardware.cost(design)))
            .unwrap_or_else(|payload| Err(self.journal_panic(payload)))
    }

    /// The accuracy call under panic isolation.
    fn guarded_accuracy(&mut self, design: &CandidateDesign) -> Result<f64> {
        catch_unwind(AssertUnwindSafe(|| self.accuracy.accuracy(design)))
            .unwrap_or_else(|payload| Err(self.journal_panic(payload)))
    }

    /// Converts a caught panic payload into the typed, journaled error.
    fn journal_panic(&self, payload: Box<dyn std::any::Any + Send>) -> CoreError {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let message = message.lines().next().unwrap_or("").to_string();
        self.journal.record(JournalEvent::EvalPanic {
            message: message.clone(),
        });
        CoreError::EvalPanic(message)
    }
}

impl AccuracyEvaluator for EvalPipeline {
    fn accuracy(&mut self, design: &CandidateDesign) -> Result<f64> {
        let key = self.key_of(design);
        self.accuracy_keyed(design, key.as_ref())
    }

    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn fingerprint(&self) -> String {
        self.context.to_string()
    }

    fn set_threads(&mut self, threads: usize) {
        EvalPipeline::set_threads(self, threads);
    }

    fn set_journal(&mut self, journal: Journal) {
        EvalPipeline::set_journal(self, journal);
    }
}

impl HardwareCostEvaluator for EvalPipeline {
    fn cost(&mut self, design: &CandidateDesign) -> Result<Option<HwMetrics>> {
        let key = self.key_of(design);
        self.cost_keyed(design, key.as_ref())
    }

    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn fingerprint(&self) -> String {
        self.context.to_string()
    }

    fn set_journal(&mut self, journal: Journal) {
        EvalPipeline::set_journal(self, journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_fingerprint, CimBackend};
    use crate::space::DesignSpace;
    use crate::surrogate::SurrogateEvaluator;

    /// The analytic pair on a private store: it keeps no memo.
    fn private_pipeline(seed: u64) -> EvalPipeline {
        let space = DesignSpace::nacim_cifar10();
        EvalPipeline::new(
            Box::new(SurrogateEvaluator::new(space.clone(), seed)),
            Box::new(CimBackend::new(space)),
        )
    }

    /// The analytic pair on a fresh attached store, where it memoizes.
    fn pipeline(seed: u64) -> EvalPipeline {
        let mut p = private_pipeline(seed);
        p.attach_store(&CacheStore::new());
        p
    }

    /// The `cim` model under another backend id: same costs, same
    /// fingerprint parts, only the id prefix differs.
    struct StubBackend(CimBackend, DesignSpace);

    impl HardwareCostEvaluator for StubBackend {
        fn cost(&mut self, design: &CandidateDesign) -> Result<Option<HwMetrics>> {
            self.0.cost(design)
        }

        fn name(&self) -> &'static str {
            "stub"
        }

        fn fingerprint(&self) -> String {
            let space = lcda_base::json::to_string(&self.1);
            backend_fingerprint("stub", &[&space, &self.0.hw().canonical_json()])
        }
    }

    fn stub_pipeline(seed: u64) -> EvalPipeline {
        let space = DesignSpace::nacim_cifar10();
        EvalPipeline::new(
            Box::new(SurrogateEvaluator::new(space.clone(), seed)),
            Box::new(StubBackend(CimBackend::new(space.clone()), space)),
        )
    }

    #[test]
    fn fingerprint_is_stable_and_separator_sensitive() {
        assert_eq!(
            stable_fingerprint(&["a", "b"]),
            stable_fingerprint(&["a", "b"])
        );
        assert_ne!(stable_fingerprint(&["ab"]), stable_fingerprint(&["a", "b"]));
        assert_ne!(
            stable_fingerprint(&["a", "bc"]),
            stable_fingerprint(&["ab", "c"])
        );
        assert_eq!(stable_fingerprint(&[]).len(), 16);
    }

    #[test]
    fn second_evaluation_is_a_hit_and_bit_identical() {
        let mut p = pipeline(0);
        let d = DesignSpace::nacim_cifar10().reference_design();
        let first = p.evaluate(&d).unwrap();
        let stats = p.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2); // hardware + accuracy
        assert_eq!(stats.inserts, 2);
        let second = p.evaluate(&d).unwrap();
        assert_eq!(first, second);
        let stats = p.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn analytic_pair_keeps_no_memo_on_a_private_store() {
        use crate::journal::RunReport;
        let d = DesignSpace::nacim_cifar10().reference_design();
        let (journal, buffer) = Journal::in_memory();
        let mut p = private_pipeline(5);
        p.set_journal(journal.clone());
        assert!(!p.memoizing());
        let first = p.evaluate(&d).unwrap();
        assert_eq!(p.evaluate(&d).unwrap(), first);
        assert_eq!(first, pipeline(5).evaluate(&d).unwrap());
        assert_eq!(p.stats(), CacheStats::default());
        assert!(p.memo_context().is_none());
        assert!(p.cache_store().is_empty());
        journal.finish().unwrap();
        let report = RunReport::from_jsonl(&buffer.contents()).unwrap();
        assert_eq!(report.cache, CacheStats::default(), "no cache events");
        assert_eq!((report.evals, report.backend_calls), (2, 2));

        // Caching back on still finds nothing worth a lookup; a memoizing
        // evaluator, or an attached store, opens a session.
        p.set_caching(true);
        assert!(!p.memoizing());
        let space = DesignSpace::nacim_cifar10();
        let nan = EvalPipeline::new(Box::new(NanAccuracy), Box::new(CimBackend::new(space)));
        assert!(nan.memoizing());
        p.attach_store(&CacheStore::new());
        assert!(p.memoizing());
        p.set_caching(false);
        assert!(!p.memoizing());
    }

    #[test]
    fn cached_matches_uncached() {
        let d = DesignSpace::nacim_cifar10().reference_design();
        let mut cached = pipeline(3);
        let mut plain = pipeline(3).without_cache();
        let a = cached.evaluate(&d).unwrap();
        let b = plain.evaluate(&d).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.stats(), CacheStats::default());
        assert!(!plain.memoizing());
    }

    #[test]
    fn constraint_violation_is_memoized() {
        let mut space = DesignSpace::nacim_cifar10();
        space.area_budget_mm2 = 1e-6; // nothing fits
        let d = space.reference_design();
        let mut p = EvalPipeline::new(
            Box::new(SurrogateEvaluator::new(space.clone(), 0)),
            Box::new(CimBackend::new(space)),
        );
        p.attach_store(&CacheStore::new());
        assert_eq!(p.evaluate(&d).unwrap().1, None);
        assert_eq!(p.evaluate(&d).unwrap().1, None);
        // Second round served from cache: one hardware hit, no second
        // accuracy lookup (accuracy is skipped for invalid hardware).
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().inserts, 1);
    }

    /// A replayed episode's results, re-admitted, serve the next
    /// evaluation of its design as the session's own hits, while the
    /// counters stay at zero until then.
    #[test]
    fn readmitted_results_serve_own_hits() {
        let d = DesignSpace::nacim_cifar10().reference_design();
        let mut p = pipeline(1);
        let (accuracy, hw) = p.evaluate(&d).unwrap();
        assert!(hw.is_some());

        let mut q = pipeline(1);
        q.readmit(&d, accuracy, hw);
        assert_eq!(q.cache_store().len(), 2);
        assert_eq!(q.session_stats(), SessionStats::default());
        assert_eq!(q.evaluate(&d).unwrap(), (accuracy, hw));
        let stats = q.session_stats();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        assert_eq!(
            stats.cross_run_hits, 0,
            "a resumed run owns what it re-admits"
        );
        assert_eq!(stats.inserts, 0);

        // Without a memo session nothing is admitted.
        let off = pipeline(1).without_cache();
        off.readmit(&d, accuracy, hw);
        assert!(off.cache_store().is_empty());
    }

    #[test]
    fn cache_never_crosses_backends() {
        // Entries admitted under the cim backend must never serve a
        // pipeline on the same store over the *same* space and seed whose
        // backend hashes the same parts under another id: the id
        // namespaces the context fingerprint.
        let space = DesignSpace::nacim_cifar10();
        let d = space.reference_design();
        let cim = CimBackend::new(space.clone());
        let stub = StubBackend(CimBackend::new(space.clone()), space);
        let digest = |fp: String| fp.split_once('/').map(|(_, d)| d.to_string());
        assert_eq!(digest(stub.fingerprint()), digest(cim.fingerprint()));
        assert_ne!(stub.fingerprint(), cim.fingerprint());

        let store = CacheStore::new();
        let mut cim = pipeline(1);
        cim.attach_store(&store);
        cim.evaluate(&d).unwrap();

        let mut other = stub_pipeline(1);
        other.attach_store(&store);
        // The stub evaluation is a miss, not a stale cim hit.
        let (_, hw) = other.evaluate(&d).unwrap();
        assert!(hw.is_some());
        assert_eq!(other.stats().hits, 0);
        assert_eq!(store.contexts(), 2);
    }

    #[test]
    fn set_caching_toggles() {
        let d = DesignSpace::nacim_cifar10().reference_design();
        let mut p = pipeline(0);
        let first = p.evaluate(&d).unwrap();
        let entries = p.cache_store().len();
        assert_eq!(entries, 2);
        p.set_caching(false);
        assert!(p.memo_context().is_none());
        // Disabling drops the session, not the entries in the store: the
        // re-enabled session sees them and re-evaluating is a hit.
        p.set_caching(true);
        assert_eq!(p.cache_store().len(), entries);
        assert_eq!(p.session_stats(), SessionStats::default());
        let again = p.evaluate(&d).unwrap();
        assert_eq!(again, first);
        let stats = p.session_stats();
        assert!(stats.hits > 0 && stats.misses == 0, "{stats:?}");
    }

    /// An accuracy evaluator that returns NaN: the cache must refuse the
    /// entry so a saved store stays JSON-serializable.
    struct NanAccuracy;
    impl AccuracyEvaluator for NanAccuracy {
        fn accuracy(&mut self, _design: &CandidateDesign) -> Result<f64> {
            Ok(f64::NAN)
        }
        fn name(&self) -> &'static str {
            "nan"
        }
    }

    #[test]
    fn shared_store_serves_cross_run_hits_without_changing_results() {
        let d = DesignSpace::nacim_cifar10().reference_design();
        let store = crate::cache::CacheStore::new();

        let mut first = pipeline(7);
        first.attach_store(&store);
        let a = first.evaluate(&d).unwrap();
        assert_eq!(first.session_stats().cross_run_hits, 0);

        // A second pipeline (same evaluator config → same context) on the
        // same store is served entirely from the first run's admissions —
        // and the result is bit-identical to a private-cache evaluation.
        let mut second = pipeline(7);
        second.attach_store(&store);
        let b = second.evaluate(&d).unwrap();
        assert_eq!(a, b);
        let stats = second.session_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.cross_run_hits, 2, "both lookups served cross-run");
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.inserts, 0);

        let mut private = pipeline(7);
        assert_eq!(private.evaluate(&d).unwrap(), b);
    }

    #[test]
    fn attach_store_preserves_the_caching_choice() {
        let store = crate::cache::CacheStore::new();
        let mut off = pipeline(0).without_cache();
        off.attach_store(&store);
        assert!(!off.memoizing(), "attaching must not re-enable caching");
        let d = DesignSpace::nacim_cifar10().reference_design();
        off.evaluate(&d).unwrap();
        assert!(store.is_empty(), "uncached pipeline admits nothing");
    }

    #[test]
    fn journal_cache_events_mirror_session_stats() {
        use crate::journal::RunReport;
        let (journal, buffer) = Journal::in_memory();
        let d = DesignSpace::nacim_cifar10().reference_design();
        let mut p = pipeline(4);
        p.set_journal(journal.clone());
        p.evaluate(&d).unwrap();
        p.evaluate(&d).unwrap();
        journal.finish().unwrap();
        let report = RunReport::from_jsonl(&buffer.contents()).unwrap();
        assert_eq!(report.cache, p.stats());
        assert_eq!(report.evals, 2);
        assert_eq!(report.backend_calls, 1, "second round is all cache hits");
    }

    #[test]
    fn non_finite_results_are_not_cached() {
        let space = DesignSpace::nacim_cifar10();
        let d = space.reference_design();
        let mut p = EvalPipeline::new(Box::new(NanAccuracy), Box::new(CimBackend::new(space)));
        let (acc, hw) = p.evaluate(&d).unwrap();
        assert!(acc.is_nan());
        assert!(hw.is_some());
        // Hardware was cached; the NaN accuracy was not.
        assert_eq!(p.stats().inserts, 1);
        assert_eq!(p.cache_store().len(), 1);
        let json = p.cache_store().to_json().unwrap();
        assert!(CacheStore::from_json(&json, None).is_ok());
    }

    /// An accuracy evaluator that panics: the pipeline must convert the
    /// unwind into a typed error instead of poisoning the run.
    struct PanickyAccuracy;
    impl AccuracyEvaluator for PanickyAccuracy {
        fn accuracy(&mut self, _design: &CandidateDesign) -> Result<f64> {
            panic!("surrogate exploded");
        }
        fn name(&self) -> &'static str {
            "panicky"
        }
    }

    #[test]
    fn evaluator_panic_becomes_a_typed_journaled_error() {
        use crate::journal::RunReport;
        let space = DesignSpace::nacim_cifar10();
        let d = space.reference_design();
        let (journal, buffer) = Journal::in_memory();
        let mut p = EvalPipeline::new(Box::new(PanickyAccuracy), Box::new(CimBackend::new(space)));
        p.set_journal(journal.clone());
        let err = p.evaluate(&d).unwrap_err();
        match &err {
            CoreError::EvalPanic(msg) => assert!(msg.contains("surrogate exploded"), "{msg}"),
            other => panic!("expected EvalPanic, got {other:?}"),
        }
        journal.finish().unwrap();
        let report = RunReport::from_jsonl(&buffer.contents()).unwrap();
        assert_eq!(report.eval_panics, 1);
    }
}
