//! The memo store holds each design's text once, and a private run on
//! the analytic evaluators keeps no memo at all.
//!
//! A 500-episode RL search (the paper's NACIM baseline) on an attached
//! store memoizes about a thousand evaluations; its table, admission
//! queue and in-place checkpoint snapshot share one key per design, so
//! the search's peak live heap stays under a pinned bound. With a copy of
//! the text in each of those places the same search peaked at 562 KB.
//! The same search on a private store skips the memo (a surrogate or
//! `cim` call costs less than a lookup) and peaks at about a third of
//! that.
//!
//! A counting global allocator records live bytes and their high-water
//! mark. The tests take one lock for the whole measurement, so no other
//! test thread allocates while one measures.

use lcda::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`, so
// the caller's guarantees under `GlobalAlloc` are exactly what `System`
// requires; the counters only read `layout.size()`. The counters are
// statistics that publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held for a whole test, asserts included: the counters are
/// process-wide, and a failing assert allocates for its report.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Peak live heap of the search, in bytes above what was live once it
/// was built: 500 episodes of `lcda search --optimizer rl --seed 5`, on
/// `store` when one is given.
fn rl_search_peak(store: Option<&CacheStore>) -> (usize, Outcome, SessionStats) {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(500)
        .seed(5)
        .build();
    let mut builder =
        CoDesign::builder(DesignSpace::nacim_cifar10(), config).optimizer(OptimizerSpec::Rl);
    if let Some(store) = store {
        builder = builder.cache_store(store);
    }
    let mut run = builder.build().expect("build");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let outcome = run.run().expect("run");
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (peak, outcome, run.session_stats())
}

#[test]
fn rl_search_peak_heap_holds_one_key_per_design() {
    let _measuring = measuring();
    let store = CacheStore::new();
    let (peak, outcome, stats) = rl_search_peak(Some(&store));
    assert_eq!(outcome.history.len(), 500);
    // The store is as large as the bound assumes: one accuracy and one
    // hardware entry for most of ~500 distinct designs.
    assert!(stats.inserts > 900, "{stats:?}");
    // Measured at 307,326 B on x86-64 Linux when the bound was set, and
    // 318,069 B on an attached store since (562,074 B when each place
    // held its own copy of the text); the bound leaves 10% slack.
    let bound = 338_000;
    assert!(
        peak <= bound,
        "a 500-episode RL search peaked at {peak} B of live heap (bound {bound} B)"
    );
}

#[test]
fn private_rl_search_peak_heap_skips_the_memo() {
    let _measuring = measuring();
    let (peak, outcome, stats) = rl_search_peak(None);
    assert_eq!(outcome.history.len(), 500);
    assert_eq!(stats, SessionStats::default(), "no memo session");
    // Measured at 105,707 B on x86-64 Linux (308,762 B while a private
    // run memoized the analytic evaluators); the bound leaves 10% slack.
    let bound = 116_300;
    assert!(
        peak <= bound,
        "a private 500-episode RL search peaked at {peak} B of live heap (bound {bound} B)"
    );
}
