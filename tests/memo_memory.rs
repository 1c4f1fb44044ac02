//! The memo store holds each design's text once. A 500-episode RL search
//! (the paper's NACIM baseline) on a private store memoizes about a
//! thousand evaluations; its table, admission queue and in-place
//! checkpoint snapshot share one key per design, so the search's peak
//! live heap stays under a pinned bound. With a copy of the text in each
//! of those places the same search peaked at 562 KB.
//!
//! A counting global allocator records live bytes and their high-water
//! mark. The binary holds a single test so no other test thread
//! allocates while it measures.

use lcda::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Peak live heap of the search, in bytes above what was live once it
/// was built: 500 episodes of `lcda search --optimizer rl --seed 5`.
fn rl_search_peak() -> (usize, Outcome, SessionStats) {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(500)
        .seed(5)
        .build();
    let mut run = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(OptimizerSpec::Rl)
        .build()
        .expect("build");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let outcome = run.run().expect("run");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (peak, outcome, run.session_stats())
}

#[test]
fn rl_search_peak_heap_holds_one_key_per_design() {
    let (peak, outcome, stats) = rl_search_peak();
    assert_eq!(outcome.history.len(), 500);
    // The store is as large as the bound assumes: one accuracy and one
    // hardware entry for most of ~500 distinct designs.
    assert!(stats.inserts > 900, "{stats:?}");
    // Measured at 307,326 B on x86-64 Linux (562,074 B when each place
    // held its own copy of the text); the bound leaves 10% slack.
    let bound = 338_000;
    assert!(
        peak <= bound,
        "a 500-episode RL search peaked at {peak} B of live heap (bound {bound} B)"
    );
}
