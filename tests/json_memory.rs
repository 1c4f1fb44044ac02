//! Rendering a result streams its JSON straight into the output text, so
//! the render's peak live heap is the text itself plus the slack of the
//! text's growth. A 60-episode RL search (`lcda search --optimizer rl
//! --episodes 60 --seed 5 --json`) prints 58,509 bytes; building a
//! `Value` tree first, with every key its own `String`, peaked at
//! 296,281 B for the same render.
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

#[test]
fn rendering_a_result_holds_little_more_than_its_text() {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(60)
        .seed(5)
        .build();
    let outcome = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(OptimizerSpec::Rl)
        .build()
        .expect("build")
        .run()
        .expect("run");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let text = lcda_base::json::to_string_pretty(&outcome);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    // The bytes `lcda search --json` prints, less its final newline.
    assert_eq!(text.len(), 58_508);
    // Measured at 98,304 B on x86-64 Linux: the text's final 64 KiB
    // buffer and the 32 KiB one it grew from, live together while the
    // growth copies. The bound leaves 10% slack.
    let bound = 108_000;
    assert!(
        peak <= bound,
        "rendering {} B of JSON peaked at {peak} B of live heap (bound {bound} B)",
        text.len()
    );
}
