//! The trained evaluator's working set is bounded by its batch, not by
//! its datasets: the peak live heap of one `TrainedEvaluator::accuracy`
//! call must not grow with `test_samples` or `train_samples`. Within the
//! batch, convolutions lower one sample at a time and keep only their
//! input for the backward pass, so the peak also stays under a pinned
//! bound. With a batch-wide patch matrix cached per conv layer, and two
//! more built by its backward pass, the same call peaked at 1,165,568 B.
//!
//! A counting global allocator records live bytes and their high-water
//! mark. The binary holds a single test so no other test thread
//! allocates while it measures.

use lcda::core::evaluate::AccuracyEvaluator;
use lcda::core::space::DesignSpace;
use lcda::core::trained::{TrainedEvalConfig, TrainedEvaluator};
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

/// Peak live heap, in bytes above what was live before, of one accuracy
/// call on the tiny space's largest design. The evaluator (and so its
/// datasets) is built before the measurement starts.
fn accuracy_peak(train_samples: usize, test_samples: usize) -> usize {
    let space = DesignSpace::tiny_test();
    let design = space.choices.decode(&[1, 1, 1, 1, 0, 0, 0, 0]).unwrap();
    let mut evaluator = TrainedEvaluator::new(
        space,
        TrainedEvalConfig {
            train_samples,
            test_samples,
            epochs: 1,
            mc_trials: 4,
            seed: 5,
            ..TrainedEvalConfig::fast_test()
        },
    )
    .unwrap();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    evaluator.accuracy(&design).unwrap();
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn accuracy_peak_heap_does_not_grow_with_the_datasets() {
    let small = accuracy_peak(64, 32);
    let more_test = accuracy_peak(64, 256);
    let more_train = accuracy_peak(512, 32);
    // The only per-sample state left is a few bytes of predictions and
    // labels per sample; allow a tenth of the small peak for it.
    let slack = small / 10;
    assert!(
        more_test <= small + slack,
        "peak grew with test_samples: {small} B at 32, {more_test} B at 256"
    );
    assert!(
        more_train <= small + slack,
        "peak grew with train_samples: {small} B at 64, {more_train} B at 512"
    );
    // Measured at 600,048 B on x86-64 Linux; the bound leaves 10% slack.
    let bound = 660_000;
    assert!(
        small <= bound,
        "one accuracy call peaked at {small} B of live heap (bound {bound} B)"
    );
}
