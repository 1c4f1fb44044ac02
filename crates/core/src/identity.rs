//! Identity texts rendered once per distinct value.
//!
//! Evaluator fingerprints hash the text of configuration values that
//! rarely change within a process: the design space's JSON and the
//! surrogate parameters' `Debug` text. Every run build asks for them, so
//! a small process-wide [`Memo`] keeps the texts of the first few
//! distinct values; past its bound it renders without keeping.
//!
//! A hit must give exactly the text a fresh render would, so keys
//! compare through [`Exact`], which compares floats by bit pattern:
//! `PartialEq` would let `0.0` serve `-0.0`, and the two render
//! differently.

use std::sync::{Arc, Mutex};

use crate::lock;
use crate::space::DesignSpace;
use crate::surrogate::SurrogateParams;
use lcda_variation::WriteVerifyConfig;

/// Distinct values a [`Memo`] keeps. A process builds runs over a
/// handful of spaces at most; more only fall back to rendering.
const MEMO_ENTRIES: usize = 8;

/// Equality that implies identical rendered text: floats compare by bit
/// pattern. Implementations destructure every field, so a field added
/// later fails to compile until it is compared here.
pub(crate) trait Exact: Clone {
    /// True when `self` and `other` render byte for byte the same.
    fn exact_eq(&self, other: &Self) -> bool;
}

/// A bounded map from values to their rendered text.
pub(crate) struct Memo<K> {
    entries: Mutex<Vec<(K, Arc<str>)>>,
}

impl<K: Exact> Memo<K> {
    const fn new() -> Self {
        Memo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// `key`'s text: the kept one, or `render(key)`, kept while the memo
    /// has room.
    fn text(&self, key: &K, render: impl FnOnce(&K) -> String) -> Arc<str> {
        let find = |entries: &[(K, Arc<str>)]| {
            entries
                .iter()
                .find(|(k, _)| k.exact_eq(key))
                .map(|(_, text)| Arc::clone(text))
        };
        if let Some(text) = find(&lock(&self.entries)) {
            return text;
        }
        // Render outside the lock; a racing thread may have kept the
        // same text meanwhile.
        let text: Arc<str> = render(key).into();
        let mut entries = lock(&self.entries);
        if let Some(kept) = find(&entries) {
            return kept;
        }
        if entries.len() < MEMO_ENTRIES {
            entries.push((key.clone(), Arc::clone(&text)));
        }
        text
    }
}

/// `lcda_base::json::to_string(space)`, rendered once per distinct space.
pub(crate) fn space_json(space: &DesignSpace) -> Arc<str> {
    static SPACES: Memo<DesignSpace> = Memo::new();
    SPACES.text(space, lcda_base::json::to_string)
}

/// `format!("{params:?}")`, rendered once per distinct parameter set.
pub(crate) fn params_debug(params: &SurrogateParams) -> Arc<str> {
    static PARAMS: Memo<SurrogateParams> = Memo::new();
    PARAMS.text(params, |p| format!("{p:?}"))
}

impl Exact for DesignSpace {
    fn exact_eq(&self, other: &Self) -> bool {
        let DesignSpace {
            choices,
            in_channels,
            in_size,
            hidden,
            classes,
            pool_every,
            area_budget_mm2,
            write_verify,
        } = self;
        // `DesignChoices` is `Eq`: it holds no floats.
        *choices == other.choices
            && *in_channels == other.in_channels
            && *in_size == other.in_size
            && *hidden == other.hidden
            && *classes == other.classes
            && *pool_every == other.pool_every
            && area_budget_mm2.to_bits() == other.area_budget_mm2.to_bits()
            && match (write_verify, &other.write_verify) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    let WriteVerifyConfig {
                        max_iterations,
                        tolerance,
                    } = a;
                    *max_iterations == b.max_iterations
                        && tolerance.to_bits() == b.tolerance.to_bits()
                }
                _ => false,
            }
    }
}

impl Exact for SurrogateParams {
    fn exact_eq(&self, other: &Self) -> bool {
        let SurrogateParams {
            p_half,
            acc_cap,
            kernel_penalty_slope,
            kernel_penalty_base,
            noise_injection_residual,
            jitter,
        } = *self;
        [
            (p_half, other.p_half),
            (acc_cap, other.acc_cap),
            (kernel_penalty_slope, other.kernel_penalty_slope),
            (kernel_penalty_base, other.kernel_penalty_base),
            (noise_injection_residual, other.noise_injection_residual),
            (jitter, other.jitter),
        ]
        .iter()
        .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_memo_still_renders_every_value() {
        let memo: Memo<DesignSpace> = Memo::new();
        for budget in 0..2 * MEMO_ENTRIES {
            let mut space = DesignSpace::nacim_cifar10();
            space.area_budget_mm2 = budget as f64;
            let text = memo.text(&space, lcda_base::json::to_string);
            assert_eq!(&*text, lcda_base::json::to_string(&space).as_str());
        }
        assert_eq!(lock(&memo.entries).len(), MEMO_ENTRIES);
    }
}
