//! Evaluator interfaces: the two oracles of the co-design loop (§III-C).
//!
//! Concrete hardware cost models live in [`crate::backend`]; this module
//! defines only the traits and the [`HwMetrics`] currency they trade in.

use crate::Result;
use lcda_llm::design::CandidateDesign;

/// The hardware metrics the reward functions consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwMetrics {
    /// Dynamic energy per inference, pJ.
    pub energy_pj: f64,
    /// Single-image inference latency, ns.
    pub latency_ns: f64,
    /// Chip area, mm².
    pub area_mm2: f64,
    /// Leakage power, µW.
    pub leakage_uw: f64,
}

lcda_base::impl_json!(struct HwMetrics { energy_pj, latency_ns, area_mm2, leakage_uw });

impl HwMetrics {
    /// Frames per second implied by the latency, or `None` when the
    /// latency is zero, negative, or non-finite (a raw `1e9 / latency_ns`
    /// would yield `inf`/garbage and silently trip the finite-quarantine
    /// gate downstream).
    pub fn fps(&self) -> Option<f64> {
        if self.latency_ns.is_finite() && self.latency_ns > 0.0 {
            Some(1.0e9 / self.latency_ns)
        } else {
            None
        }
    }

    /// True when every metric is finite — the quarantine gate a record
    /// must pass before its reward may enter the optimizer history.
    pub fn is_finite(&self) -> bool {
        self.energy_pj.is_finite()
            && self.latency_ns.is_finite()
            && self.area_mm2.is_finite()
            && self.leakage_uw.is_finite()
    }
}

/// Evaluates a candidate's DNN accuracy under device variation (the
/// paper's "DNN performance evaluator", §III-C).
pub trait AccuracyEvaluator {
    /// Mean Monte-Carlo accuracy of the candidate in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error for designs the evaluator cannot realize.
    fn accuracy(&mut self, design: &CandidateDesign) -> Result<f64>;

    /// Evaluator name for reports.
    fn name(&self) -> &'static str;

    /// A stable fingerprint of the evaluator's identity *and* every
    /// configuration input that affects its results (seeds, design space,
    /// calibration constants). The evaluation cache
    /// ([`crate::pipeline::EvalCache`]) keys its context on this: two
    /// evaluators with the same fingerprint must return identical results
    /// for every design. The default covers stateless evaluators only —
    /// configurable evaluators must override it.
    fn fingerprint(&self) -> String {
        self.name().to_string()
    }

    /// Whether memoizing this evaluator's results can pay: a lookup must
    /// cost less than the call it replaces. [`crate::EvalPipeline`] opens
    /// a private memo session only when one of its evaluators says so
    /// (a shared store is always memoized). Results never depend on it.
    /// Default: `true`, the safe choice for an evaluator of unknown cost.
    fn memoize(&self) -> bool {
        true
    }

    /// Sets the worker-thread budget for evaluators that can fan out
    /// internally (Monte-Carlo trials). Results must be bit-identical for
    /// every thread count. Default: no-op for inherently serial
    /// evaluators.
    fn set_threads(&mut self, _threads: usize) {}

    /// Attaches a run journal so the evaluator can report its internal
    /// phases (e.g. Monte-Carlo batches). Journaling must never change
    /// results. Default: no-op for evaluators with nothing to report.
    fn set_journal(&mut self, _journal: crate::journal::Journal) {}
}

/// Evaluates a candidate's hardware cost (the paper's "hardware cost
/// evaluator", §III-D).
///
/// The paper's model is [`crate::backend::CimBackend`]; any other
/// implementation plugs in through
/// [`crate::CoDesignBuilder::hardware_evaluator`].
pub trait HardwareCostEvaluator {
    /// The four headline metrics, or `Ok(None)` when the design violates
    /// the platform constraint (→ reward −1).
    ///
    /// # Errors
    ///
    /// Returns an error for malformed designs (distinct from constraint
    /// violations, which are a valid evaluation outcome).
    fn cost(&mut self, design: &CandidateDesign) -> Result<Option<HwMetrics>>;

    /// Evaluator name for reports.
    fn name(&self) -> &'static str;

    /// A stable fingerprint of the evaluator's identity and configuration
    /// (see [`AccuracyEvaluator::fingerprint`] for the contract).
    /// Backends namespace theirs as `"{id}/{digest}"` so cache entries
    /// can never cross backends.
    fn fingerprint(&self) -> String {
        self.name().to_string()
    }

    /// Whether memoizing this evaluator's results can pay (see
    /// [`AccuracyEvaluator::memoize`]). Default: `true`.
    fn memoize(&self) -> bool {
        true
    }

    /// Attaches a run journal so the evaluator can report its internal
    /// events. Journaling must never change results. Default: no-op for
    /// evaluators with nothing to report.
    fn set_journal(&mut self, _journal: crate::journal::Journal) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_helper() {
        let m = HwMetrics {
            energy_pj: 1.0,
            latency_ns: 500_000.0,
            area_mm2: 1.0,
            leakage_uw: 0.0,
        };
        assert!((m.fps().unwrap() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn fps_rejects_degenerate_latency() {
        let mut m = HwMetrics {
            energy_pj: 1.0,
            latency_ns: 0.0,
            area_mm2: 1.0,
            leakage_uw: 0.0,
        };
        assert_eq!(m.fps(), None, "zero latency must not yield inf");
        m.latency_ns = -5.0;
        assert_eq!(m.fps(), None, "negative latency is meaningless");
        m.latency_ns = f64::NAN;
        assert_eq!(m.fps(), None);
        m.latency_ns = f64::INFINITY;
        assert_eq!(m.fps(), None);
    }

    #[test]
    fn finiteness_gate() {
        let mut m = HwMetrics {
            energy_pj: 1.0,
            latency_ns: 2.0,
            area_mm2: 3.0,
            leakage_uw: 4.0,
        };
        assert!(m.is_finite());
        m.energy_pj = f64::NAN;
        assert!(!m.is_finite());
        m.energy_pj = 1.0;
        m.latency_ns = f64::INFINITY;
        assert!(!m.is_finite());
    }
}
