//! Evaluation-side fault injection.
//!
//! PR 1 gave the *LLM* half of the search loop a deterministic fault
//! vocabulary ([`lcda_llm::middleware::Fault`]) driven by a seeded,
//! burst-bounded schedule. This module extends the same discipline to
//! the *evaluation* half: hardware-cost backends can be wrapped in a
//! [`FaultyBackend`](crate::backend::FaultyBackend) that injects the
//! faults scheduled here, and the
//! [`EvalPipeline`](crate::EvalPipeline)'s retry/quarantine policy is
//! exercised against them.
//!
//! The scheduling machinery is shared with the LLM layer:
//! [`EvalFaultPlan`] is [`FaultSchedule`] instantiated over
//! [`EvalFault`], so both substrates use one implementation of
//! scripted/seeded plans and the burst bound that keeps
//! determinism-under-faults provable.
//!
//! # Determinism contract
//!
//! Seeded plans ([`seeded_plan`]) only contain *recoverable* faults:
//! transients and non-finite costs are retried by the pipeline (the
//! burst bound guarantees a clean call within the retry budget), and
//! stalls merely advance the simulated clock. Because backends are pure
//! functions of the design, the post-retry value is exactly the clean
//! value — a faulty-backend search is bit-identical to its fault-free
//! twin. [`EvalFault::Panic`] is deliberately excluded from seeded
//! plans: it is for scripted isolation tests (the design is quarantined,
//! so outcomes *do* diverge from a clean run, by design).
//!
//! These are the only injected faults below the LLM layer. A sharded
//! search has no fault vocabulary of its own: each island judges designs
//! through the same pipeline, so evaluation faults are absorbed per
//! design there, and any other error or panic aborts the fleet exactly
//! as it aborts the serial loop.

use lcda_llm::middleware::FaultSchedule;

/// One injected evaluation fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalFault {
    /// The backend call fails with a transient
    /// [`CoreError::EvalFault`](crate::CoreError::EvalFault); a retry
    /// may succeed.
    Transient,
    /// The call succeeds but burns `delay_ms` of simulated wall-clock
    /// first (the backend *is* consulted and its clean value returned).
    Stall {
        /// Simulated latency added to the fault clock, milliseconds.
        delay_ms: u64,
    },
    /// The call "succeeds" but every metric comes back NaN — the
    /// classic silent failure mode of a numeric simulator.
    NonFinite,
    /// The backend panics mid-call. Only meaningful in scripted plans;
    /// the pipeline converts it into
    /// [`CoreError::EvalPanic`](crate::CoreError::EvalPanic) and the
    /// design is quarantined.
    Panic,
}

lcda_base::impl_json!(enum EvalFault {
    Transient,
    Stall { delay_ms },
    NonFinite,
    Panic,
});

impl EvalFault {
    /// Short stable label used in journal events.
    pub fn kind(&self) -> &'static str {
        match self {
            EvalFault::Transient => "transient",
            EvalFault::Stall { .. } => "stall",
            EvalFault::NonFinite => "non_finite",
            EvalFault::Panic => "panic",
        }
    }
}

/// The evaluation-side fault schedule: [`FaultSchedule`] over
/// [`EvalFault`].
pub type EvalFaultPlan = FaultSchedule<EvalFault>;

/// A seeded random evaluation fault plan over the first `horizon`
/// backend calls.
///
/// Each call index independently faults with probability `rate`
/// (clamped to `[0, 1]`); at most `max_burst` consecutive indices carry
/// *failing* faults (transient / non-finite — stalls succeed and reset
/// the burst). The mix never includes [`EvalFault::Panic`], so any
/// retry budget above `max_burst` recovers and the search stays
/// bit-identical to its fault-free twin.
///
/// Coherence note: `EvalFaultPlan` is a specialization of a type owned
/// by `lcda-llm`, so this crate cannot add inherent methods to it —
/// hence a free function rather than `EvalFaultPlan::seeded`.
pub fn seeded_plan(seed: u64, horizon: u64, rate: f64, max_burst: u32) -> EvalFaultPlan {
    FaultSchedule::seeded_with(
        seed,
        horizon,
        rate,
        max_burst,
        |rng| match rng.below(3) {
            0 => EvalFault::Transient,
            1 => EvalFault::Stall { delay_ms: 250 },
            _ => EvalFault::NonFinite,
        },
        |fault| matches!(fault, EvalFault::Stall { .. }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = seeded_plan(11, 300, 0.5, 2);
        let b = seeded_plan(11, 300, 0.5, 2);
        assert_eq!(a, b);
        let c = seeded_plan(12, 300, 0.5, 2);
        assert_ne!(a, c, "different seeds should differ at rate 0.5");
        assert!(!a.is_empty());
    }

    #[test]
    fn seeded_plans_bound_failing_bursts() {
        let plan = seeded_plan(7, 1_000, 0.9, 2);
        let mut burst = 0u32;
        for call in 0..1_000u64 {
            match plan.fault_at(call) {
                Some(EvalFault::Stall { .. }) | None => burst = 0,
                Some(_) => {
                    burst += 1;
                    assert!(burst <= 2, "failing burst exceeded bound at call {call}");
                }
            }
        }
    }

    #[test]
    fn seeded_plans_never_panic() {
        let plan = seeded_plan(3, 2_000, 0.7, 3);
        for call in 0..2_000u64 {
            assert!(!matches!(plan.fault_at(call), Some(EvalFault::Panic)));
        }
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(EvalFault::Transient.kind(), "transient");
        assert_eq!(EvalFault::Stall { delay_ms: 1 }.kind(), "stall");
        assert_eq!(EvalFault::NonFinite.kind(), "non_finite");
        assert_eq!(EvalFault::Panic.kind(), "panic");
    }

    #[test]
    fn plans_serialize_roundtrip() {
        let plan = EvalFaultPlan::scripted([
            (0, EvalFault::Transient),
            (3, EvalFault::Stall { delay_ms: 10 }),
        ]);
        let json = lcda_base::json::to_string(&plan);
        let back: EvalFaultPlan = lcda_base::json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }
}
