//! Failure-injection tests: malformed LLM output, out-of-space designs,
//! degenerate configurations and hostile corners must fail loudly and
//! recoverably — never panic, never silently corrupt a run.

use lcda::llm::design::DesignChoices;
use lcda::llm::middleware::{CircuitBreaker, Fault, FaultPlan, SimClock};
use lcda::llm::parse::parse_design;
use lcda::llm::prompt::PromptObjective;
use lcda::llm::{LanguageModel, LlmError};
use lcda::optim::llm_opt::LlmOptimizer;
use lcda::optim::random::RandomOptimizer;
use lcda::optim::{OptimError, Optimizer};
use lcda::prelude::*;
use lcda_base::rng::check;

/// A model that emits a *valid-looking but out-of-space* design first,
/// then garbage, then a correct design — stress-testing the retry path.
struct FlakyModel {
    calls: u32,
}

impl LanguageModel for FlakyModel {
    fn complete(&mut self, _prompt: &str) -> lcda::llm::Result<String> {
        self.calls += 1;
        Ok(match self.calls {
            1 => "[[999,3],[32,3],[64,3],[64,3],[128,3],[128,3]] | hw: [128,8,2,rram]".into(),
            2 => "as an AI language model, I cannot suggest hardware designs".into(),
            _ => "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]] | hw: [128,8,2,rram]".into(),
        })
    }
    fn model_name(&self) -> &str {
        "flaky"
    }
}

#[test]
fn flaky_model_recovers_within_retry_budget() {
    let mut opt = LlmOptimizer::new(
        FlakyModel { calls: 0 },
        DesignChoices::nacim_default(),
        PromptObjective::AccuracyEnergy,
    );
    let d = opt.propose().expect("third attempt parses");
    assert_eq!(d.conv[0].channels, 32);
}

/// A model that always claims kernel sizes outside the space.
struct OutOfSpaceModel;

impl LanguageModel for OutOfSpaceModel {
    fn complete(&mut self, _prompt: &str) -> lcda::llm::Result<String> {
        Ok("[[32,9],[32,9],[64,9],[64,9],[128,9],[128,9]]".into())
    }
    fn model_name(&self) -> &str {
        "out-of-space"
    }
}

#[test]
fn persistent_out_of_space_exhausts_retries() {
    let mut opt = LlmOptimizer::new(
        OutOfSpaceModel,
        DesignChoices::nacim_default(),
        PromptObjective::AccuracyEnergy,
    )
    .max_retries(2);
    match opt.propose() {
        Err(OptimError::LlmRetriesExhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected exhaustion, got {other:?}"),
    }
}

#[test]
fn parser_rejects_every_malformed_shape() {
    let choices = DesignChoices::nacim_default();
    let cases = [
        "",
        "[",
        "]]",
        "[[]]",
        "[[1],[2]]",
        "[[32,3],[32,3],[64,3],[64,3],[128,3]]", // 5 pairs
        "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3],[128,3]]", // 7 pairs
        "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,-3]]", // negative
        "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]] hw: [128]", // short hw
        "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]] hw: [128,8,2,vacuum-tube]",
    ];
    for text in cases {
        assert!(
            parse_design(text, &choices).is_err(),
            "should reject: {text:?}"
        );
    }
}

#[test]
fn parser_errors_are_informative() {
    let choices = DesignChoices::nacim_default();
    let err = parse_design("nothing to see here", &choices).unwrap_err();
    match err {
        LlmError::ParseResponse { reason, snippet } => {
            assert!(!reason.is_empty());
            assert!(!snippet.is_empty());
        }
        other => panic!("unexpected error kind: {other:?}"),
    }
}

#[test]
fn degenerate_spaces_rejected_not_panicking() {
    let mut choices = DesignChoices::nacim_default();
    choices.channel_options.clear();
    assert!(choices.validate().is_err());
    assert!(parse_design("[[32,3]]", &choices).is_err());
}

#[test]
fn unintelligible_prompt_to_sim_llm_is_an_error() {
    use lcda::llm::persona::Persona;
    use lcda::llm::sim::SimLlm;
    let mut llm = SimLlm::new(Persona::Pretrained, 0);
    for prompt in ["", "objective: accuracy-energy", "channels: [16]"] {
        assert!(llm.complete(prompt).is_err(), "prompt {prompt:?}");
    }
}

#[test]
fn zero_episode_configs_rejected_everywhere() {
    let space = DesignSpace::nacim_cifar10();
    let cfg = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(0)
        .seed(0)
        .build();
    for spec in [
        OptimizerSpec::ExpertLlm,
        OptimizerSpec::Rl,
        OptimizerSpec::Genetic,
        OptimizerSpec::Random,
    ] {
        assert!(CoDesign::builder(space.clone(), cfg)
            .optimizer(spec)
            .build()
            .is_err());
    }
}

#[test]
fn severe_stuck_at_corner_still_evaluates() {
    // A hostile variation corner (high stuck-at rates) must produce a
    // finite accuracy, not a crash.
    use lcda::variation::weights::WeightPerturber;
    use lcda::variation::VariationConfig;
    let mut corner = VariationConfig::rram_severe();
    corner.stuck_at_off_rate = 0.3;
    corner.stuck_at_on_rate = 0.3;
    corner.validate().unwrap();
    let p = WeightPerturber::new(corner, 1.0);
    let mut w = vec![0.5f32; 4096];
    p.perturb(&mut w, 0);
    assert!(w.iter().all(|x| x.is_finite()));
    // Stuck-on devices in the differential pair can reach ±1 · w_max.
    assert!(w.iter().all(|x| x.abs() <= 1.0 + 1e-6));
}

#[test]
fn chip_rejects_impossible_configs_cleanly() {
    use lcda::neurosim::chip::{Chip, ChipConfig};
    let mut cfg = ChipConfig::isaac_default();
    cfg.xbar.adc_share = 999; // does not divide cols
    assert!(Chip::new(cfg).is_err());

    let mut cfg = ChipConfig::isaac_default();
    cfg.xbar.rows = 0;
    assert!(Chip::new(cfg).is_err());
}

// ---------------------------------------------------------------------------
// Resilience layer: determinism under injected faults, checkpoint/resume,
// degraded mode.
// ---------------------------------------------------------------------------

fn resilient_cfg(episodes: u32, seed: u64) -> CoDesignConfig {
    CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(seed)
        .build()
}

/// Seeded fault plans are pure functions of their parameters and never
/// schedule more consecutive failing faults than `max_burst`.
#[test]
fn seeded_fault_plans_deterministic_and_burst_bounded() {
    check(64, |rng| {
        let seed = rng.below(1_000);
        let rate = rng.uniform_f64(0.0, 0.9);
        let max_burst = 1 + rng.below(3) as u32;
        let a = FaultPlan::seeded(seed, 200, rate, max_burst);
        let b = FaultPlan::seeded(seed, 200, rate, max_burst);
        assert_eq!(&a, &b);
        let mut burst = 0u32;
        for call in 0..200 {
            match a.fault_at(call) {
                None | Some(Fault::LatencySpike { .. }) => burst = 0,
                Some(_) => {
                    burst += 1;
                    assert!(burst <= max_burst);
                }
            }
        }
    });
}

/// The acceptance property of the whole middleware stack: a search under
/// *any* fault schedule that stays within the retry/circuit budget is
/// bit-identical to the fault-free run — injected faults intercept model
/// calls without consuming the simulated model's randomness.
#[test]
fn search_outcome_is_bit_identical_under_fault_schedules() {
    let space = DesignSpace::nacim_cifar10();
    let config = resilient_cfg(5, 3);
    let baseline = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ResilientLlm {
            plan: FaultPlan::none(),
        })
        .build()
        .unwrap()
        .run()
        .unwrap();
    for fault_seed in [1u64, 7, 23, 99, 1234] {
        // max_burst 2 stays within both the optimizer's parse-retry budget
        // (3 attempts) and the middleware's transient-retry budget (4).
        let plan = FaultPlan::seeded(fault_seed, 200, 0.3, 2);
        assert!(
            !plan.is_empty(),
            "fault seed {fault_seed} scheduled nothing"
        );
        let faulted = CoDesign::builder(space.clone(), config)
            .optimizer(OptimizerSpec::ResilientLlm { plan })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            faulted, baseline,
            "outcome diverged under fault seed {fault_seed}"
        );
    }
}

/// Checkpoint-kill-resume equals an uninterrupted run — including under an
/// injected fault schedule, since replay re-consumes the same fault plan.
#[test]
fn checkpoint_kill_resume_equals_uninterrupted_run() {
    let space = DesignSpace::nacim_cifar10();
    let config = resilient_cfg(6, 17);
    let plan = FaultPlan::seeded(5, 200, 0.25, 2);

    let mut snapshots: Vec<Checkpoint> = Vec::new();
    let uninterrupted = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ResilientLlm { plan: plan.clone() })
        .build()
        .unwrap()
        .run_resumable(None, |cp| {
            snapshots.push(cp.clone());
            Ok(())
        })
        .unwrap();
    assert_eq!(snapshots.len(), 6);

    // "Kill" at every episode boundary and resume: all must converge to
    // the same final outcome.
    for kill_after in [1usize, 3, 5] {
        let cp = snapshots[kill_after - 1].clone();
        assert_eq!(cp.episodes_done() as usize, kill_after);
        let resumed = CoDesign::builder(space.clone(), config)
            .optimizer(OptimizerSpec::ResilientLlm { plan: plan.clone() })
            .build()
            .unwrap()
            .run_resumable(Some(cp), |_| Ok(()))
            .unwrap();
        assert_eq!(
            resumed, uninterrupted,
            "resume after episode {kill_after} diverged"
        );
    }
}

/// Checkpoints survive the JSON round trip byte-exactly, so an on-disk
/// resume behaves like the in-memory one.
#[test]
fn checkpoint_json_roundtrip_resumes_identically() {
    let space = DesignSpace::nacim_cifar10();
    let config = resilient_cfg(4, 9);
    let mut snapshots: Vec<Checkpoint> = Vec::new();
    let full = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run_resumable(None, |cp| {
            snapshots.push(cp.clone());
            Ok(())
        })
        .unwrap();
    let json = snapshots[1].to_json().unwrap();
    let restored = Checkpoint::from_json(&json).unwrap();
    assert_eq!(&restored, &snapshots[1]);
    let resumed = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run_resumable(Some(restored), |_| Ok(()))
        .unwrap();
    assert_eq!(resumed, full);
}

/// Under in-budget garbage faults the optimizer recovers without aborting
/// and the transcript keeps the failed attempts with their error notes.
#[test]
fn faulted_attempts_are_auditable_in_transcript() {
    use lcda::llm::middleware::resilient;
    use lcda::llm::persona::Persona;
    use lcda::llm::sim::SimLlm;

    let clock = SimClock::new();
    let plan = FaultPlan::scripted([
        (0, Fault::Garbage),
        (2, Fault::Truncated),
        (3, Fault::RateLimit { retry_after_ms: 25 }),
    ]);
    let model = resilient(SimLlm::new(Persona::Pretrained, 2), plan, clock, 2);
    let mut opt = LlmOptimizer::new(
        model,
        DesignChoices::nacim_default(),
        PromptObjective::AccuracyEnergy,
    );
    // Episode 0: garbage then success. Episode 1: truncated (call 2),
    // rate-limit absorbed by the middleware retry (call 3), success.
    for _ in 0..2 {
        let d = opt.propose().expect("recovers within budget");
        opt.observe(&d, 0.1).unwrap();
    }
    let failures: Vec<_> = opt.transcript().failures().collect();
    assert_eq!(failures.len(), 2, "garbage + truncated attempts recorded");
    assert!(failures
        .iter()
        .all(|e| e.error.as_deref().unwrap().contains("cannot parse")));
    // Successful exchanges are recorded too — 2 episodes' worth.
    assert_eq!(opt.transcript().len(), 4);
    // The retried prompts carried corrective feedback.
    assert!(opt
        .transcript()
        .exchanges()
        .iter()
        .any(|e| e.error.is_none() && opt.prompt(e).contains("NOTE:")));
}

/// A model endpoint that is permanently rate limited.
struct AlwaysRateLimited;
impl LanguageModel for AlwaysRateLimited {
    fn complete(&mut self, _prompt: &str) -> lcda::llm::Result<String> {
        Err(LlmError::RateLimited { retry_after_ms: 10 })
    }
    fn model_name(&self) -> &str {
        "always-429"
    }
}

/// An exhausted circuit degrades to the configured fallback optimizer
/// instead of aborting the run.
#[test]
fn open_circuit_degrades_to_fallback_and_search_continues() {
    let clock = SimClock::new();
    let model = CircuitBreaker::new(AlwaysRateLimited, clock)
        .threshold(2)
        .cooldown_ms(u64::MAX);
    let choices = DesignChoices::nacim_default();
    let mut opt = LlmOptimizer::new(model, choices.clone(), PromptObjective::AccuracyEnergy)
        .with_fallback(Box::new(RandomOptimizer::new(choices.clone(), 11)));

    for ep in 0..4 {
        let d = opt
            .propose()
            .unwrap_or_else(|e| panic!("episode {ep}: {e}"));
        choices.contains(&d).unwrap();
        opt.observe(&d, 0.05 * f64::from(ep)).unwrap();
    }
    assert!(
        opt.degraded_count() >= 3,
        "degraded {}",
        opt.degraded_count()
    );
    // The dark-model attempts are on the record with their error notes.
    assert!(opt.transcript().failures().any(|e| e
        .error
        .as_deref()
        .unwrap()
        .contains("rate limited")));
    assert!(opt.transcript().failures().any(|e| e
        .error
        .as_deref()
        .unwrap()
        .contains("circuit open")));
}

/// Non-finite rewards are rejected with a typed error before they can
/// poison the prompt history.
#[test]
fn non_finite_rewards_rejected_with_typed_error() {
    use lcda::llm::persona::Persona;
    use lcda::llm::sim::SimLlm;
    let mut opt = LlmOptimizer::new(
        SimLlm::new(Persona::Pretrained, 4),
        DesignChoices::nacim_default(),
        PromptObjective::AccuracyEnergy,
    );
    let d = opt.propose().unwrap();
    assert!(matches!(
        opt.observe(&d, f64::NAN),
        Err(OptimError::NonFiniteReward { .. })
    ));
    assert!(matches!(
        opt.observe(&d, f64::INFINITY),
        Err(OptimError::NonFiniteReward { .. })
    ));
    assert!(opt.history().is_empty());
}
