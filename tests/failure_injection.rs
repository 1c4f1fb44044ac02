//! Failure-injection tests: malformed LLM output, out-of-space designs,
//! degenerate configurations and hostile corners must fail loudly and
//! recoverably — never panic, never silently corrupt a run.

use lcda::llm::design::DesignChoices;
use lcda::llm::parse::parse_design;
use lcda::llm::prompt::PromptObjective;
use lcda::llm::{LanguageModel, LlmError};
use lcda::optim::llm_opt::LlmOptimizer;
use lcda::optim::{OptimError, Optimizer};
use lcda::prelude::*;

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
// Resilience: checkpoint/resume and auditable parse re-prompts.
// ---------------------------------------------------------------------------

fn resilient_cfg(episodes: u32, seed: u64) -> CoDesignConfig {
    CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(seed)
        .build()
}

/// Checkpoint-kill-resume equals an uninterrupted run.
#[test]
fn checkpoint_kill_resume_equals_uninterrupted_run() {
    let space = DesignSpace::nacim_cifar10();
    let config = resilient_cfg(6, 17);

    let mut snapshots: Vec<Checkpoint> = Vec::new();
    let uninterrupted = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
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
            .optimizer(OptimizerSpec::ExpertLlm)
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

/// Checkpoints survive the JSON round trip through the checkpoint log
/// exactly, so an on-disk resume behaves like the in-memory one.
#[test]
fn checkpoint_json_roundtrip_resumes_identically() {
    let space = DesignSpace::nacim_cifar10();
    let config = resilient_cfg(4, 9);
    let path = std::env::temp_dir().join(format!("lcda-roundtrip-{}.jsonl", std::process::id()));
    let log = CheckpointStore::new(&path, 1).unwrap();
    let mut snapshots: Vec<Checkpoint> = Vec::new();
    let full = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run_resumable(None, |cp| {
            if snapshots.len() < 2 {
                log.save(cp)?;
            }
            snapshots.push(cp.clone());
            Ok(())
        })
        .unwrap();
    let (restored, _) = log
        .load_latest()
        .unwrap()
        .expect("the log holds two episodes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(&restored, &snapshots[1]);
    let resumed = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run_resumable(Some(restored), |_| Ok(()))
        .unwrap();
    assert_eq!(resumed, full);
}

/// Answers unusable text on scripted call indices — garbage at call 0, a
/// truncated design at call 2 — and delegates every other call.
struct Scripted<M> {
    inner: M,
    calls: u32,
}

impl<M: LanguageModel> LanguageModel for Scripted<M> {
    fn complete(&mut self, prompt: &str) -> lcda::llm::Result<String> {
        let call = self.calls;
        self.calls += 1;
        match call {
            0 => Ok("as an AI language model, I cannot suggest hardware designs".into()),
            2 => Ok("[[32,3],[32,3],[64,3],[64".into()),
            _ => self.inner.complete(prompt),
        }
    }
    fn model_name(&self) -> &str {
        "scripted"
    }
}

/// Unusable responses within the retry budget are re-prompted without
/// aborting, and the transcript keeps the failed attempts with their
/// error notes.
#[test]
fn faulted_attempts_are_auditable_in_transcript() {
    use lcda::llm::persona::Persona;
    use lcda::llm::sim::SimLlm;

    let model = Scripted {
        inner: SimLlm::new(Persona::Pretrained, 2),
        calls: 0,
    };
    let mut opt = LlmOptimizer::new(
        model,
        DesignChoices::nacim_default(),
        PromptObjective::AccuracyEnergy,
    );
    // Episode 0: garbage then success. Episode 1: truncated (call 2),
    // then success.
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
