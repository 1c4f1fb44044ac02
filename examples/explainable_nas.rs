//! Explainable NAS — the paper's first future-work direction.
//!
//! "The changes in design parameters between consecutive episodes are
//! human-readable, allowing users to request explanations by sending
//! prompts to LLMs." This example drives the LLM optimizer manually so it
//! can print, for every episode, the design delta *and the model's own
//! rationale*, plus the prompt/response transcript statistics and the
//! last prompt, rendered again from the transcript.
//!
//! ```sh
//! cargo run --release --example explainable_nas
//! ```

use lcda::llm::persona::Persona;
use lcda::llm::prompt::PromptObjective;
use lcda::llm::sim::SimLlm;
use lcda::optim::llm_opt::LlmOptimizer;
use lcda::optim::Optimizer;
use lcda::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DesignSpace::nacim_cifar10();
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(1)
        .seed(11)
        .build();
    // Borrow LCDA's evaluators through a scorer run; we drive the
    // optimizer by hand to read its rationales.
    let mut scorer = CoDesign::builder(space.clone(), config)
        .optimizer(OptimizerSpec::Random)
        .build()?;

    let llm = SimLlm::new(Persona::Pretrained, 11);
    let mut opt = LlmOptimizer::new(llm, space.choices.clone(), PromptObjective::AccuracyEnergy);

    println!("knowledge base of the optimizer:");
    for rule in Persona::Pretrained.knowledge().rules() {
        let tag = if rule.correct { "  " } else { "✗ " };
        println!("  {tag}{}: {}", rule.name, rule.statement);
    }
    println!("  (✗ = belief the paper found to be wrong on CiM hardware)\n");

    for episode in 0..10u32 {
        let design = opt.propose()?;
        let record = scorer.evaluate_design(episode, design)?;
        opt.observe(&record.design, record.reward)?;
        println!("episode {episode}: reward {:+.3}", record.reward);
        println!("  design    {}", record.design);
        if let Some(why) = opt.model().last_rationale() {
            println!("  rationale {why}");
        }
    }

    let t = opt.transcript();
    println!(
        "\ntranscript: {} exchanges with {}, ≈{} prompt tokens total",
        t.len(),
        t.model(),
        t.approx_prompt_tokens()
    );
    let last = t.exchanges().last().expect("episodes ran");
    // The transcript records how each prompt was built; the optimizer
    // renders the text again on demand.
    let prompt = opt.prompt(last);
    let listed: Vec<&str> = prompt.lines().filter(|l| l.contains("-> perf:")).collect();
    println!(
        "\nfinal prompt: {} bytes listing {} explored designs, the latest\n  {}",
        prompt.len(),
        listed.len(),
        listed.last().copied().unwrap_or("(none)")
    );
    println!(
        "\nfinal raw model response:\n  {}",
        last.response.replace('\n', "\n  ")
    );
    Ok(())
}
