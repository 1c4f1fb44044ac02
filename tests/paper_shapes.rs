//! The headline shape checks: do the qualitative results of the paper's
//! evaluation section emerge from this reproduction?
//!
//! Each test checks one row of `lcda_bench::claims::CLAIMS`, which holds
//! the experiment, the seeds and the bound; the row's check documents the
//! paper statement it tests.

use lcda_bench::claims::assert_holds;

#[test]
fn energy_objective_speedup_shape() {
    assert_holds("energy_objective_speedup_shape");
}

#[test]
fn energy_objective_accuracy_spectrum_shape() {
    assert_holds("energy_objective_accuracy_spectrum_shape");
}

#[test]
fn energy_objective_pareto_fronts_alike() {
    assert_holds("energy_objective_pareto_fronts_alike");
}

#[test]
fn latency_objective_failure_shape() {
    assert_holds("latency_objective_failure_shape");
}

#[test]
fn finetuned_persona_improves_latency_objective() {
    assert_holds("finetuned_persona_improves_latency_objective");
}

#[test]
fn naive_ablation_shape() {
    assert_holds("naive_ablation_shape");
}

#[test]
fn early_episode_quality_shape() {
    assert_holds("early_episode_quality_shape");
}
