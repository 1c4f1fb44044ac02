//! Property-based tests (seeded loops) over the public API: invariants that
//! must hold for *arbitrary* points of the design space, not just the
//! hand-picked ones.

use lcda::core::backend::CimBackend;
use lcda::core::evaluate::HwMetrics;
use lcda::core::pareto::{pareto_front, TradeoffPoint};
use lcda::core::reward::Objective;
use lcda::core::space::DesignSpace;
use lcda::llm::design::{CandidateDesign, DesignChoices};
use lcda::llm::parse::{parse_design, parse_history};
use lcda::llm::prompt::{HistoryEntry, PromptBuilder};
use lcda::neurosim::crossbar::CrossbarConfig;
use lcda::neurosim::mapper::{LayerMapping, LayerWorkload, Precision};
use lcda::variation::montecarlo::McStats;
use lcda::variation::weights::WeightPerturber;
use lcda::variation::VariationConfig;
use lcda_base::rng::{check, Rng};

fn arb_design(rng: &mut Rng) -> CandidateDesign {
    let choices = DesignChoices::nacim_default();
    let idx: Vec<usize> = (0..choices.slot_count())
        .map(|s| rng.index(choices.slot_options(s)))
        .collect();
    choices.decode(&idx).expect("indices in range")
}

/// Any in-space design survives the render → parse round trip through
/// the response text format.
#[test]
fn response_text_roundtrips() {
    check(256, |rng| {
        let design = arb_design(rng);
        let choices = DesignChoices::nacim_default();
        let text = design.to_response_text();
        let parsed = parse_design(&text, &choices).unwrap();
        assert_eq!(parsed, design);
    });
}

/// Any in-space design also survives a full prompt round trip: embed
/// it as history, render the prompt, parse the history back.
#[test]
fn prompt_history_roundtrips() {
    check(256, |rng| {
        let design = arb_design(rng);
        let perf = rng.uniform_f64(-1.0, 1.0);
        let choices = DesignChoices::nacim_default();
        let prompt = PromptBuilder::new(&choices).render(&[HistoryEntry {
            design: design.clone(),
            performance: perf,
        }]);
        let parsed = parse_history(&prompt, &choices);
        assert_eq!(parsed.len(), 1);
        assert_eq!(&parsed[0].0, &design);
        assert!((parsed[0].1 - perf).abs() < 1e-5);
    });
}

/// Encode/decode is a bijection over the flat index space.
#[test]
fn encode_decode_bijection() {
    check(256, |rng| {
        let design = arb_design(rng);
        let choices = DesignChoices::nacim_default();
        let idx = choices.encode(&design).unwrap();
        assert_eq!(choices.decode(&idx).unwrap(), design);
    });
}

/// Every in-space design converts to a valid architecture, workload
/// list and chip config, and the architecture's weight count matches
/// the sum of the workloads' weights.
#[test]
fn design_generator_total_weights_conserved() {
    check(256, |rng| {
        let design = arb_design(rng);
        let space = DesignSpace::nacim_cifar10();
        let cim = CimBackend::new(space.clone());
        let arch = space.architecture(&design).unwrap();
        let layers = cim.lower(&design).unwrap();
        cim.chip_config(&design).unwrap();
        let conv_fc_weights: u64 = layers.iter().map(|l| l.weights()).sum();
        assert_eq!(conv_fc_weights, arch.weight_count());
    });
}

/// Crossbar mapping conserves rows/columns and keeps utilization in
/// (0, 1] for arbitrary layer shapes.
#[test]
fn mapper_utilization_in_unit_interval() {
    check(256, |rng| {
        let c_in = 1 + rng.below(255) as u32;
        let c_out = 1 + rng.below(255) as u32;
        let k = [1u32, 3, 5, 7][rng.index(4)];
        let size = 4 + rng.below(29) as u32;
        let xbar = CrossbarConfig::isaac_default();
        let layer = LayerWorkload::conv(c_in, size, size, c_out, k, 1, k / 2).unwrap();
        let m = LayerMapping::map(&layer, &xbar, Precision::int8()).unwrap();
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        // Row groups cover exactly the needed rows.
        let covered: u32 = (0..m.row_groups)
            .map(|g| m.rows_in_group(g, xbar.rows))
            .sum();
        assert_eq!(covered, m.rows_needed);
        let covered_cols: u32 = (0..m.col_groups)
            .map(|g| m.cols_in_group(g, xbar.cols))
            .sum();
        assert_eq!(covered_cols, m.cols_needed);
    });
}

/// No point of a Pareto front is dominated by any input point.
#[test]
fn pareto_front_is_nondominated() {
    check(256, |rng| {
        let points = (0..1 + rng.index(39))
            .map(|_| (rng.uniform_f64(0.0, 1.0), rng.uniform_f64(1.0, 100.0)))
            .collect::<Vec<_>>();
        let pts: Vec<TradeoffPoint> = points
            .iter()
            .map(|&(a, c)| TradeoffPoint::new(a, c))
            .collect();
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        for f in &front {
            for p in &pts {
                assert!(!p.dominates(f), "{p:?} dominates front point {f:?}");
            }
        }
        // And every input point is dominated by (or equal to) some front
        // point.
        for p in &pts {
            assert!(front.iter().any(|f| f.dominates(p) || f == p));
        }
    });
}

/// Eq. 1 reward is monotone: increasing accuracy or decreasing energy
/// never lowers it. Same for Eq. 2 with latency.
#[test]
fn reward_monotonicity() {
    check(256, |rng| {
        let acc = rng.uniform_f64(0.0, 1.0);
        let d_acc = rng.uniform_f64(0.0, 0.5);
        let energy = rng.uniform_f64(1.0e6, 1.0e9);
        let latency = rng.uniform_f64(1.0e4, 1.0e7);
        let shrink = rng.uniform_f64(0.1, 1.0);
        let hw = HwMetrics {
            energy_pj: energy,
            latency_ns: latency,
            area_mm2: 1.0,
            leakage_uw: 0.0,
        };
        let better_e = HwMetrics {
            energy_pj: energy * shrink,
            ..hw
        };
        let better_l = HwMetrics {
            latency_ns: latency * shrink,
            ..hw
        };
        assert!(
            Objective::AccuracyEnergy.reward(acc + d_acc, &hw)
                >= Objective::AccuracyEnergy.reward(acc, &hw)
        );
        assert!(
            Objective::AccuracyEnergy.reward(acc, &better_e)
                >= Objective::AccuracyEnergy.reward(acc, &hw)
        );
        assert!(
            Objective::AccuracyLatency.reward(acc + d_acc, &hw)
                >= Objective::AccuracyLatency.reward(acc, &hw)
        );
        assert!(
            Objective::AccuracyLatency.reward(acc, &better_l)
                >= Objective::AccuracyLatency.reward(acc, &hw)
        );
    });
}

/// Weight perturbation is bounded: outputs stay within ±w_max and are
/// always finite, for any corner and any weights.
#[test]
fn perturbation_bounded() {
    check(256, |rng| {
        let weights = (0..1 + rng.index(255))
            .map(|_| rng.uniform(-3.0, 3.0))
            .collect::<Vec<_>>();
        let seed = rng.below(1000);
        let severe = rng.chance(0.5);
        let corner = if severe {
            VariationConfig::rram_severe()
        } else {
            VariationConfig::rram_moderate()
        };
        let p = WeightPerturber::new(corner, 1.0);
        let mut w = weights;
        p.perturb(&mut w, seed);
        for x in &w {
            assert!(x.is_finite());
            assert!(x.abs() <= 1.0 + 1e-5);
        }
    });
}

/// Monte-Carlo statistics are internally consistent for any sample.
#[test]
fn mc_stats_consistent() {
    check(256, |rng| {
        let samples = (0..1 + rng.index(99))
            .map(|_| rng.uniform(-10.0, 10.0))
            .collect::<Vec<_>>();
        let s = McStats::from_samples(&samples).unwrap();
        assert!(s.min <= s.mean + 1e-4);
        assert!(s.mean <= s.max + 1e-4);
        assert!(s.std >= 0.0);
        assert_eq!(s.trials as usize, samples.len());
    });
}

/// The surrogate evaluator returns a probability for every in-space
/// design and is deterministic.
#[test]
fn surrogate_total_and_deterministic() {
    check(256, |rng| {
        let design = arb_design(rng);
        use lcda::core::evaluate::AccuracyEvaluator;
        use lcda::core::surrogate::SurrogateEvaluator;
        let space = DesignSpace::nacim_cifar10();
        let mut e1 = SurrogateEvaluator::new(space.clone(), 0);
        let mut e2 = SurrogateEvaluator::new(space, 0);
        let a = e1.accuracy(&design).unwrap();
        let b = e2.accuracy(&design).unwrap();
        assert!((0.0..=1.0).contains(&a));
        assert_eq!(a, b);
    });
}
