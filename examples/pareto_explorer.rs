//! Search the accuracy-energy Pareto front *directly* with NSGA-II
//! (NSGA-Net style, the paper's reference [14]) instead of scalarizing
//! the trade-off, and test whether that earns its keep: at an equal
//! evaluation budget, does the evolved front beat the union of the fronts
//! the scalarized LCDA and NACIM searches leave behind?
//!
//! On each held-out seed 11–40, NSGA-II spends 520 evaluations, the same
//! as LCDA@20 plus NACIM@500. Both sides are scored on every design they
//! evaluated, by hypervolume against the reference point accuracy 0 /
//! 8e7 pJ (the ISAAC reference energy).
//!
//! ```sh
//! cargo run --release --example pareto_explorer
//! ```

use lcda::core::mo::MultiObjectiveCoDesign;
use lcda::core::pareto::{hypervolume, pareto_front, TradeoffPoint};
use lcda::prelude::*;

const SEEDS: std::ops::RangeInclusive<u64> = 11..=40;
const LCDA_EPISODES: u32 = 20;
const NACIM_EPISODES: u32 = 500;
const NSGA_EVALUATIONS: u32 = LCDA_EPISODES + NACIM_EPISODES;
const COST_REF_PJ: f64 = 8.0e7;

fn hv(points: &[TradeoffPoint]) -> f64 {
    hypervolume(&pareto_front(points), 0.0, COST_REF_PJ)
}

/// Every valid design one scalarized search evaluated.
fn scalarized(
    space: &DesignSpace,
    spec: OptimizerSpec,
    episodes: u32,
    seed: u64,
) -> Result<Vec<TradeoffPoint>, Box<dyn std::error::Error>> {
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(episodes)
        .seed(seed)
        .build();
    let outcome = CoDesign::builder(space.clone(), config)
        .optimizer(spec)
        .build()?
        .run()?;
    Ok(outcome
        .accuracy_energy_points()
        .into_iter()
        .map(|(a, c)| TradeoffPoint::new(a, c))
        .collect())
}

/// The `q`-quantile (0–1) of a sorted sample, interpolating between
/// closest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DesignSpace::nacim_cifar10();
    println!(
        "NSGA-II@{NSGA_EVALUATIONS} vs LCDA@{LCDA_EPISODES} ∪ NACIM@{NACIM_EPISODES}, \
         hypervolume over all evaluated designs (ref acc 0 / cost {COST_REF_PJ:.0e} pJ)\n"
    );
    println!("seed  NSGA-II     LCDA∪NACIM  ratio");
    let mut ratios = Vec::new();
    for seed in SEEDS {
        let mo = MultiObjectiveCoDesign::new(
            space.clone(),
            Objective::AccuracyEnergy,
            NSGA_EVALUATIONS,
            seed,
        )?
        .run()?;
        let nsga: Vec<TradeoffPoint> = mo
            .history
            .iter()
            .filter(|r| r.cost.is_finite())
            .map(|r| TradeoffPoint::new(r.accuracy, r.cost))
            .collect();
        let mut union = scalarized(&space, OptimizerSpec::ExpertLlm, LCDA_EPISODES, seed)?;
        union.extend(scalarized(&space, OptimizerSpec::Rl, NACIM_EPISODES, seed)?);
        let (hv_nsga, hv_union) = (hv(&nsga), hv(&union));
        let ratio = hv_nsga / hv_union;
        println!("{seed:>4}  {hv_nsga:.4e}  {hv_union:.4e}  {ratio:.3}");
        ratios.push(ratio);
    }

    let wins = ratios.iter().filter(|&&r| r > 1.0).count();
    ratios.sort_by(f64::total_cmp);
    println!(
        "\nNSGA-II's front is larger on {wins}/{} seeds; hypervolume ratio median {:.3} \
         (IQR {:.3}–{:.3}, range {:.3}–{:.3})",
        ratios.len(),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.75),
        ratios[0],
        ratios[ratios.len() - 1],
    );
    Ok(())
}
