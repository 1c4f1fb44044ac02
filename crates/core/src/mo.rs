//! Multi-objective co-design: evolve toward the whole accuracy-vs-cost
//! Pareto front with NSGA-II instead of scalarizing the trade-off.
//!
//! The paper optimizes scalarized rewards (Eqs. 1–2) but frames the task
//! as "multi-objective SW-HW co-design" and plots trade-off fronts
//! (Figs. 2/4/5). This module searches the front *directly*: each design
//! is scored as the vector `(accuracy, −normalized cost)` and NSGA-II's
//! non-dominated sorting does the rest. The result is an explicit
//! [`MoOutcome::front`] a designer can pick from, rather than a single
//! scalar-optimal point.

use crate::backend::CimBackend;
use crate::evaluate::{AccuracyEvaluator, HardwareCostEvaluator};
use crate::reward::{Objective, ENERGY_NORM_PJ, FPS_NORM};
use crate::space::DesignSpace;
use crate::surrogate::SurrogateEvaluator;
use crate::{CoreError, Result};
use lcda_llm::design::CandidateDesign;
use lcda_optim::nsga::{MultiObjectiveOptimizer, Nsga2Optimizer, NsgaConfig};

/// One evaluated point of a multi-objective run.
#[derive(Debug, Clone, PartialEq)]
pub struct MoRecord {
    /// The design.
    pub design: CandidateDesign,
    /// Monte-Carlo accuracy.
    pub accuracy: f64,
    /// Raw cost in natural units (pJ or ns).
    pub cost: f64,
    /// The maximized objective vector fed to NSGA-II.
    pub objectives: Vec<f64>,
}

lcda_base::impl_json!(struct MoRecord { design, accuracy, cost, objectives });

/// Result of a multi-objective run.
#[derive(Debug, Clone, PartialEq)]
pub struct MoOutcome {
    /// Every evaluated design in order.
    pub history: Vec<MoRecord>,
    /// The final non-dominated front `(design, accuracy, cost)`.
    pub front: Vec<(CandidateDesign, f64, f64)>,
}

lcda_base::impl_json!(struct MoOutcome { history, front });

/// NSGA-II-driven co-design over `(accuracy, −cost)`.
pub struct MultiObjectiveCoDesign {
    space: DesignSpace,
    objective: Objective,
    episodes: u32,
    optimizer: Nsga2Optimizer,
    accuracy: Box<dyn AccuracyEvaluator>,
    hardware: Box<dyn HardwareCostEvaluator>,
}

impl std::fmt::Debug for MultiObjectiveCoDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiObjectiveCoDesign")
            .field("objective", &self.objective)
            .field("episodes", &self.episodes)
            .finish_non_exhaustive()
    }
}

impl MultiObjectiveCoDesign {
    /// Creates a run with the default (surrogate + CiM backend) evaluators.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero episode budget.
    pub fn new(space: DesignSpace, objective: Objective, episodes: u32, seed: u64) -> Result<Self> {
        if episodes == 0 {
            return Err(CoreError::InvalidConfig("episodes must be positive".into()));
        }
        let optimizer = Nsga2Optimizer::new(space.choices.clone(), NsgaConfig::standard(), seed)?;
        Ok(MultiObjectiveCoDesign {
            accuracy: Box::new(SurrogateEvaluator::new(space.clone(), seed)),
            hardware: Box::new(CimBackend::new(space.clone())),
            space,
            objective,
            episodes,
            optimizer,
        })
    }

    /// The cost axis of a hardware report under the chosen objective.
    fn cost_of(&self, hw: &crate::evaluate::HwMetrics) -> f64 {
        match self.objective {
            Objective::AccuracyEnergy => hw.energy_pj,
            Objective::AccuracyLatency => hw.latency_ns,
        }
    }

    /// Normalizes a cost for the objective vector (maximized, so negated
    /// and scaled to the ISAAC anchor).
    fn cost_objective(&self, cost: f64) -> f64 {
        match self.objective {
            Objective::AccuracyEnergy => -(cost / ENERGY_NORM_PJ),
            Objective::AccuracyLatency => {
                // Maximize normalized FPS rather than negated ns — same
                // ordering, bounded scale.
                (1.0e9 / cost) / FPS_NORM
            }
        }
    }

    /// Runs the search and extracts the final front.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures on malformed designs.
    pub fn run(&mut self) -> Result<MoOutcome> {
        let mut history = Vec::new();
        for _ in 0..self.episodes {
            let design = self.optimizer.propose()?;
            // Structurally impossible or over-budget designs get the worst
            // possible vector so NSGA-II selects them away.
            let (accuracy, cost, objectives) = if self.space.architecture(&design).is_err() {
                (0.0, f64::INFINITY, vec![-1.0, -1.0e3])
            } else {
                match self.hardware.cost(&design)? {
                    None => (0.0, f64::INFINITY, vec![-1.0, -1.0e3]),
                    Some(hw) => {
                        let acc = self.accuracy.accuracy(&design)?;
                        let cost = self.cost_of(&hw);
                        (acc, cost, vec![acc, self.cost_objective(cost)])
                    }
                }
            };
            self.optimizer.observe(&design, &objectives)?;
            history.push(MoRecord {
                design,
                accuracy,
                cost,
                objectives,
            });
        }
        // Every archive member was observed, so the lookup should always
        // hit — but a hypothetical optimizer bug must degrade to a
        // shorter front, not a panic mid-run.
        let front = self
            .optimizer
            .pareto_archive()
            .into_iter()
            .filter(|(_, f)| f[0] > 0.0)
            .filter_map(|(d, _)| {
                history
                    .iter()
                    .rev()
                    .find(|r| r.design == d)
                    .map(|rec| (d.clone(), rec.accuracy, rec.cost))
            })
            .collect();
        Ok(MoOutcome { history, front })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::TradeoffPoint;

    #[test]
    fn front_is_nonempty_and_nondominated() {
        let mut run = MultiObjectiveCoDesign::new(
            DesignSpace::nacim_cifar10(),
            Objective::AccuracyEnergy,
            120,
            1,
        )
        .unwrap();
        let outcome = run.run().unwrap();
        assert_eq!(outcome.history.len(), 120);
        assert!(!outcome.front.is_empty());
        // No front member may dominate another in (accuracy ↑, cost ↓).
        let pts: Vec<TradeoffPoint> = outcome
            .front
            .iter()
            .map(|(_, a, c)| TradeoffPoint::new(*a, *c))
            .collect();
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b) || !b.dominates(a));
                }
            }
        }
    }

    #[test]
    fn front_spans_a_tradeoff() {
        let mut run = MultiObjectiveCoDesign::new(
            DesignSpace::nacim_cifar10(),
            Objective::AccuracyEnergy,
            240,
            2,
        )
        .unwrap();
        let outcome = run.run().unwrap();
        let accs: Vec<f64> = outcome.front.iter().map(|(_, a, _)| *a).collect();
        let hi = accs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lo = accs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            hi - lo > 0.02 || outcome.front.len() == 1,
            "front should span accuracies: {lo}..{hi} ({} pts)",
            outcome.front.len()
        );
    }

    #[test]
    fn zero_episodes_rejected() {
        assert!(MultiObjectiveCoDesign::new(
            DesignSpace::nacim_cifar10(),
            Objective::AccuracyEnergy,
            0,
            0,
        )
        .is_err());
    }

    #[test]
    fn latency_objective_runs() {
        let mut run = MultiObjectiveCoDesign::new(
            DesignSpace::nacim_cifar10(),
            Objective::AccuracyLatency,
            60,
            3,
        )
        .unwrap();
        let outcome = run.run().unwrap();
        assert!(!outcome.front.is_empty());
        for (_, _, cost) in &outcome.front {
            assert!(*cost > 0.0 && cost.is_finite());
        }
    }
}
