//! Island-model layer: elite exchange between independently seeded
//! optimizers.
//!
//! The sharded search runtime (`lcda-core::shard`) splits one search
//! into N *islands*, each running its own seeded optimizer. At every
//! generation barrier the runtime asks each island for its best
//! designs ([`Island::export_elites`]) and feeds them to every other
//! island ([`Island::inject`]). An [`Island`] is the thin wrapper that
//! makes any [`Optimizer`] participate in that protocol:
//!
//! - it keeps an **archive** of the designs the island itself observed
//!   (injected elites are deliberately excluded, so an island only ever
//!   exports its *own* discoveries and migration cannot echo a design
//!   around the ring forever),
//! - elite export is deterministic: ties on reward break toward the
//!   earlier-observed design, so the migration traffic — and therefore
//!   the whole sharded run — is a pure function of the seeds.
//!
//! The wrapper is transparent to checkpoint/replay: `name()` forwards
//! to the inner optimizer and `propose`/`observe` delegate, so an
//! island's history replays exactly like the bare optimizer's.

use crate::genetic::{GaConfig, GeneticOptimizer};
use crate::nsga::{Nsga2Optimizer, NsgaConfig, ScalarizedNsga2};
use crate::rl::{RlConfig, RlOptimizer};
use crate::{Optimizer, Result};
use lcda_llm::design::{CandidateDesign, DesignChoices};
use lcda_llm::transcript::ChatTranscript;

/// One migrating design: what an island exports at a barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct Elite {
    /// The design itself.
    pub design: CandidateDesign,
    /// The scalar reward the exporting island observed for it.
    pub reward: f64,
}

/// An optimizer participating in island-model elite exchange.
///
/// Wraps any [`Optimizer`], tracking the designs it observed so the
/// best of them can be exported at generation barriers.
#[derive(Debug)]
pub struct Island<O: Optimizer> {
    inner: O,
    /// Own observations, in observation order. Injected elites are not
    /// archived (see module docs).
    archive: Vec<(CandidateDesign, f64)>,
}

impl<O: Optimizer> Island<O> {
    /// Wraps an optimizer for island duty.
    pub fn new(inner: O) -> Self {
        Island {
            inner,
            archive: Vec::new(),
        }
    }

    /// The wrapped optimizer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Number of designs this island has observed itself.
    pub fn archive_len(&self) -> usize {
        self.archive.len()
    }

    /// The island's `k` best own observations, reward-descending.
    ///
    /// Deterministic: ties on reward resolve toward the
    /// earlier-observed design, so two replays of the same history
    /// export byte-identical elites.
    pub fn export_elites(&self, k: usize) -> Vec<Elite> {
        let mut order: Vec<usize> = (0..self.archive.len()).collect();
        order.sort_by(|&a, &b| {
            self.archive[b]
                .1
                .total_cmp(&self.archive[a].1)
                .then_with(|| a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| Elite {
                design: self.archive[i].0.clone(),
                reward: self.archive[i].1,
            })
            .collect()
    }

    /// Feeds another island's elite to the wrapped optimizer without
    /// archiving it (the design stays attributed to its discoverer).
    ///
    /// # Errors
    ///
    /// Propagates the inner optimizer's `observe` error (e.g. a design
    /// outside this island's space).
    pub fn inject(&mut self, elite: &Elite) -> Result<()> {
        self.inner.observe(&elite.design, elite.reward)
    }
}

impl<O: Optimizer> Optimizer for Island<O> {
    fn propose(&mut self) -> Result<CandidateDesign> {
        self.inner.propose()
    }

    fn observe(&mut self, design: &CandidateDesign, reward: f64) -> Result<()> {
        self.inner.observe(design, reward)?;
        self.archive.push((design.clone(), reward));
        Ok(())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn transcript(&self) -> Option<&ChatTranscript> {
        self.inner.transcript()
    }
}

impl GeneticOptimizer {
    /// Island-model variant: a seeded GA wrapped for elite exchange.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OptimError::InvalidConfig`] for invalid
    /// hyper-parameters.
    pub fn island(choices: DesignChoices, config: GaConfig, seed: u64) -> Result<Island<Self>> {
        Ok(Island::new(GeneticOptimizer::new(choices, config, seed)?))
    }
}

impl RlOptimizer {
    /// Island-model variant: a seeded REINFORCE controller wrapped for
    /// elite exchange. Injected elites act as extra policy-gradient
    /// updates (observe consumes no RNG, so injection never perturbs
    /// the island's sampling stream).
    ///
    /// # Errors
    ///
    /// Returns [`crate::OptimError::InvalidConfig`] for invalid
    /// hyper-parameters.
    pub fn island(choices: DesignChoices, config: RlConfig, seed: u64) -> Result<Island<Self>> {
        Ok(Island::new(RlOptimizer::new(choices, config, seed)?))
    }
}

impl ScalarizedNsga2 {
    /// Island-model variant: a seeded single-objective NSGA-II wrapped
    /// for elite exchange (migrants join the evaluated pool and compete
    /// in environmental selection like native individuals).
    ///
    /// # Errors
    ///
    /// Returns [`crate::OptimError::InvalidConfig`] for invalid
    /// hyper-parameters.
    pub fn island(choices: DesignChoices, config: NsgaConfig, seed: u64) -> Result<Island<Self>> {
        Ok(Island::new(ScalarizedNsga2(Nsga2Optimizer::new(
            choices,
            NsgaConfig {
                objectives: 1,
                ..config
            },
            seed,
        )?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomOptimizer;

    fn choices() -> DesignChoices {
        DesignChoices::nacim_default()
    }

    fn run_island<O: Optimizer>(island: &mut Island<O>, n: usize) {
        for i in 0..n {
            let d = island.propose().unwrap();
            island.observe(&d, i as f64).unwrap();
        }
    }

    #[test]
    fn archive_tracks_only_own_observations() {
        let mut island = Island::new(RandomOptimizer::new(choices(), 1));
        run_island(&mut island, 5);
        assert_eq!(island.archive_len(), 5);
        let foreign = Elite {
            design: RandomOptimizer::new(choices(), 2).propose().unwrap(),
            reward: 99.0,
        };
        island.inject(&foreign).unwrap();
        assert_eq!(island.archive_len(), 5, "injection must not archive");
        let elites = island.export_elites(3);
        assert!(elites.iter().all(|e| e.reward < 99.0));
    }

    #[test]
    fn elites_are_reward_descending_with_stable_ties() {
        let mut island = Island::new(RandomOptimizer::new(choices(), 3));
        let mut designs = Vec::new();
        for reward in [1.0, 3.0, 3.0, 2.0] {
            let d = island.propose().unwrap();
            island.observe(&d, reward).unwrap();
            designs.push(d);
        }
        let elites = island.export_elites(3);
        assert_eq!(elites.len(), 3);
        assert_eq!(elites[0].reward, 3.0);
        assert_eq!(elites[0].design, designs[1], "earlier tie wins");
        assert_eq!(elites[1].design, designs[2]);
        assert_eq!(elites[2].reward, 2.0);
        assert!(island.export_elites(0).is_empty());
        assert_eq!(island.export_elites(10).len(), 4, "k caps at archive");
    }

    #[test]
    fn ga_rl_nsga_islands_accept_injected_elites() {
        let mut ga = GeneticOptimizer::island(choices(), GaConfig::standard(), 5).unwrap();
        let mut rl = RlOptimizer::island(choices(), RlConfig::standard(), 5).unwrap();
        let mut nsga = ScalarizedNsga2::island(choices(), NsgaConfig::standard(), 5).unwrap();
        run_island(&mut ga, 4);
        run_island(&mut rl, 4);
        run_island(&mut nsga, 4);
        for elite in ga.export_elites(2) {
            rl.inject(&elite).unwrap();
            nsga.inject(&elite).unwrap();
        }
        for elite in rl.export_elites(2) {
            ga.inject(&elite).unwrap();
        }
        // All islands keep proposing after migration.
        assert!(ga.propose().is_ok());
        assert!(rl.propose().is_ok());
        assert!(nsga.propose().is_ok());
        assert_eq!(ga.name(), "genetic");
        assert_eq!(rl.name(), "nacim-rl");
        assert_eq!(nsga.name(), "nsga2");
    }

    #[test]
    fn island_is_transparent_to_the_inner_stream() {
        // Same seed, same observations → the wrapped and bare optimizer
        // propose identical sequences (the wrapper consumes no RNG).
        let mut bare = RandomOptimizer::new(choices(), 11);
        let mut wrapped = Island::new(RandomOptimizer::new(choices(), 11));
        for i in 0..6 {
            let a = bare.propose().unwrap();
            let b = wrapped.propose().unwrap();
            assert_eq!(a, b);
            bare.observe(&a, i as f64).unwrap();
            wrapped.observe(&b, i as f64).unwrap();
        }
    }

    #[test]
    fn boxed_optimizer_is_an_island_too() {
        let inner: Box<dyn Optimizer> = Box::new(RandomOptimizer::new(choices(), 7));
        let mut island = Island::new(inner);
        run_island(&mut island, 3);
        assert_eq!(island.archive_len(), 3);
        assert_eq!(island.name(), "random");
    }
}
