//! The experiment table: one row per EXPERIMENTS.md section that has a
//! binary.
//!
//! Each [`Experiment`] runs at one seed and returns [`Data`]; its
//! renderer turns the data of one or more seeds into the text its binary
//! prints. Every search comes from one runner, `search`, so the budgets
//! and the tolerance below are named once.

use crate::render;
use lcda_core::analysis::{self, RewardCurve, SpeedupReport};
use lcda_core::backend::CimBackend;
use lcda_core::evaluate::AccuracyEvaluator;
use lcda_core::space::DesignSpace;
use lcda_core::surrogate::SurrogateEvaluator;
use lcda_core::OptimizerSpec::{
    AdaptiveLlm, ExpertLlm, FinetunedLlm, Genetic, NaiveLlm, Random, Rl,
};
use lcda_core::{CoDesign, CoDesignConfig, Objective, OptimizerSpec, Outcome};
use lcda_neurosim::chip::Chip;
use lcda_neurosim::mapper::{LayerMapping, LayerWorkload, Precision};
use lcda_variation::WriteVerifyConfig;

/// LCDA's episode budget in the paper.
pub const LCDA_EPISODES: u32 = 20;

/// NACIM's episode budget in the paper.
pub const NACIM_EPISODES: u32 = 500;

/// The seeds of the SPEEDUP table.
pub const SPEEDUP_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// How far below LCDA's best reward a baseline may stay and still count
/// as "comparable quality" (§IV-A).
pub const TOLERANCE: f64 = 0.02;

const ENERGY: Objective = Objective::AccuracyEnergy;
const LATENCY: Objective = Objective::AccuracyLatency;

/// One search: optimizer, objective and episode budget. The experiment
/// supplies the seed.
type Search = (OptimizerSpec, Objective, u32);

/// LCDA@20 vs NACIM@500 on reward Eq. 1: FIG2, FIG3 and SPEEDUP.
const ENERGY_PAIR: [Search; 2] = [
    (ExpertLlm, ENERGY, LCDA_EPISODES),
    (Rl, ENERGY, NACIM_EPISODES),
];

/// FIG4: the same pair on reward Eq. 2, plus the fine-tuned persona.
const FIG4_SEARCHES: [Search; 3] = [
    (ExpertLlm, LATENCY, LCDA_EPISODES),
    (Rl, LATENCY, NACIM_EPISODES),
    (FinetunedLlm, LATENCY, LCDA_EPISODES),
];

/// FIG5: LCDA vs LCDA-naive at the same budget.
const FIG5_SEARCHES: [Search; 2] = [
    (ExpertLlm, ENERGY, LCDA_EPISODES),
    (NaiveLlm, ENERGY, LCDA_EPISODES),
];

/// ABL's search rows on reward Eq. 1: name, optimizer, episodes, and
/// whether cells are programmed with write-verify (SWIM, the paper's
/// reference [5]), which shrinks the variation penalty.
const ABLATIONS: [(&str, OptimizerSpec, u32, bool); 9] = [
    ("lcda/pretrained @20", ExpertLlm, LCDA_EPISODES, false),
    ("lcda/fine-tuned @20", FinetunedLlm, LCDA_EPISODES, false),
    ("lcda/adaptive @20", AdaptiveLlm, LCDA_EPISODES, false),
    ("lcda/naive @20", NaiveLlm, LCDA_EPISODES, false),
    ("nacim-rl @20", Rl, LCDA_EPISODES, false),
    ("nacim-rl @500", Rl, NACIM_EPISODES, false),
    ("genetic @500", Genetic, NACIM_EPISODES, false),
    ("random @500", Random, NACIM_EPISODES, false),
    (
        "lcda/pretrained @20 + write-verify",
        ExpertLlm,
        LCDA_EPISODES,
        true,
    ),
];

/// Runs one search. Every search of every experiment goes through here.
fn search(
    space: DesignSpace,
    spec: OptimizerSpec,
    objective: Objective,
    episodes: u32,
    seed: u64,
) -> Outcome {
    let config = CoDesignConfig::builder(objective)
        .episodes(episodes)
        .seed(seed)
        .build();
    CoDesign::builder(space, config)
        .optimizer(spec)
        .build()
        .expect("valid config")
        .run()
        .expect("run completes")
}

/// The §IV-A speedup: episodes NACIM needs to come within [`TOLERANCE`]
/// of LCDA's best, as a multiple of the episodes LCDA needed.
pub fn speedup(lcda: &Outcome, nacim: &Outcome) -> SpeedupReport {
    analysis::speedup(
        &RewardCurve::from_outcome(lcda),
        &RewardCurve::from_outcome(nacim),
        TOLERANCE,
    )
}

fn searches(table: &[Search], seed: u64) -> Data {
    let outcomes = table
        .iter()
        .map(|(spec, objective, episodes)| {
            let space = DesignSpace::nacim_cifar10();
            search(space, spec.clone(), *objective, *episodes, seed)
        })
        .collect();
    Data {
        outcomes,
        ..Data::default()
    }
}

/// What one experiment measured at one seed. Each experiment fills the
/// field it measures and leaves the others empty.
#[derive(Debug, Clone, Default)]
pub struct Data {
    /// One outcome per search, in the order of the experiment's searches.
    pub outcomes: Vec<Outcome>,
    /// KERNEL-UTIL's table.
    pub kernel_util: Vec<KernelUtilRow>,
    /// ABL's table.
    pub ablation: Vec<AblationRow>,
    /// TECH's table.
    pub tech: Vec<TechSweepRow>,
    /// RETENTION's table.
    pub retention: Vec<RetentionRow>,
}

/// An experiment's data at each seed it ran, in seed order.
pub type Runs = [(u64, Data)];

/// One row of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// The id of its EXPERIMENTS.md section.
    pub id: &'static str,
    /// Its binary, which prints `artifacts/<bin>.txt` at [`Self::seeds`].
    pub bin: &'static str,
    /// The seeds its binary prints unless `argv[1]` names one.
    pub seeds: &'static [u64],
    /// Runs the experiment at one seed.
    pub run: fn(u64) -> Data,
    /// Renders the experiment's runs as its binary prints them.
    pub render: fn(&Runs) -> String,
}

impl Experiment {
    /// Runs the experiment at each seed, in order.
    pub fn run_at(&self, seeds: &[u64]) -> Vec<(u64, Data)> {
        seeds.iter().map(|&seed| (seed, (self.run)(seed))).collect()
    }
}

/// One table row; braces keep each row on one line.
macro_rules! row {
    ($id:literal, $bin:literal, $seeds:expr, $run:expr, $render:expr) => {
        Experiment {
            id: $id,
            bin: $bin,
            seeds: $seeds,
            run: $run,
            render: $render,
        }
    };
}

/// Every experiment, in EXPERIMENTS.md order: id, binary, recorded
/// seeds, runner and renderer.
pub static EXPERIMENTS: [Experiment; 9] = [
    row! {"FIG2", "fig2", &[1], |s| searches(&ENERGY_PAIR, s), render::fig2},
    row! {"FIG3", "fig3", &[1], |s| searches(&ENERGY_PAIR, s), render::fig3},
    row! {"SPEEDUP", "speedup", &SPEEDUP_SEEDS, |s| searches(&ENERGY_PAIR, s), render::speedup},
    row! {"FIG4", "fig4", &[1], |s| searches(&FIG4_SEARCHES, s), render::fig4},
    row! {"KERNEL-UTIL", "kernel_util", &[0], kernel_utilization, render::kernel_util},
    row! {"FIG5", "fig5", &[1], |s| searches(&FIG5_SEARCHES, s), render::fig5},
    row! {"ABL", "ablations", &[1], ablation_suite, render::ablations},
    row! {"TECH", "tech_sweep", &[0], tech_sweep, render::tech_sweep},
    row! {"RETENTION", "retention", &[7], retention_study, render::retention},
];

/// The experiment with this id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// One row of the §IV-B kernel-utilization mechanism table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelUtilRow {
    /// Kernel size.
    pub kernel: u32,
    /// Input channels of the probed layer.
    pub c_in: u32,
    /// Crossbar rows the layer occupies.
    pub rows_needed: u32,
    /// Row groups after tiling onto 128-row arrays.
    pub row_groups: u32,
    /// Cell utilization of the allocated arrays.
    pub utilization: f64,
    /// Whole-layer latency, ns.
    pub latency_ns: f64,
    /// Whole-layer energy, pJ.
    pub energy_pj: f64,
    /// Monte-Carlo accuracy cost of this kernel at reference channels
    /// (surrogate penalty, RRAM corner).
    pub variation_penalty: f64,
}

/// KERNEL-UTIL — the mechanism behind Fig. 4's failure: crossbar
/// utilization is a *non-monotone* function of kernel size (it depends on
/// how `k²·c_in` packs into physical rows), and the accuracy cost of
/// device variation *grows* with kernel size. Both facts contradict the
/// pretrained model's general-hardware intuitions. `seed` seeds the
/// surrogate that scores the penalty.
fn kernel_utilization(seed: u64) -> Data {
    let space = DesignSpace::nacim_cifar10();
    let chip_cfg = CimBackend::new(space.clone())
        .chip_config(&space.reference_design())
        .expect("reference converts");
    let chip = Chip::new(chip_cfg).expect("valid chip");
    let surrogate = SurrogateEvaluator::new(space.clone(), seed);
    let mut data = Data::default();
    for &c_in in &[16u32, 24, 64] {
        for &kernel in &[1u32, 3, 5, 7] {
            let layer =
                LayerWorkload::conv(c_in, 16, 16, 64, kernel, 1, kernel / 2).expect("valid layer");
            let mapping = LayerMapping::map(&layer, &chip.config().xbar, Precision::int8())
                .expect("mappable");
            let report = chip.evaluate(&[layer]).expect("evaluates");
            let mut d = space.reference_design();
            for conv in &mut d.conv {
                conv.kernel = kernel;
            }
            let penalty = surrogate.variation_penalty(&d).expect("in space");
            data.kernel_util.push(KernelUtilRow {
                kernel,
                c_in,
                rows_needed: mapping.rows_needed,
                row_groups: mapping.row_groups,
                utilization: mapping.utilization,
                latency_ns: report.latency_ns,
                energy_pj: report.energy_pj,
                variation_penalty: penalty,
            });
        }
    }
    data
}

/// One ablation result row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration under test.
    pub name: String,
    /// Best reward achieved.
    pub best_reward: f64,
    /// Mean reward across episodes.
    pub mean_reward: f64,
    /// Episode budget used.
    pub episodes: u32,
}

/// ABL — the repository's own ablation sweep over DESIGN.md's design
/// choices: every optimizer at matched budgets, the three LLM personas,
/// write-verify programming, and noise-injection training on/off.
fn ablation_suite(seed: u64) -> Data {
    let space = DesignSpace::nacim_cifar10();
    let mut data = Data::default();
    for (name, spec, episodes, write_verify) in &ABLATIONS {
        let mut space = space.clone();
        if *write_verify {
            space = space.with_write_verify(WriteVerifyConfig::standard());
        }
        let outcome = search(space, spec.clone(), ENERGY, *episodes, seed);
        data.ablation.push(AblationRow {
            name: name.to_string(),
            best_reward: outcome.best.reward,
            mean_reward: outcome.history.iter().map(|r| r.reward).sum::<f64>()
                / outcome.history.len() as f64,
            episodes: outcome.history.len() as u32,
        });
    }

    // Noise-injection ablation: accuracy of the reference design with and
    // without the paper's §III-C training method.
    let reference = space.reference_design();
    let with_ni = SurrogateEvaluator::new(space.clone(), seed);
    let without_ni = SurrogateEvaluator::new(space, seed).without_noise_injection();
    for (state, mut evaluator) in [("ON", with_ni), ("OFF", without_ni)] {
        let accuracy = evaluator.accuracy(&reference).expect("in space");
        data.ablation.push(AblationRow {
            name: format!("reference acc, noise-injection {state}"),
            best_reward: accuracy,
            mean_reward: accuracy,
            episodes: 0,
        });
    }
    data
}

/// One row of the device-technology sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TechSweepRow {
    /// Technology name.
    pub tech: String,
    /// Reference-network energy, pJ.
    pub energy_pj: f64,
    /// Sequential single-image latency, ns.
    pub latency_ns: f64,
    /// Pipelined (steady-state) latency, ns.
    pub pipelined_latency_ns: f64,
    /// Chip area, mm².
    pub area_mm2: f64,
    /// Leakage, µW.
    pub leakage_uw: f64,
    /// Surrogate Monte-Carlo accuracy of the reference design on this
    /// technology's variation corner.
    pub accuracy: f64,
    /// Share of dynamic energy burned in the ADCs.
    pub adc_energy_share: f64,
}

/// TECH — sweep the reference design across every supported memory
/// technology (RRAM / FeFET / PCM / STT-MRAM / SRAM): the CiM-vs-SRAM
/// story plus the accuracy cost of each technology's variation corner.
/// `seed` seeds the surrogate that scores accuracy.
fn tech_sweep(seed: u64) -> Data {
    use lcda_neurosim::chip::LatencyMode;
    use lcda_neurosim::device::DeviceTech;

    // A space whose tech menu covers every technology, so the surrogate
    // can score each corner.
    let mut space = DesignSpace::nacim_cifar10();
    space.choices.tech_options = DeviceTech::ALL
        .iter()
        .map(|t| t.name().to_string())
        .collect();
    let mut surrogate = SurrogateEvaluator::new(space.clone(), seed);

    let mut data = Data::default();
    for tech in DeviceTech::ALL {
        let mut design = space.reference_design();
        design.hw.tech = tech.name().to_string();
        // STT-MRAM and SRAM store a single bit per cell.
        if tech.params().max_cell_bits < design.hw.cell_bits {
            design.hw.cell_bits = tech.params().max_cell_bits;
        }
        // Keep the cell choice inside the space's options.
        if !space.choices.cell_options.contains(&design.hw.cell_bits) {
            space.choices.cell_options.push(design.hw.cell_bits);
            surrogate = SurrogateEvaluator::new(space.clone(), seed);
        }

        let cim = CimBackend::new(space.clone());
        let mut cfg = cim.chip_config(&design).expect("valid tech");
        let seq = Chip::new(cfg).expect("valid chip");
        cfg.latency_mode = LatencyMode::Pipelined;
        let pipe = Chip::new(cfg).expect("valid chip");
        let layers = cim.lower(&design).expect("reference converts");
        let rs = seq.evaluate(&layers).expect("evaluates");
        let rp = pipe.evaluate(&layers).expect("evaluates");
        let accuracy = surrogate.accuracy(&design).expect("in space");
        data.tech.push(TechSweepRow {
            tech: tech.name().to_string(),
            energy_pj: rs.energy_pj,
            latency_ns: rs.latency_ns,
            pipelined_latency_ns: rp.latency_ns,
            area_mm2: rs.area_mm2,
            leakage_uw: rs.leakage_uw,
            accuracy,
            adc_energy_share: rs.energy_breakdown.adc_pj / rs.energy_pj,
        });
    }
    data
}

/// One row of the retention study: Monte-Carlo accuracy of a trained
/// network read at increasing times after programming.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionRow {
    /// Drift corner name.
    pub corner: String,
    /// Time since programming, seconds.
    pub elapsed_seconds: f64,
    /// Mean Monte-Carlo accuracy.
    pub accuracy: f64,
}

/// RETENTION — conductance drift over time: trains one small network and
/// reads it back at increasing ages under RRAM-like and PCM-like drift
/// corners. Uses the *real* training/evaluation path (not the surrogate).
/// `seed` seeds the Monte-Carlo chip instances; the training set and the
/// network stay fixed.
fn retention_study(seed: u64) -> Data {
    use lcda_dnn::arch::Architecture;
    use lcda_dnn::dataset::SynthCifar;
    use lcda_dnn::mc_eval::{mc_accuracy, McEvalConfig};
    use lcda_dnn::trainer::{TrainConfig, Trainer};
    use lcda_variation::{RetentionConfig, VariationConfig};

    let images = SynthCifar::generate_classes(96, 8, 4, 77).expect("valid dataset");
    let net = Architecture::tiny_test().build(77).expect("valid arch");
    let mut cfg = TrainConfig::fast_test();
    cfg.epochs = 10;
    let mut trainer = Trainer::new(net, cfg);
    trainer.fit(&images).expect("training succeeds");
    let mut net = trainer.into_network();

    let corners = [
        ("rram-drift", RetentionConfig::rram_like()),
        ("pcm-drift", RetentionConfig::pcm_like()),
    ];
    // Fresh, one hour, one day, 30 days and one year.
    let times = [0.0, 1.0, 24.0, 720.0, 8760.0].map(|hours| hours * 3600.0);
    let mut data = Data::default();
    for (name, retention) in corners {
        let variation = VariationConfig::rram_moderate().with_retention(retention);
        for &t in &times {
            let stats = mc_accuracy(
                &mut net,
                &images,
                &McEvalConfig {
                    trials: 6,
                    variation: variation.clone(),
                    seed,
                    elapsed_seconds: t,
                    threads: 1,
                    ..Default::default()
                },
            )
            .expect("evaluation succeeds");
            data.retention.push(RetentionRow {
                corner: name.to_string(),
                elapsed_seconds: t,
                accuracy: f64::from(stats.mean),
            });
        }
    }
    data
}
