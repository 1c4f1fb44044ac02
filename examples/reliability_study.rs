//! Reliability engineering on the real training/evaluation path: measure
//! what noise-injection training (§III-C) and write-verify programming
//! (SWIM, the paper's reference \[5\]) each do to Monte-Carlo accuracy
//! under a severe RRAM corner, then how retention drift erodes the
//! result. The network is the paper's plain backbone at toy scale (96
//! samples, 8×8 images, accuracy measured on the training set), so the
//! numbers show direction, not deployment-grade magnitudes.
//!
//! ```sh
//! cargo run --release --example reliability_study
//! ```

use lcda::dnn::arch::Architecture;
use lcda::dnn::dataset::SynthCifar;
use lcda::dnn::mc_eval::{mc_accuracy, McEvalConfig};
use lcda::dnn::network::Network;
use lcda::dnn::trainer::{TrainConfig, Trainer};
use lcda::variation::{RetentionConfig, VariationConfig, WriteVerifyConfig};

fn train(
    data: &SynthCifar,
    noise_injection: Option<VariationConfig>,
) -> Result<Network, Box<dyn std::error::Error>> {
    let net = Architecture::tiny_test().build(99)?;
    let mut cfg = TrainConfig::fast_test();
    cfg.epochs = 12;
    if let Some(corner) = noise_injection {
        cfg = cfg.with_noise_injection(corner);
    }
    let mut trainer = Trainer::new(net, cfg);
    trainer.fit(data)?;
    Ok(trainer.into_network())
}

fn mc(
    net: &mut Network,
    data: &SynthCifar,
    variation: VariationConfig,
    elapsed_seconds: f64,
) -> Result<f64, Box<dyn std::error::Error>> {
    Ok(f64::from(
        mc_accuracy(
            net,
            data,
            &McEvalConfig {
                trials: 8,
                variation,
                seed: 13,
                elapsed_seconds,
                threads: 1,
                ..Default::default()
            },
        )?
        .mean,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SynthCifar::generate_classes(96, 8, 4, 61)?;
    let corner = VariationConfig::rram_severe();

    println!("training the same tiny network twice (severe RRAM corner)…\n");
    let mut plain = train(&data, None)?;
    let mut ni = train(&data, Some(corner.clone()))?;

    let wv = corner
        .clone()
        .with_write_verify(WriteVerifyConfig::standard());
    let plain_acc = mc(&mut plain, &data, corner.clone(), 0.0)?;
    let ni_acc = mc(&mut ni, &data, corner.clone(), 0.0)?;
    let wv_acc = mc(&mut ni, &data, wv.clone(), 0.0)?;
    println!("{:<46} {:>9}", "configuration", "mc-acc");
    println!("{:<46} {plain_acc:>9.3}", "plain training");
    println!(
        "{:<46} {ni_acc:>9.3}",
        "+ noise-injection training (§III-C)"
    );
    println!(
        "{:<46} {wv_acc:>9.3}",
        "+ noise injection & write-verify (SWIM)"
    );

    println!("\nretention of the last row (PCM-like drift):");
    let drifting = wv.with_retention(RetentionConfig::pcm_like());
    let mut sweep = Vec::new();
    for (label, secs) in [
        ("fresh", 0.0),
        ("1 day", 86_400.0),
        ("1 month", 86_400.0 * 30.0),
        ("1 year", 86_400.0 * 365.0),
    ] {
        let acc = mc(&mut ni, &data, drifting.clone(), secs)?;
        println!("  {label:<9} {acc:>9.3}");
        sweep.push(acc);
    }
    println!(
        "\nReadings: noise-injection training moved MC accuracy by {:+.3} over \
         plain training; write-verify programming of the same network moved it \
         by {:+.3} more. Under drift the write-verified network went from \
         {:.3} fresh to {:.3} after one year.",
        ni_acc - plain_acc,
        wv_acc - ni_acc,
        sweep[0],
        sweep[sweep.len() - 1],
    );
    Ok(())
}
