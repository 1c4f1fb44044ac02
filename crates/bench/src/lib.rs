//! # lcda-bench
//!
//! The experiment harness that regenerates every figure of the LCDA paper
//! plus the repository's own studies. [`experiments::EXPERIMENTS`] holds
//! one row per EXPERIMENTS.md section with a binary; each row runs at a
//! seed and renders what its binary prints (`cargo run -p lcda-bench
//! --bin <bin> [seed]`). [`claims::CLAIMS`] holds every shape check made
//! on that data. The benchmark in `perf/` times the same searches.
//!
//! | id | binary | artifact |
//! |----|--------|----------|
//! | FIG2 | `fig2` | accuracy-energy scatter, LCDA vs NACIM |
//! | FIG3 | `fig3` | reward-vs-episode curves (a: 1–20, b: 21–500) |
//! | SPEEDUP | `speedup` | the 25× episodes-to-quality headline |
//! | FIG4 | `fig4` | accuracy-latency scatter, LCDA falls short |
//! | KERNEL-UTIL | `kernel_util` | §IV-B crossbar-utilization mechanism |
//! | FIG5 | `fig5` | LCDA vs LCDA-naive ablation |
//! | ABL | `ablations` | repo ablations (optimizers, personas, write-verify, noise injection) |
//! | TECH | `tech_sweep` | the reference design on every memory technology |
//! | RETENTION | `retention` | accuracy vs time under conductance drift |

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod claims;
pub mod experiments;
pub mod render;

/// Prints one experiment the way its binary does: at its recorded seeds,
/// or at the seed `argv[1]` names.
///
/// # Panics
///
/// When `id` names no experiment.
pub fn print(id: &str) {
    let experiment =
        experiments::experiment(id).unwrap_or_else(|| panic!("no experiment named {id}"));
    let seeds = match std::env::args().nth(1).and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => experiment.seeds.to_vec(),
    };
    print!("{}", (experiment.render)(&experiment.run_at(&seeds)));
}
