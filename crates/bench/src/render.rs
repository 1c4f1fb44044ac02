//! Plain-text renderers: one per experiment, each printing exactly what
//! its binary prints, built on scatter tables, ASCII trade-off plots and
//! the speedup table.

use crate::experiments::{self, Data, Runs, LCDA_EPISODES, NACIM_EPISODES, TOLERANCE};
use lcda_core::analysis::{RewardCurve, SpeedupReport};
use lcda_core::{Objective, Outcome};
use std::fmt::Write as _;

/// Two scatter series plus their best rewards — the payload of Figs. 2,
/// 4 and 5.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterData {
    /// Label of the first series (LCDA variant).
    pub lcda_name: String,
    /// `(accuracy, cost)` points of the LCDA run.
    pub lcda: Vec<(f64, f64)>,
    /// Best reward of the LCDA run.
    pub lcda_best: f64,
    /// Label of the comparison series.
    pub baseline_name: String,
    /// `(accuracy, cost)` points of the comparison run.
    pub baseline: Vec<(f64, f64)>,
    /// Best reward of the comparison run.
    pub baseline_best: f64,
}

impl ScatterData {
    /// The first two searches of `data`, plotted on `objective`'s axes.
    pub fn new(data: &Data, objective: Objective, baseline_name: &str) -> Self {
        let points = |o: &Outcome| match objective {
            Objective::AccuracyEnergy => o.accuracy_energy_points(),
            Objective::AccuracyLatency => o.accuracy_latency_points(),
        };
        let (lcda, baseline) = (&data.outcomes[0], &data.outcomes[1]);
        ScatterData {
            lcda_name: "LCDA".into(),
            lcda: points(lcda),
            lcda_best: lcda.best.reward,
            baseline_name: baseline_name.into(),
            baseline: points(baseline),
            baseline_best: baseline.best.reward,
        }
    }
}

/// Renders each seed's data in turn.
fn each(runs: &Runs, view: impl Fn(u64, &Data) -> String) -> String {
    runs.iter().map(|(seed, data)| view(*seed, data)).collect()
}

/// Renders a two-series scatter as a table plus a coarse ASCII plot.
pub fn scatter(data: &ScatterData, cost_label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({} pts, best {:+.3})   vs   {} ({} pts, best {:+.3})",
        data.lcda_name,
        data.lcda.len(),
        data.lcda_best,
        data.baseline_name,
        data.baseline.len(),
        data.baseline_best
    );
    let _ = writeln!(out, "\n{:>10}  {:>14}  series", "accuracy", cost_label);
    let mut all: Vec<(f64, f64, &str)> = data
        .lcda
        .iter()
        .map(|&(a, c)| (a, c, data.lcda_name.as_str()))
        .chain(
            data.baseline
                .iter()
                .map(|&(a, c)| (a, c, data.baseline_name.as_str())),
        )
        .collect();
    all.sort_by(|x, y| x.1.total_cmp(&y.1));
    for (a, c, s) in &all {
        let _ = writeln!(out, "{a:>10.3}  {c:>14.4e}  {s}");
    }
    out.push('\n');
    out.push_str(&ascii_plot(data));
    out
}

/// A coarse ASCII scatter plot (accuracy up, cost right); `■` = LCDA
/// series, `·` = baseline, `◆` = both in the same cell.
pub fn ascii_plot(data: &ScatterData) -> String {
    const W: usize = 64;
    const H: usize = 16;
    let all_costs: Vec<f64> = data
        .lcda
        .iter()
        .chain(&data.baseline)
        .map(|p| p.1)
        .collect();
    let all_accs: Vec<f64> = data
        .lcda
        .iter()
        .chain(&data.baseline)
        .map(|p| p.0)
        .collect();
    if all_costs.is_empty() {
        return "(no valid designs to plot)\n".to_string();
    }
    let (cmin, cmax) = bounds(&all_costs);
    let (amin, amax) = bounds(&all_accs);
    let mut grid = vec![vec![' '; W]; H];
    let mut place = |pts: &[(f64, f64)], mark: char| {
        for &(a, c) in pts {
            let x = norm(c, cmin, cmax) * (W - 1) as f64;
            let y = (1.0 - norm(a, amin, amax)) * (H - 1) as f64;
            let cell = &mut grid[y as usize][x as usize];
            *cell = match (*cell, mark) {
                (' ', m) => m,
                (existing, m) if existing == m => m,
                _ => '◆',
            };
        }
    };
    place(&data.baseline, '·');
    place(&data.lcda, '■');
    let mut out = String::new();
    let _ = writeln!(
        out,
        "accuracy {amax:.2} ┐  (■ {}, · {})",
        data.lcda_name, data.baseline_name
    );
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "             │{line}");
    }
    let _ = writeln!(out, "    {amin:.2} └{}", "─".repeat(W));
    let _ = writeln!(
        out,
        "               {cmin:.2e} → {cmax:.2e} (lower cost = left = better)"
    );
    out
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-12 {
        (lo - 1.0, hi + 1.0)
    } else {
        (lo, hi)
    }
}

fn norm(x: f64, lo: f64, hi: f64) -> f64 {
    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
}

/// FIG2: the accuracy-energy scatter.
pub fn fig2(runs: &Runs) -> String {
    each(runs, |seed, data| {
        let d = ScatterData::new(data, Objective::AccuracyEnergy, "NACIM");
        format!(
            "FIG 2 — accuracy vs energy (seed {seed})\n\n{}\npaper shape check: comparable best \
             rewards (LCDA {:+.3} vs NACIM {:+.3}), LCDA keeps high accuracy across the energy \
             spectrum.\n",
            scatter(&d, "energy(pJ)"),
            d.lcda_best,
            d.baseline_best
        )
    })
}

/// FIG3: the two reward-vs-episode panels and the speedup they show.
pub fn fig3(runs: &Runs) -> String {
    each(runs, |seed, data| {
        let (lcda, nacim) = (&data.outcomes[0], &data.outcomes[1]);
        let mut out = format!("FIG 3 — reward vs episode (seed {seed})\n\n");
        panels(&mut out, lcda, nacim);
        let rep = experiments::speedup(lcda, nacim);
        let _ = match rep.baseline_episodes {
            Some(n) => writeln!(
                out,
                "\nNACIM reaches LCDA's {LCDA_EPISODES}-episode quality at episode {n} → ~{:.0}x \
                 speedup (paper: 25x).",
                rep.speedup_lower_bound
            ),
            None => writeln!(
                out,
                "\nNACIM never reaches LCDA's {LCDA_EPISODES}-episode quality in {NACIM_EPISODES} \
                 episodes (≥{:.0}x speedup; paper: 25x).",
                rep.speedup_lower_bound
            ),
        };
        out
    })
}

/// Writes the two Fig. 3 panels: (a) per-episode rewards of episodes
/// 1–20; (b) the running best after that, with LCDA projected at its
/// 20-episode maximum exactly as the paper does.
fn panels(out: &mut String, lcda: &Outcome, nacim: &Outcome) {
    let (lcda, nacim) = (
        RewardCurve::from_outcome(lcda),
        RewardCurve::from_outcome(nacim),
    );
    let head = LCDA_EPISODES as usize;
    let total = nacim.rewards.len();
    let _ = writeln!(out, "panel (a) — episodes 1–{head}, per-episode reward:");
    let _ = writeln!(out, "{:>7}  {:>10}  {:>10}", "episode", "LCDA", "NACIM");
    let nacim_head = &nacim.rewards[..head.min(total)];
    for (i, (l, n)) in lcda.rewards.iter().zip(nacim_head).enumerate() {
        let _ = writeln!(out, "{:>7}  {l:>+10.3}  {n:>+10.3}", i + 1);
    }
    let lb = &lcda.project_to(total)[head.min(total)..];
    let nb = &nacim.best_so_far[head.min(total)..];
    let _ = writeln!(
        out,
        "\npanel (b) — episodes {}–{}, running best (LCDA projected at its {head}-episode max):",
        head + 1,
        head + nb.len()
    );
    let _ = writeln!(out, "{:>7}  {:>10}  {:>10}", "episode", "LCDA", "NACIM");
    for (i, (l, n)) in lb.iter().zip(nb).enumerate() {
        if (i + 1) % 40 == 0 || i == 0 || i + 1 == nb.len() {
            let _ = writeln!(out, "{:>7}  {l:>+10.3}  {n:>+10.3}", head + 1 + i);
        }
    }
}

/// SPEEDUP: one table row per seed, then the geometric mean.
pub fn speedup(runs: &Runs) -> String {
    let reports: Vec<(u64, SpeedupReport)> = runs
        .iter()
        .map(|(seed, data)| {
            let report = experiments::speedup(&data.outcomes[0], &data.outcomes[1]);
            (*seed, report)
        })
        .collect();
    let mut out = format!(
        "SPEEDUP — episodes each method needs to reach the target, LCDA's \
         {LCDA_EPISODES}-episode best minus {TOLERANCE}\n\n"
    );
    let _ = writeln!(
        out,
        "{:>6}  {:>10}  {:>14}  {:>16}  {:>9}",
        "seed", "target", "LCDA to target", "NACIM to target", "speedup"
    );
    for (seed, r) in &reports {
        let baseline = match r.baseline_episodes {
            Some(n) => format!("{n}"),
            None => format!(">{NACIM_EPISODES}"),
        };
        let _ = writeln!(
            out,
            "{:>6}  {:>+10.3}  {:>14}  {:>16}  {:>8.1}x",
            seed, r.target, r.fast_episodes, baseline, r.speedup_lower_bound
        );
    }
    let gm = geometric_mean(reports.iter().map(|(_, r)| r.speedup_lower_bound));
    let _ = writeln!(
        out,
        "\ngeometric-mean speedup: {gm:.1}x  (paper reports 25x)"
    );
    out
}

/// FIG4: the accuracy-latency scatter.
pub fn fig4(runs: &Runs) -> String {
    each(runs, |seed, data| {
        let d = ScatterData::new(data, Objective::AccuracyLatency, "NACIM");
        let min = |pts: &[(f64, f64)]| pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        format!(
            "FIG 4 — accuracy vs latency (seed {seed})\n\n{}\npaper shape check: LCDA struggles \
             to deliver low latency (min {:.0} ns) while NACIM reaches {:.0} ns; LCDA's candidates \
             keep the accuracy edge.\n",
            scatter(&d, "latency(ns)"),
            min(&d.lcda),
            min(&d.baseline)
        )
    })
}

/// FIG5: LCDA vs LCDA-naive.
pub fn fig5(runs: &Runs) -> String {
    each(runs, |seed, data| {
        let d = ScatterData::new(data, Objective::AccuracyEnergy, "LCDA-naive");
        format!(
            "FIG 5 — LCDA vs LCDA-naive, accuracy vs energy (seed {seed})\n\n{}\npaper shape \
             check: without co-design framing the naive run fails to find efficient designs (best \
             {:+.3} vs LCDA's {:+.3}).\n",
            scatter(&d, "energy(pJ)"),
            d.baseline_best,
            d.lcda_best
        )
    })
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// KERNEL-UTIL: the §IV-B mechanism table.
pub fn kernel_util(runs: &Runs) -> String {
    each(runs, |_, data| {
        let mut out =
            "KERNEL-UTIL — §IV-B mechanism (128x128 arrays, 2-bit cells, int8)\n\n".to_string();
        let _ = writeln!(
            out,
            "{:>5} {:>5} {:>6} {:>7} {:>6} {:>12} {:>12} {:>9}",
            "c_in", "k", "rows", "groups", "util", "latency(ns)", "energy(pJ)", "var-pen"
        );
        for r in &data.kernel_util {
            let _ = writeln!(
                out,
                "{:>5} {:>5} {:>6} {:>7} {:>5.1}% {:>12.0} {:>12.3e} {:>9.4}",
                r.c_in,
                r.kernel,
                r.rows_needed,
                r.row_groups,
                r.utilization * 100.0,
                r.latency_ns,
                r.energy_pj,
                r.variation_penalty
            );
        }
        out.push_str(
            "\nutilization is non-monotone in k (depends on how k²·c_in packs into 128-row \
             arrays) and the variation penalty grows with k — so neither \"smaller kernels \
             are faster\" nor \"larger kernels are more accurate\" survives on CiM hardware.\n",
        );
        out
    })
}

/// ABL: the ablation table.
pub fn ablations(runs: &Runs) -> String {
    each(runs, |seed, data| {
        let mut out = format!("ABLATIONS (seed {seed}, objective accuracy-energy)\n\n");
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10} {:>9}",
            "configuration", "best", "mean", "episodes"
        );
        for r in &data.ablation {
            let _ = writeln!(
                out,
                "{:<38} {:>+10.3} {:>+10.3} {:>9}",
                r.name, r.best_reward, r.mean_reward, r.episodes
            );
        }
        out
    })
}

/// TECH: the reference network on each memory technology.
pub fn tech_sweep(runs: &Runs) -> String {
    each(runs, |_, data| {
        let mut out =
            "TECH SWEEP — ISAAC reference network on each memory technology\n\n".to_string();
        let _ = writeln!(
            out,
            "{:<9} {:>12} {:>12} {:>12} {:>9} {:>10} {:>9} {:>8}",
            "tech", "energy(pJ)", "lat(ns)", "pipe(ns)", "area", "leak(uW)", "acc", "adc%"
        );
        for r in &data.tech {
            let _ = writeln!(
                out,
                "{:<9} {:>12.3e} {:>12.0} {:>12.0} {:>9.2} {:>10.1} {:>9.3} {:>7.1}%",
                r.tech,
                r.energy_pj,
                r.latency_ns,
                r.pipelined_latency_ns,
                r.area_mm2,
                r.leakage_uw,
                r.accuracy,
                r.adc_energy_share * 100.0
            );
        }
        out.push_str(
            "\nNVM crossbars win on density and leakage; SRAM wins on accuracy (no analog \
             variation) at 6-7x the energy. On the NVM technologies the ADCs dominate \
             dynamic energy — the lever the low-energy designs in Fig. 2 pull.\n",
        );
        out
    })
}

/// RETENTION: Monte-Carlo accuracy vs time since programming.
pub fn retention(runs: &Runs) -> String {
    each(runs, |_, data| {
        let mut out = "RETENTION — MC accuracy vs time since programming\n\n".to_string();
        let _ = writeln!(out, "{:<12} {:>8} {:>10}", "corner", "age", "accuracy");
        for r in &data.retention {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>10.3}",
                r.corner,
                human_time(r.elapsed_seconds),
                r.accuracy
            );
        }
        out.push_str(
            "\nPower-law conductance drift (g ∝ t^-ν) erodes accuracy over months; \
             the PCM-like corner (ν=0.05) decays faster than the RRAM-like one \
             (ν=0.01) — the refresh-scheduling trade CiM deployments manage.\n",
        );
        out
    })
}

fn human_time(secs: f64) -> String {
    if secs == 0.0 {
        "fresh".to_string()
    } else if secs < 86400.0 {
        format!("{:.0}h", secs / 3600.0)
    } else if secs < 86400.0 * 32.0 {
        format!("{:.0}d", secs / 86400.0)
    } else {
        format!("{:.0}mo", secs / (86400.0 * 30.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScatterData {
        ScatterData {
            lcda_name: "LCDA".into(),
            lcda: vec![(0.8, 1e7), (0.7, 5e6)],
            lcda_best: 0.5,
            baseline_name: "NACIM".into(),
            baseline: vec![(0.6, 2e6), (0.5, 1e6)],
            baseline_best: 0.4,
        }
    }

    #[test]
    fn scatter_renders_all_points() {
        let s = scatter(&sample(), "energy(pJ)");
        assert!(s.matches("LCDA").count() >= 3);
        assert!(s.contains("0.800"));
        assert!(s.contains("NACIM"));
    }

    #[test]
    fn ascii_plot_handles_empty() {
        let mut d = sample();
        d.lcda.clear();
        d.baseline.clear();
        assert!(ascii_plot(&d).contains("no valid designs"));
    }

    #[test]
    fn ascii_plot_has_marks() {
        let p = ascii_plot(&sample());
        assert!(p.contains('■'));
        assert!(p.contains('·'));
    }

    #[test]
    fn geometric_mean_basics() {
        let gm = geometric_mean([4.0, 16.0].into_iter());
        assert!((gm - 8.0).abs() < 1e-9);
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
    }
}
