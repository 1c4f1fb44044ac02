//! Regenerates Fig. 5: the knowledge ablation — LCDA vs LCDA-naive
//! (prompts without the co-design framing), reward Eq. 1.

fn main() {
    lcda_bench::print("FIG5");
}
