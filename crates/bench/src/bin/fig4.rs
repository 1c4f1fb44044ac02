//! Regenerates Fig. 4: accuracy-latency trade-offs (reward Eq. 2) — the
//! experiment where LCDA falls short because of GPT-4's kernel-size
//! misconceptions on CiM hardware.

fn main() {
    lcda_bench::print("FIG4");
}
