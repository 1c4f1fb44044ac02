//! Regenerates Fig. 3: rewards per episode; panel (a) episodes 1–20,
//! panel (b) episodes 21–500 with LCDA projected at its 20-episode max.

fn main() {
    lcda_bench::print("FIG3");
}
