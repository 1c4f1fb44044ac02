//! Regenerates Fig. 2: accuracy-energy trade-offs, LCDA (20 episodes,
//! blue/■) vs NACIM RL (500 episodes, orange/·), reward Eq. 1.

fn main() {
    lcda_bench::print("FIG2");
}
