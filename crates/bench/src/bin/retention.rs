//! Conductance retention over time: a trained network read back at
//! increasing ages under RRAM-like and PCM-like drift corners (real
//! training + Monte-Carlo path, tiny model).

fn main() {
    lcda_bench::print("RETENTION");
}
