//! Regenerates the §IV-A headline: episodes-to-comparable-quality speedup
//! of LCDA over NACIM, across seeds.

fn main() {
    lcda_bench::print("SPEEDUP");
}
