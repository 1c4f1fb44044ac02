//! Sweeps the reference design across every supported memory technology:
//! the CiM-vs-SRAM trade (density and leakage vs variation-free
//! accuracy), the ADC energy dominance, and the pipelined-vs-sequential
//! latency gap.

fn main() {
    lcda_bench::print("TECH");
}
