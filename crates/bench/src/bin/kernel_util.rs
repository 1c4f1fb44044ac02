//! Regenerates the §IV-B mechanism table: crossbar utilization, latency,
//! energy and variation penalty as functions of kernel size — the facts
//! GPT-4's general-hardware intuition gets wrong.

fn main() {
    lcda_bench::print("KERNEL-UTIL");
}
