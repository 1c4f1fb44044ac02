//! Runs the repository's ablation sweep: all optimizers at matched
//! budgets, the three LLM personas, and noise-injection training on/off.

fn main() {
    lcda_bench::print("ABL");
}
