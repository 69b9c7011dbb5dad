//! Runs the design-choice ablations of [`oisa_bench::ablation`].

use oisa_bench::ablation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Design ablations ===\n");
    for f in ablation::run_all()? {
        println!("axis        : {}", f.axis);
        println!("  chosen    : {} -> {:.4}", f.chosen, f.values.0);
        println!("  alternative: {} -> {:.4}", f.alternative, f.values.1);
        println!("  metric    : {}\n", f.metric);
    }
    Ok(())
}
