//! Regenerates paper Table II: accuracy across `[weight:activation]`
//! configurations on the four dataset stand-ins.
//!
//! Pass `--quick` for a reduced run (fewer epochs; same orderings).

use oisa_bench::table2::{paper_datasets, run_dataset, AccuracyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        AccuracyConfig::quick()
    } else {
        AccuracyConfig::default()
    };
    println!("=== Table II — accuracy (%) on the four dataset stand-ins ===");
    println!(
        "(synthetic substitutes for MNIST/SVHN/CIFAR from oisa_datasets; {} epochs)\n",
        cfg.epochs
    );
    let mut results = Vec::new();
    for (spec, kind) in paper_datasets() {
        eprintln!("training on {} ...", spec.name);
        results.push(run_dataset(&spec, kind, &cfg)?);
    }
    print!("{:<14}", "config");
    for r in &results {
        print!(" {:>26}", r.dataset);
    }
    println!();
    println!("{}", "-".repeat(14 + results.len() * 27));
    let row = |name: &str, vals: Vec<f64>| {
        print!("{name:<14}");
        for v in vals {
            print!(" {:>26.2}", v * 100.0);
        }
        println!();
    };
    row("baseline", results.iter().map(|r| r.baseline).collect());
    row("FBNA-like", results.iter().map(|r| r.fbna_like).collect());
    row(
        "AppCiP-like",
        results.iter().map(|r| r.appcip_like).collect(),
    );
    row("PISA-like", results.iter().map(|r| r.pisa_like).collect());
    for (i, bits) in [4u8, 3, 2, 1].iter().enumerate() {
        row(
            &format!("OISA[{bits}:2]"),
            results.iter().map(|r| r.oisa[i].1).collect(),
        );
    }
    println!("\npaper Table II (for shape comparison):");
    println!("              MNIST   SVHN    CIFAR-10 CIFAR-100");
    println!("baseline      99.6    97.5    91.37    78.4");
    println!("FBNA          –       96.9    88.61    71.5");
    println!("AppCiP        –       96.4    89.51    –");
    println!("PISA          95.12   90.35   79.80    61.6");
    println!("OISA[4:2]     95.21   91.74   81.23    61.38");
    println!("OISA[3:2]     96.18   94.36   84.45    66.89");
    println!("OISA[2:2]     96.25   93.20   83.85    66.94");
    println!("OISA[1:2]     95.75   93.16   83.64    66.06");
    Ok(())
}
