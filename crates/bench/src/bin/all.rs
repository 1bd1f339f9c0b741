//! Runs every experiment binary in sequence (tables, figures, ablations).
//!
//! `cargo run -p dnnperf-bench --release --bin all`

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "ablation_driver",
    "ablation_cluster",
    "ablation_igkw",
    "ablation_bs",
    "ext_training",
    "ext_mig",
    "ext_overhead",
    "ext_zoo",
    "ext_fusion",
    "stats",
];

fn main() {
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe dir");
    // Forward engine flags (--threads, --retries, --fault-rate,
    // --fault-seed) to every experiment.
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        println!();
        let status = Command::new(dir.join(exp))
            .args(&forwarded)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e} (build all bins first)"));
        if !status.success() {
            eprintln!("[all] {exp} FAILED with {status}");
            failed.push(*exp);
        }
    }
    println!();
    if failed.is_empty() {
        println!(
            "[all] {} experiments completed successfully",
            EXPERIMENTS.len()
        );
    } else {
        eprintln!("[all] failures: {failed:?}");
        std::process::exit(1);
    }
}
