//! Section 5.3.2: sensitivity to cache associativity — single eviction-set
//! construction time for the SF and the L2 on Skylake-SP (12-way SF, 16-way
//! L2) versus Ice Lake-SP (16-way SF, 20-way L2), quiescent local machines.
//!
//! Construction trials run through the `llc-fleet` executor
//! (`--threads`/`LLC_THREADS`); `--smoke` pins slices and trial counts.

use llc_bench::experiments::{measure_single_sets, single_set_cell, Environment};
use llc_bench::sweeps::PruningSweep;
use llc_bench::{pct, RunOpts};
use llc_cache_model::{CacheSpec, HierarchyOptions};
use llc_core::Algorithm;

fn main() {
    let opts = RunOpts::parse();
    let trials = opts.trials(2, 4);
    let slices =
        if opts.smoke { 4 } else { llc_bench::env_usize("LLC_SLICES", 8) };
    let machines = [
        ("Skylake-SP", CacheSpec::skylake_sp(slices, 4)),
        // Match the scaled slice count so only associativity differs.
        ("Ice Lake-SP", CacheSpec::ice_lake_sp_with(slices, 4)),
    ];
    let algorithms = [Algorithm::Gt, Algorithm::GtOp, Algorithm::BinS];
    // One sweep over every row: the three algorithms of a machine share its
    // pooled machines.
    let cells = machines
        .iter()
        .flat_map(|(_, spec)| {
            algorithms.map(|algo| single_set_cell(spec, Environment::QuiescentLocal, algo, true))
        })
        .collect();
    let sweep = PruningSweep::new(cells, opts.fidelity, HierarchyOptions, 0x1ce);
    let stats = measure_single_sets(&sweep, trials, 0x1ce, &opts.fleet());

    println!("Section 5.3.2 — associativity sensitivity (quiescent local, {trials} trials)");
    println!(
        "{:<14} {:>8} {:>8} {:<8} {:>10} {:>12}",
        "Machine", "SF ways", "L2 ways", "Algo", "Succ.", "Avg (ms)"
    );
    let mut bins_time = [0.0f64; 2];
    let mut gtop_time = [0.0f64; 2];
    let rows = machines.iter().zip(stats.chunks(algorithms.len()));
    for (idx, ((name, spec), row)) in rows.enumerate() {
        for (&algo, s) in algorithms.iter().zip(row) {
            println!(
                "{:<14} {:>8} {:>8} {:<8} {:>10} {:>12.2}",
                name,
                spec.sf.ways(),
                spec.l2.ways(),
                s.algorithm,
                pct(s.success_rate),
                s.time_ms.mean
            );
            if algo == Algorithm::BinS {
                bins_time[idx] = s.time_ms.mean;
            }
            if algo == Algorithm::GtOp {
                gtop_time[idx] = s.time_ms.mean;
            }
        }
    }
    println!();
    for (idx, (name, _)) in machines.iter().enumerate() {
        if bins_time[idx] > 0.0 {
            println!("{name}: GtOp/BinS time ratio = {:.2}", gtop_time[idx] / bins_time[idx]);
        }
    }
    println!();
    println!("Paper: the GtOp/BinS ratio grows from 1.51 (Skylake-SP SF) to 1.83");
    println!("(Ice Lake-SP SF) and from 1.43 to 3.58 for the L2, i.e. group testing's");
    println!("O(W^2 N) cost penalises higher associativity more than BinS's O(W N log N).");
}
