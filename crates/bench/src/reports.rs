//! In-process report generation for the experiment binaries.
//!
//! The binaries used to format their tables inline in `main`, which made
//! their output untestable short of spawning processes. The table
//! generators that back the golden smoke tests live here instead: a binary
//! is now `print!("{}", reports::table3_report(&RunOpts::parse()))`, and
//! `tests/experiment_smoke.rs` calls the same function in-process and
//! compares against the checked-in expected output.
//!
//! Report text in `--smoke` mode is pinned: fixed 4-slice host, fixed trial
//! counts, no environment-variable dependence — and, because every trial
//! seed is derived from `(master seed, trial index)` and results are
//! returned in trial order, the bytes are identical for every `--threads`
//! value.

use crate::experiments::{
    measure_aes_ttable, measure_bulk, measure_identification, measure_key_recovery,
    measure_monitoring, measure_single_sets, run_end_to_end_key, single_set_cell, Environment,
    PruningStats,
};
use crate::sweeps::PruningSweep;
use crate::{env_usize, pct, RunOpts};
use llc_cache_model::{CacheSpec, HierarchyOptions};
use llc_core::Algorithm;
use llc_machine::NoiseFidelity;
use llc_evsets::Scope;
use llc_probe::Strategy;
use llc_recovery::SearchConfig;
use std::fmt::Write;

/// Header suffix naming the noise fidelity. Empty in exact mode so the
/// pre-existing exact reports (and their golden files) stay byte-identical.
fn fidelity_suffix(opts: &RunOpts) -> &'static str {
    match opts.fidelity {
        NoiseFidelity::Exact => "",
        NoiseFidelity::Aggregate => " | noise fidelity: aggregate",
    }
}

/// Header suffix naming the background tenant population and churn. Empty
/// for the legacy empty population, so the pre-existing goldens stay
/// byte-identical.
fn tenant_suffix(opts: &RunOpts) -> String {
    if opts.tenants.is_empty() {
        return String::new();
    }
    let churn = if opts.churn_dwell_ms > 0.0 {
        format!(" | churn: {} ms dwell", opts.churn_dwell_ms)
    } else {
        String::new()
    };
    format!(" | tenants: {}{churn}", opts.tenants.label())
}

/// Runs the `SingleSet` cells environment × `algorithms` on `spec` as one
/// [`PruningSweep`], so the cells of each environment share its pooled
/// machines at every thread count. Stats come back in table order.
fn single_set_grid(
    opts: &RunOpts,
    spec: &CacheSpec,
    algorithms: &[Algorithm],
    filtering: bool,
    trials: usize,
    seed: u64,
) -> Vec<PruningStats> {
    let cells = Environment::all()
        .into_iter()
        .flat_map(|env| {
            algorithms.iter().map(move |&algo| single_set_cell(spec, env, algo, filtering))
        })
        .collect();
    let sweep = PruningSweep::new(cells, opts.fidelity, HierarchyOptions, seed);
    measure_single_sets(&sweep, trials, seed, &opts.fleet())
}

/// Renders Table 3 — existing pruning algorithms without candidate
/// filtering, quiescent local vs Cloud Run.
pub fn table3_report(opts: &RunOpts) -> String {
    let spec = opts.spec();
    let trials = opts.trials(2, 4);
    let algorithms = [Algorithm::Gt, Algorithm::GtOp, Algorithm::Ps, Algorithm::PsOp];
    let mut out = String::new();

    let w = &mut out;
    writeln!(w, "Table 3 — existing pruning algorithms, no candidate filtering").unwrap();
    writeln!(w, "machine: {} | trials per cell: {trials}{}", spec.name, fidelity_suffix(opts))
        .unwrap();
    writeln!(
        w,
        "{:<18} {:<8} {:>10} {:>12} {:>12} {:>12}",
        "Environment", "Algo", "Succ.", "Avg (ms)", "Std (ms)", "Med (ms)"
    )
    .unwrap();
    for s in single_set_grid(opts, &spec, &algorithms, false, trials, 0x7ab1e3) {
        writeln!(
            w,
            "{:<18} {:<8} {:>10} {:>12.1} {:>12.1} {:>12.1}",
            s.environment,
            s.algorithm,
            pct(s.success_rate),
            s.time_ms.mean,
            s.time_ms.std_dev,
            s.time_ms.median
        )
        .unwrap();
    }
    writeln!(w).unwrap();
    writeln!(w, "Paper (28-slice Xeon 8173M): local success 97-99%, 21-56 ms;").unwrap();
    writeln!(w, "Cloud Run success 3-56%, 512-714 ms — the ordering (GtOp > Gt >> PsOp > Ps")
        .unwrap();
    writeln!(w, "under noise) is the reproduced claim.").unwrap();
    out
}

/// Renders Table 4 — construction with candidate filtering: SingleSet plus
/// the extrapolated PageOffset / WholeSys scenarios.
pub fn table4_report(opts: &RunOpts) -> String {
    let spec = opts.spec();
    let trials = opts.trials(2, 3);
    let sample_sets = if opts.smoke { 4 } else { crate::env_usize("LLC_SAMPLE_SETS", 8) };
    let fleet = opts.fleet();
    let algorithms = [Algorithm::Gt, Algorithm::GtOp, Algorithm::PsOp, Algorithm::BinS];
    let mut out = String::new();

    let w = &mut out;
    writeln!(
        w,
        "Table 4 — construction with candidate filtering ({}{})",
        spec.name,
        fidelity_suffix(opts)
    )
    .unwrap();
    writeln!(w, "== SingleSet ({} trials per cell) ==", trials).unwrap();
    writeln!(
        w,
        "{:<18} {:<8} {:>10} {:>12} {:>14}",
        "Environment", "Algo", "Succ.", "Avg (ms)", "Filter share"
    )
    .unwrap();
    for s in single_set_grid(opts, &spec, &algorithms, true, trials, 0x7ab1e4) {
        writeln!(
            w,
            "{:<18} {:<8} {:>10} {:>12.1} {:>13.0}%",
            s.environment,
            s.algorithm,
            pct(s.success_rate),
            s.time_ms.mean,
            100.0 * s.filter_share
        )
        .unwrap();
    }

    for (scope_idx, (scope, label)) in
        [(Scope::PageOffset, "PageOffset"), (Scope::WholeSys, "WholeSys")].into_iter().enumerate()
    {
        writeln!(w).unwrap();
        writeln!(
            w,
            "== {label} (sampled {sample_sets} sets, extrapolated with n_sets * t_avg / SR) =="
        )
        .unwrap();
        writeln!(
            w,
            "{:<18} {:<8} {:>8} {:>10} {:>14} {:>16}",
            "Environment", "Algo", "Sets", "Succ.", "Sample (s)", "Est. total (s)"
        )
        .unwrap();
        // Bulk cells are independent single-shot measurements: shard the
        // (environment x algorithm) grid itself across the fleet.
        let cells: Vec<(Environment, Algorithm)> = Environment::all()
            .into_iter()
            .flat_map(|env| algorithms.into_iter().map(move |algo| (env, algo)))
            .collect();
        // Per-scope master seed: with a shared master, both scopes would
        // sample the identical per-cell measurements and WholeSys would be
        // a pure rescaling of PageOffset.
        let scope_master = llc_fleet::stream_seed(0x7ab1e5, scope_idx as u64 + 1);
        let estimates = fleet.run(cells.len(), scope_master, |ctx| {
            let (env, algo) = cells[ctx.trial];
            measure_bulk(&spec, env, algo, scope, sample_sets, ctx.seed)
        });
        for (&(env, algo), estimate) in cells.iter().zip(estimates) {
            match estimate {
                Ok(e) => writeln!(
                    w,
                    "{:<18} {:<8} {:>8} {:>10} {:>14.2} {:>16.1}",
                    e.environment,
                    e.algorithm,
                    e.required_sets,
                    pct(e.success_rate),
                    e.sampled_seconds,
                    e.estimated_total_seconds
                ),
                // No set was attempted, so the row names the cause instead
                // of printing sample and extrapolated times.
                Err(err) => writeln!(
                    w,
                    "{:<18} {:<8} {:>8} {:>10}   candidate filtering failed: {err}",
                    env.label(),
                    algo.name(),
                    scope.required_sets(&spec),
                    pct(0.0)
                ),
            }
            .unwrap();
        }
    }
    writeln!(w).unwrap();
    writeln!(w, "Paper: filtering cuts Cloud Run single-set time from ~512 ms to ~27 ms and")
        .unwrap();
    writeln!(w, "BinS covers all 57,344 SF sets in ~2.4 minutes (vs 14.6 h estimated for GtOp")
        .unwrap();
    writeln!(w, "without filtering); the reproduced claim is BinS < GtOp < Gt and the large")
        .unwrap();
    writeln!(w, "filtering speed-up, not the absolute seconds.").unwrap();
    out
}

/// Renders Table 5 — prime and probe latencies of PS-Flush, PS-Alt and
/// Parallel Probing on the (simulated) Cloud Run host.
pub fn table5_report(opts: &RunOpts) -> String {
    let spec = opts.spec();
    let sender_accesses = if opts.smoke { 100 } else { 400 };
    let strategies = Strategy::all();
    let mut out = String::new();

    let w = &mut out;
    writeln!(w, "Table 5 — prime and probe latencies ({}, Cloud Run noise)", spec.name).unwrap();
    writeln!(
        w,
        "{:<12} {:>18} {:>18} {:>16}",
        "Strategy", "Prime (cycles)", "Probe (cycles)", "Detection @10k"
    )
    .unwrap();
    // The three strategy cells are independent measurements, sharded across
    // the fleet workers.
    let points = opts.fleet().run(strategies.len(), 0x7ab1e5, |ctx| {
        measure_monitoring(
            &spec,
            Environment::CloudRun,
            strategies[ctx.trial],
            10_000,
            sender_accesses,
            ctx.seed,
        )
    });
    for point in points {
        writeln!(
            w,
            "{:<12} {:>10.0} ± {:<6.0} {:>10.0} ± {:<6.0} {:>15.1}%",
            point.strategy.to_string(),
            point.stats.mean_prime_cycles,
            point.stats.std_prime_cycles,
            point.stats.mean_probe_cycles,
            point.stats.std_probe_cycles,
            100.0 * point.detection_rate
        )
        .unwrap();
    }
    writeln!(w).unwrap();
    writeln!(w, "Paper (2 GHz Xeon 8173M): PS-Flush prime 6,024, PS-Alt prime 2,777,").unwrap();
    writeln!(w, "Parallel prime 1,121 cycles; probe 94 vs 118 cycles. The reproduced claim")
        .unwrap();
    writeln!(w, "is the ordering: Parallel's prime is several times cheaper while its probe")
        .unwrap();
    writeln!(w, "is only slightly more expensive.").unwrap();
    out
}

/// Renders Table 6 — PSD-based target-set identification in the PageOffset
/// and (approximated) WholeSys scenarios.
pub fn table6_report(opts: &RunOpts) -> String {
    let spec = opts.spec();
    let trials = opts.trials(2, 3);
    // PageOffset: scan the sets reachable at the target's page offset.
    // WholeSys is approximated by scanning several times as many sets in
    // random order (the full 64x sweep is available via LLC_WHOLESYS_SETS).
    let page_offset_sets = if opts.smoke {
        spec.sf.uncertainty().min(8)
    } else {
        spec.sf.uncertainty().min(env_usize("LLC_PAGEOFFSET_SETS", 24))
    };
    let wholesys_sets = if opts.smoke {
        page_offset_sets * 2
    } else {
        env_usize("LLC_WHOLESYS_SETS", page_offset_sets * 4)
    };
    let freq = spec.freq_ghz;
    let timeout_po = ((if opts.smoke { 5.0 } else { 10.0 }) * freq * 1e9) as u64;
    let timeout_ws = ((if opts.smoke { 10.0 } else { 40.0 }) * freq * 1e9) as u64;
    let fleet = opts.fleet();
    let mut out = String::new();

    let w = &mut out;
    writeln!(w, "Table 6 — PSD-based target-set identification ({})", spec.name).unwrap();
    writeln!(
        w,
        "{:<12} {:>8} {:>10} {:>14} {:>14} {:>14}",
        "Scenario", "Sets", "Success", "Avg time (s)", "Std time (s)", "Scan rate (/s)"
    )
    .unwrap();
    for (label, sets, timeout) in
        [("PageOffset", page_offset_sets, timeout_po), ("WholeSys", wholesys_sets, timeout_ws)]
    {
        let stats = measure_identification(
            &spec,
            Environment::CloudRun,
            sets,
            trials,
            timeout,
            0x7ab1e6,
            &fleet,
        );
        writeln!(
            w,
            "{:<12} {:>8} {:>10} {:>14.2} {:>14.2} {:>14.0}",
            label,
            sets,
            pct(stats.success_rate),
            stats.success_time_s.mean,
            stats.success_time_s.std_dev,
            stats.scan_rate_per_s
        )
        .unwrap();
    }
    writeln!(w).unwrap();
    writeln!(w, "Paper: 94.1% success in 6.1 s (PageOffset) and 73.9% in 179.7 s (WholeSys),")
        .unwrap();
    writeln!(w, "scanning 762-831 sets/s. The reproduced claims are the high PageOffset").unwrap();
    writeln!(w, "success rate and the WholeSys degradation caused by de-synchronisation.").unwrap();
    out
}

/// Renders the Step 4 key-recovery report: the fleet-sharded
/// multi-signature campaign plus the full end-to-end attack with recovery.
///
/// Scaling knobs (non-smoke mode): `LLC_SIGNATURES` (campaign signature
/// budget, default 8) and `LLC_FLIP_BUDGET` (max known-bit flips per
/// candidate, default 2).
pub fn e2e_key_report(opts: &RunOpts) -> String {
    let spec = opts.spec();
    let signatures = if opts.smoke { 6 } else { env_usize("LLC_SIGNATURES", 8) };
    let flips = if opts.smoke { 2 } else { env_usize("LLC_FLIP_BUDGET", 2) };
    let search = SearchConfig {
        max_candidates: if opts.smoke { 300 } else { env_usize("LLC_CANDIDATES", 4096) as u64 },
        max_flips: flips,
    };
    let nonce_bits = 48;
    let fleet = opts.fleet();
    let mut out = String::new();

    let w = &mut out;
    writeln!(
        w,
        "Step 4 — noisy-nonce key recovery ({}, Cloud Run noise{}{})",
        spec.name,
        fidelity_suffix(opts),
        tenant_suffix(opts)
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "== Multi-signature campaign ({nonce_bits}-bit nonces, one fresh signing per fleet trial) =="
    )
    .unwrap();
    let outcome = measure_key_recovery(
        &spec,
        Environment::CloudRun,
        opts.fidelity,
        &opts.tenant_population(spec.freq_ghz),
        nonce_bits,
        signatures,
        search,
        0x7ab1e7,
        &fleet,
    );
    writeln!(
        w,
        "{:<6} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "Sig", "Bits obs.", "Erasures", "Examined", "Tested", "Recovered"
    )
    .unwrap();
    let campaign = &outcome.campaign;
    for (index, row) in campaign.attempts.iter().enumerate() {
        writeln!(
            w,
            "{:<6} {:>10} {:>10} {:>10} {:>8} {:>10}",
            index,
            format!("{}/{}", row.observed_bits, outcome.ladder_bits),
            row.erasures,
            row.candidates_examined,
            row.candidates_tested,
            if row.recovered { "yes" } else { "no" }
        )
        .unwrap();
    }
    match campaign.signatures_needed {
        Some(n) => writeln!(
            w,
            "campaign: key recovered after {n} signature(s) | ground truth: {}",
            if outcome.matches_ground_truth { "MATCH" } else { "MISMATCH" }
        )
        .unwrap(),
        None => writeln!(
            w,
            "campaign: no signature broke within budget ({} observed)",
            campaign.signatures_observed
        )
        .unwrap(),
    }

    writeln!(w).unwrap();
    writeln!(w, "== Full end-to-end attack with Step 4 (tiny host, 64-bit nonces) ==").unwrap();
    let report = run_end_to_end_key(signatures, flips, 0xa77ac4);
    writeln!(
        w,
        "evsets built {} | identified {} | correct {}",
        report.evset.sets_built, report.identify.identified, report.identify.correct
    )
    .unwrap();
    writeln!(
        w,
        "bits recovered (median) {} | bit errors {}",
        pct(report.extract.median_recovered_fraction()),
        pct(report.extract.mean_bit_error_rate())
    )
    .unwrap();
    match &report.recovery {
        Some(r) => {
            writeln!(
                w,
                "key recovered: {} | signatures {} | candidates tested {} | flips {}",
                if r.recovered_key.is_some() { "yes" } else { "no" },
                r.signatures_needed.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
                r.candidates_tested,
                r.flips.map(|f| f.to_string()).unwrap_or_else(|| "-".into())
            )
            .unwrap();
            writeln!(
                w,
                "ground truth: {} | key (hex): {}",
                if r.matches_ground_truth { "MATCH" } else { "MISMATCH" },
                r.recovered_key
                    .as_ref()
                    .map(|k| k.value().to_hex())
                    .unwrap_or_else(|| "-".into())
            )
            .unwrap();
        }
        None => writeln!(w, "key recovered: no (step 4 did not run)").unwrap(),
    }
    writeln!(w, "simulated attack time: {:.3} s", report.total_seconds()).unwrap();
    writeln!(w).unwrap();
    writeln!(w, "Paper: the end-to-end result is the victim's ECDSA private key, recovered")
        .unwrap();
    writeln!(w, "from partial nonces (median 81% of bits, 3% errors) via cryptanalytic").unwrap();
    writeln!(w, "post-processing; this harness closes the same loop with a confidence-ordered")
        .unwrap();
    writeln!(w, "correction search, verified against the victim's public key only.").unwrap();
    out
}

/// Renders the AES T-table first-round leak report: per-request detections
/// on the SF set of `T0`'s first line, correlated against known plaintexts
/// to recover the upper nibble of every `T0`-indexing key byte.
///
/// Scaling knobs (non-smoke mode): `LLC_AES_REQUESTS` (total victim
/// requests, default 256) and `LLC_TRIALS` (fleet batches, default 8).
pub fn aes_ttable_report(opts: &RunOpts) -> String {
    let spec = opts.spec();
    let requests = if opts.smoke { 96 } else { env_usize("LLC_AES_REQUESTS", 256) };
    let trials = opts.trials(4, 8);
    let fleet = opts.fleet();
    let mut out = String::new();

    let w = &mut out;
    writeln!(
        w,
        "AES T-table first-round leak ({}, Cloud Run noise{})",
        spec.name,
        fidelity_suffix(opts)
    )
    .unwrap();
    let outcome = measure_aes_ttable(
        &spec,
        Environment::CloudRun,
        opts.fidelity,
        requests,
        trials,
        0x7ab1e8,
        &fleet,
    );
    writeln!(
        w,
        "monitored: T0 line 0 (SF set) | requests observed: {} | detection rate: {}",
        outcome.requests,
        pct(outcome.detection_rate)
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(w, "== Upper-nibble recovery via P(detect | p[i]>>4 = guess) ==").unwrap();
    writeln!(
        w,
        "{:<8} {:>6} {:>10} {:>12} {:>13} {:>9}",
        "Key byte", "True", "Recovered", "P(hit|best)", "P(hit|other)", "Correct"
    )
    .unwrap();
    for row in &outcome.per_byte {
        writeln!(
            w,
            "{:<8} {:>6} {:>10} {:>12} {:>13} {:>9}",
            format!("k[{}]", row.byte_index),
            format!("0x{:x}", row.true_nibble),
            format!("0x{:x}", row.recovered_nibble),
            pct(row.hit_rate_best),
            pct(row.hit_rate_rest),
            if row.recovered_nibble == row.true_nibble { "yes" } else { "no" }
        )
        .unwrap();
    }
    writeln!(w).unwrap();
    writeln!(
        w,
        "recovered {}/{} monitored key nibbles",
        outcome.correct,
        outcome.per_byte.len()
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(w, "First-round T-table Prime+Probe: state byte i indexes T[i mod 4] with").unwrap();
    writeln!(w, "p[i]^k[i], so detections on one monitored table line, conditioned on the")
        .unwrap();
    writeln!(w, "known plaintext nibble, peak at the key's upper nibble. The reproduced claim")
        .unwrap();
    writeln!(w, "is that the paper's LLC/SF channel carries data-dependent victims beyond")
        .unwrap();
    writeln!(w, "ECDSA: key-dependent set usage survives Cloud Run background noise.").unwrap();
    out
}

// The report generators are covered end-to-end by `tests/experiment_smoke.rs`,
// which diffs their smoke output against the checked-in golden files (and
// would double the suite's runtime if repeated here as unit tests).
