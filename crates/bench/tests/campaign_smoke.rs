//! In-process campaign-layer smoke tests over the *real* sweep source.
//!
//! `llc-campaign`'s own suites prove the engine's resume contract with a
//! synthetic source; these tests close the loop with [`PruningSweep`] — the
//! production source whose workers hold pooled machines across cell
//! boundaries — and pin three properties:
//!
//! 1. a campaign killed at a chunk boundary and resumed (at a different
//!    thread count) renders the byte-identical consolidated report;
//! 2. machine construction is bounded by O(workers × distinct machine
//!    configurations), and a resume over complete records builds nothing;
//! 3. the rendered report is thread-count invariant.
//!
//! The cells are a trimmed slice of the `table3-sweep` preset (the cheap
//! scenarios only) so the suite stays inside the tier-1 budget; the full
//! 36-cell golden (`tests/golden/campaign_smoke.txt`) is diffed by the CI
//! smoke job against the release binary, including a kill-and-resume pass.

use llc_bench::sweeps::{build_preset, render_report, PruningSweep, SweepPreset};
use llc_bench::RunOpts;
use llc_cache_model::HierarchyOptions;
use llc_campaign::{Campaign, CampaignOutcome, CampaignSpec, FaultPlan, Fleet, RunOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn fresh_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "llc-campaign-smoke-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A named smoke preset trimmed to the cells whose ids pass `keep`: same
/// machinery, tier-1-sized simulation. Rebuilt per call because a
/// [`PruningSweep`] owns its machine pool.
fn trim(
    preset: &str,
    name: &str,
    chunk_trials: u64,
    keep: impl Fn(&str) -> bool,
) -> (CampaignSpec, PruningSweep) {
    let SweepPreset { spec, source } =
        build_preset(preset, &RunOpts::smoke_with_threads(1)).expect("known preset");
    let kept: Vec<usize> =
        (0..spec.cells.len()).filter(|&i| keep(spec.cells[i].id.as_str())).collect();
    let cells = kept.iter().map(|&i| source.cells()[i].clone()).collect();
    let spec = CampaignSpec {
        name: name.into(),
        chunk_trials,
        cells: kept.iter().map(|&i| spec.cells[i].clone()).collect(),
        ..spec
    };
    let fidelity = RunOpts::smoke_with_threads(1).fidelity;
    let source = PruningSweep::new(cells, fidelity, HierarchyOptions, spec.master_seed);
    (spec, source)
}

/// The `table3-sweep` smoke preset trimmed to its cheap cells (modulo slice
/// hash, per-preset replacement).
fn trimmed() -> (CampaignSpec, PruningSweep) {
    trim("table3-sweep", "table3-sweep-trimmed", 2, |id| {
        id.contains("|modulo|") && id.ends_with("|preset") && !id.contains("|exclusive|")
    })
}

/// The `coresidency-grid` smoke preset trimmed to one mix at one neighbour
/// count — a static cell and a churned cell, so the resume path crosses a
/// tenant-bearing machine configuration of each kind. One trial per chunk,
/// so the two smoke trials give the kill leg a real chunk boundary.
fn trimmed_coresidency() -> (CampaignSpec, PruningSweep) {
    trim("coresidency-grid", "coresidency-grid-trimmed", 1, |id| id.starts_with("bursty|n1|"))
}

fn run(threads: usize, dir: &PathBuf, max_chunks: Option<u64>) -> (CampaignOutcome, u64, u64) {
    let (spec, source) = trimmed();
    let report = Campaign::new(spec, dir)
        .run(&Fleet::new(threads), &source, &RunOptions { max_chunks, ..RunOptions::default() })
        .expect("campaign runs");
    let stats = source.pool().stats();
    (report, stats.builds, stats.keys)
}

fn render(report: &CampaignOutcome) -> String {
    let (spec, source) = trimmed();
    render_report(&spec, source.cells(), &report.aggregates, &report.quarantined)
}

#[test]
fn killed_campaign_resumes_to_the_identical_report() {
    // Uninterrupted reference at 2 threads.
    let ref_dir = fresh_dir();
    let (reference, ref_builds, ref_keys) = run(2, &ref_dir, None);
    assert!(reference.complete);
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Machine-construction bound: builds ≤ workers × distinct configurations
    // (2 workers may each materialise a sibling of every key's snapshot).
    assert_eq!(ref_keys, 2, "trimmed grid spans two machine configurations");
    assert!(
        ref_builds <= 2 * ref_keys,
        "{ref_builds} builds exceeds workers × {ref_keys} machine configurations"
    );

    // Kill at a chunk boundary, then resume at a different thread count.
    let dir = fresh_dir();
    let (partial, _, _) = run(2, &dir, Some(1));
    assert!(!partial.complete);
    assert_eq!(partial.chunks_run, 1);
    let (resumed, resumed_builds, _) = run(1, &dir, None);
    assert!(resumed.complete);
    assert_eq!(resumed.chunks_resumed, 1);
    assert_eq!(resumed.aggregates, reference.aggregates, "resume must be bit-identical");
    assert_eq!(render(&resumed), render(&reference), "rendered reports must match byte-for-byte");

    // A second run over the complete records is pure replay: no trials, no
    // machine construction.
    let (replayed, replay_builds, _) = run(2, &dir, None);
    assert_eq!(replay_builds, 0, "replaying complete records must build no machines");
    assert_eq!(replayed.chunks_run, 0);
    assert_eq!(replayed.aggregates, reference.aggregates);
    assert!(resumed_builds > 0, "the resume leg itself did run trials");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_coresidency_campaign_resumes_to_the_identical_report() {
    let render = |report: &CampaignOutcome| {
        let (spec, source) = trimmed_coresidency();
        render_report(&spec, source.cells(), &report.aggregates, &report.quarantined)
    };
    let run = |threads: usize, dir: &PathBuf, max_chunks: Option<u64>| {
        let (spec, source) = trimmed_coresidency();
        Campaign::new(spec, dir)
            .run(&Fleet::new(threads), &source, &RunOptions { max_chunks, ..RunOptions::default() })
            .expect("campaign runs")
    };

    // Uninterrupted reference at 2 threads.
    let ref_dir = fresh_dir();
    let reference = run(2, &ref_dir, None);
    assert!(reference.complete);
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Kill at a chunk boundary, resume at a different thread count: the
    // churned tenant populations must re-derive bit-identically from the
    // per-trial seeds recorded in the checkpoint. (The kill leg runs on one
    // worker so the one-chunk bound bites before the second cell starts.)
    let dir = fresh_dir();
    let partial = run(1, &dir, Some(1));
    assert!(!partial.complete);
    let resumed = run(2, &dir, None);
    assert!(resumed.complete);
    assert!(resumed.chunks_resumed > 0);
    assert_eq!(resumed.aggregates, reference.aggregates, "resume must be bit-identical");
    assert_eq!(render(&resumed), render(&reference), "rendered reports must match byte-for-byte");
    let _ = std::fs::remove_dir_all(&dir);

    // And the report is thread-count invariant.
    let dir8 = fresh_dir();
    let threaded = run(8, &dir8, None);
    assert_eq!(render(&threaded), render(&reference));
    let _ = std::fs::remove_dir_all(&dir8);
}

#[test]
fn chaos_run_resumes_to_the_fault_free_report() {
    // Fault-free reference.
    let ref_dir = fresh_dir();
    let (reference, _, _) = run(2, &ref_dir, None);
    assert!(reference.complete);
    assert!(reference.quarantined.is_empty());
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Chaos leg: one transient trial panic (heals under retry, same seed)
    // plus a torn record line (wedges the sink → typed error, and the torn
    // line is the file's final line — the legal kill artifact).
    let plan = FaultPlan::parse("panic@2,torn@1").expect("valid plan");
    let dir = fresh_dir();
    let (spec, source) = trimmed();
    let err = Campaign::new(spec, &dir)
        .run(
            &Fleet::new(2),
            &source,
            &RunOptions { fault_plan: Some(plan), ..RunOptions::default() },
        )
        .expect_err("the torn append wedges the sink");
    let msg = err.to_string();
    assert!(msg.contains("injected fault"), "unexpected error: {msg}");

    // Fault-free resume over the damaged directory: recover the torn tail,
    // re-run what's missing, and match the reference byte for byte.
    let (resumed, _, _) = run(1, &dir, None);
    assert!(resumed.complete);
    assert!(resumed.recovered_tail, "the torn final line must be recovered, not fatal");
    assert!(resumed.quarantined.is_empty(), "transient faults leave no quarantine residue");
    assert_eq!(resumed.aggregates, reference.aggregates, "chaos resume must be bit-identical");
    assert_eq!(render(&resumed), render(&reference), "rendered reports must match byte-for-byte");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_report_is_thread_count_invariant() {
    let mut rendered = Vec::new();
    for threads in [1usize, 2] {
        let dir = fresh_dir();
        let (report, _, _) = run(threads, &dir, None);
        assert!(report.complete);
        rendered.push(render(&report));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(rendered[0], rendered[1]);
    // Spot-check shape: one row per cell plus the two header lines.
    assert_eq!(rendered[0].lines().count(), 2 + 6, "{}", rendered[0]);
}
