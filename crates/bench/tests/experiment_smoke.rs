//! Golden smoke tests for the experiment binaries.
//!
//! `table{3,4,5,6} --smoke` are generated **in-process** through
//! `llc_bench::reports` (the binaries are one-line wrappers around the same
//! functions) and compared byte-for-byte against the checked-in expected
//! output under `tests/golden/`. Any change to the simulation, the seed
//! derivation, or the aggregation shows up as a golden diff — including the
//! cache-storage layout rewrites, whose replacement semantics these files
//! pin.
//!
//! The smoke configuration is pinned (fixed 4-slice host, fixed trial
//! counts, no environment-variable dependence) and, because trial seeds are
//! derived from `(master seed, trial index)` and results are returned in
//! trial order, the same bytes must come back at any thread count — which
//! these tests also assert.
//!
//! To regenerate after an intentional change:
//! `cargo run --release -p llc-bench --bin table3 -- --smoke > crates/bench/tests/golden/table3_smoke.txt`
//! (same for table4/table5/table6, and with `--noise-fidelity aggregate`
//! for `table3_aggregate_smoke.txt`), then review the diff like any other
//! code change.

use llc_bench::{reports, RunOpts};
use llc_machine::NoiseFidelity;

const TABLE3_GOLDEN: &str = include_str!("golden/table3_smoke.txt");
const TABLE3_AGGREGATE_GOLDEN: &str = include_str!("golden/table3_aggregate_smoke.txt");
const TABLE4_GOLDEN: &str = include_str!("golden/table4_smoke.txt");
const TABLE5_GOLDEN: &str = include_str!("golden/table5_smoke.txt");
const TABLE6_GOLDEN: &str = include_str!("golden/table6_smoke.txt");
const E2E_KEY_GOLDEN: &str = include_str!("golden/e2e_key_smoke.txt");
const E2E_KEY_CORESIDENCY_GOLDEN: &str = include_str!("golden/e2e_key_coresidency_smoke.txt");
const AES_TTABLE_GOLDEN: &str = include_str!("golden/aes_ttable_smoke.txt");

/// Diffs `actual` against `expected` with a readable first-mismatch report.
fn assert_matches_golden(name: &str, actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "{name}: first difference at line {} (regenerate the golden file if intentional)",
            i + 1
        );
    }
    let (a, e) = (actual.lines().count(), expected.lines().count());
    if a != e {
        panic!("{name}: line count differs (actual {a} vs golden {e})");
    }
    // Same lines but different bytes: trailing newline / terminator drift.
    assert_eq!(actual, expected, "{name}: outputs differ only in line-terminator bytes");
}

#[test]
fn table3_smoke_matches_golden() {
    let report = reports::table3_report(&RunOpts::smoke_with_threads(2));
    assert_matches_golden("table3 --smoke", &report, TABLE3_GOLDEN);
}

#[test]
fn table3_aggregate_smoke_matches_golden() {
    let opts = RunOpts::smoke_with_threads(2).with_fidelity(NoiseFidelity::Aggregate);
    let report = reports::table3_report(&opts);
    assert_matches_golden("table3 --smoke --noise-fidelity aggregate", &report, TABLE3_AGGREGATE_GOLDEN);
    // The aggregate report must be a *different* simulation (labelled as
    // such), not a silent fall-through to the exact path.
    assert!(report.contains("noise fidelity: aggregate"));
    assert_ne!(report, TABLE3_GOLDEN, "aggregate smoke must not equal the exact golden");
}

#[test]
fn table3_aggregate_smoke_is_thread_count_invariant() {
    let run = |threads: usize| {
        reports::table3_report(
            &RunOpts::smoke_with_threads(threads).with_fidelity(NoiseFidelity::Aggregate),
        )
    };
    let one = run(1);
    assert_eq!(
        one,
        run(8),
        "table3 --smoke --noise-fidelity aggregate must be byte-identical at 1 and 8 threads"
    );
    assert_matches_golden(
        "table3 --smoke --noise-fidelity aggregate --threads 1",
        &one,
        TABLE3_AGGREGATE_GOLDEN,
    );
}

#[test]
fn table4_smoke_matches_golden() {
    let report = reports::table4_report(&RunOpts::smoke_with_threads(2));
    assert_matches_golden("table4 --smoke", &report, TABLE4_GOLDEN);
}

#[test]
fn table5_smoke_matches_golden() {
    let report = reports::table5_report(&RunOpts::smoke_with_threads(2));
    assert_matches_golden("table5 --smoke", &report, TABLE5_GOLDEN);
}

#[test]
fn table6_smoke_matches_golden() {
    let report = reports::table6_report(&RunOpts::smoke_with_threads(2));
    assert_matches_golden("table6 --smoke", &report, TABLE6_GOLDEN);
}

#[test]
fn e2e_key_smoke_matches_golden() {
    let report = reports::e2e_key_report(&RunOpts::smoke_with_threads(2));
    assert_matches_golden("e2e_key --smoke", &report, E2E_KEY_GOLDEN);
    // The golden file itself must record a successful, ground-truth-matching
    // key recovery — the repository's headline claim. Guard against a
    // regenerated golden silently locking in a broken attack.
    assert!(E2E_KEY_GOLDEN.contains("campaign: key recovered after"));
    assert!(E2E_KEY_GOLDEN.contains("key recovered: yes"));
    assert!(!E2E_KEY_GOLDEN.contains("MISMATCH"));
}

#[test]
fn e2e_key_smoke_is_thread_count_invariant() {
    let one = reports::e2e_key_report(&RunOpts::smoke_with_threads(1));
    let eight = reports::e2e_key_report(&RunOpts::smoke_with_threads(8));
    assert_eq!(one, eight, "e2e_key --smoke must be byte-identical at 1 and 8 threads");
    assert_matches_golden("e2e_key --smoke --threads 1", &one, E2E_KEY_GOLDEN);
}

/// Options for the co-residency key-recovery smoke: the pinned smoke host
/// plus two idle sidecars and one bursty web neighbour.
fn coresidency_opts(threads: usize) -> RunOpts {
    RunOpts::smoke_with_threads(threads).with_tenants("2*idle,1*bursty-web")
}

#[test]
fn e2e_key_coresidency_smoke_matches_golden() {
    let report = reports::e2e_key_report(&coresidency_opts(2));
    assert_matches_golden(
        "e2e_key --smoke --tenants 2*idle,1*bursty-web",
        &report,
        E2E_KEY_CORESIDENCY_GOLDEN,
    );
    // The headline claim of the tenant layer: key recovery still succeeds
    // with modelled co-resident neighbours posting real cache traffic, and
    // the report header says which population ran.
    assert!(E2E_KEY_CORESIDENCY_GOLDEN.contains("tenants: 2*idle+1*bursty-web"));
    assert!(E2E_KEY_CORESIDENCY_GOLDEN.contains("campaign: key recovered after"));
    assert!(E2E_KEY_CORESIDENCY_GOLDEN.contains("key recovered: yes"));
    assert!(!E2E_KEY_CORESIDENCY_GOLDEN.contains("MISMATCH"));
    // And the neighbours are not decorative: their traffic changes the
    // simulation relative to the tenant-free smoke golden.
    assert_ne!(report, E2E_KEY_GOLDEN, "tenant population must perturb the simulation");
}

#[test]
fn e2e_key_coresidency_smoke_is_thread_count_invariant() {
    let one = reports::e2e_key_report(&coresidency_opts(1));
    let eight = reports::e2e_key_report(&coresidency_opts(8));
    assert_eq!(
        one, eight,
        "e2e_key --smoke --tenants ... must be byte-identical at 1 and 8 threads"
    );
    assert_matches_golden(
        "e2e_key --smoke --tenants 2*idle,1*bursty-web --threads 1",
        &one,
        E2E_KEY_CORESIDENCY_GOLDEN,
    );
}

#[test]
fn aes_ttable_smoke_matches_golden() {
    let report = reports::aes_ttable_report(&RunOpts::smoke_with_threads(2));
    assert_matches_golden("aes_ttable --smoke", &report, AES_TTABLE_GOLDEN);
    // The golden must record a *working* data-dependent leak: all four
    // monitored upper nibbles recovered from key-dependent set usage.
    assert!(AES_TTABLE_GOLDEN.contains("recovered 4/4 monitored key nibbles"));
}

#[test]
fn aes_ttable_smoke_is_thread_count_invariant() {
    let one = reports::aes_ttable_report(&RunOpts::smoke_with_threads(1));
    let eight = reports::aes_ttable_report(&RunOpts::smoke_with_threads(8));
    assert_eq!(one, eight, "aes_ttable --smoke must be byte-identical at 1 and 8 threads");
    assert_matches_golden("aes_ttable --smoke --threads 1", &one, AES_TTABLE_GOLDEN);
}

#[test]
fn table3_smoke_is_thread_count_invariant() {
    let one = reports::table3_report(&RunOpts::smoke_with_threads(1));
    let eight = reports::table3_report(&RunOpts::smoke_with_threads(8));
    assert_eq!(one, eight, "table3 --smoke must be byte-identical at 1 and 8 threads");
    assert_matches_golden("table3 --smoke --threads 1", &one, TABLE3_GOLDEN);
}

#[test]
fn table5_smoke_is_thread_count_invariant() {
    let one = reports::table5_report(&RunOpts::smoke_with_threads(1));
    let eight = reports::table5_report(&RunOpts::smoke_with_threads(8));
    assert_eq!(one, eight, "table5 --smoke must be byte-identical at 1 and 8 threads");
    assert_matches_golden("table5 --smoke --threads 1", &one, TABLE5_GOLDEN);
}

#[test]
fn table6_smoke_is_thread_count_invariant() {
    let one = reports::table6_report(&RunOpts::smoke_with_threads(1));
    let eight = reports::table6_report(&RunOpts::smoke_with_threads(8));
    assert_eq!(one, eight, "table6 --smoke must be byte-identical at 1 and 8 threads");
    assert_matches_golden("table6 --smoke --threads 1", &one, TABLE6_GOLDEN);
}
