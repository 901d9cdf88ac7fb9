//! Cross-crate integration tests: each of the paper's attack steps exercised
//! through the public umbrella API, on the fast test machine.

use llc_feasible::attack::{
    scan_for_target, Algorithm, ClassifierTrainingConfig, FeatureConfig, ScanConfig,
    TraceClassifier,
};
use llc_feasible::cache_model::CacheSpec;
use llc_feasible::ecdsa_victim::{EcdsaVictim, EcdsaVictimConfig};
use llc_feasible::evsets::{oracle, BulkBuilder, BulkConfig, EvictionSet, Scope, TargetCache};
use llc_feasible::machine::{Machine, NoiseModel};
use llc_feasible::probe::{Monitor, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Step 1 (bulk eviction sets) against ground truth, for every algorithm.
#[test]
fn step1_every_algorithm_builds_correct_sf_eviction_sets() {
    for algorithm in Algorithm::all() {
        let mut machine = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::quiescent_local())
            .seed(0x57e9)
            .build();
        let mut rng = StdRng::seed_from_u64(0x57e9);
        let algo = algorithm.instance();
        let mut config = BulkConfig::default();
        config.evset.candidate_scale = 6;
        let builder = BulkBuilder::new(algo.as_ref(), config);
        let outcome = builder
            .run(&mut machine, Scope::PageOffset, &mut rng)
            .unwrap_or_else(|e| panic!("{algorithm}: bulk run failed: {e}"));
        assert!(outcome.successes >= 1, "{algorithm}: built no eviction sets");
        for (ta, set) in &outcome.eviction_sets {
            assert!(
                oracle::is_true_eviction_set(&machine, *ta, set.addresses(), machine.spec().sf.ways()),
                "{algorithm}: constructed set is not congruent"
            );
        }
    }
}

/// Step 2: the PSD + SVM scanner finds the set the ECDSA victim touches.
#[test]
fn step2_identifies_the_victim_target_set() {
    let spec = CacheSpec::tiny_test();
    let mut machine =
        Machine::builder(spec.clone()).noise(NoiseModel::quiescent_local()).seed(0x1d3).build();
    let mut rng = StdRng::seed_from_u64(0x1d3);

    let victim_cfg = EcdsaVictimConfig::fast_test();
    let expected_period = victim_cfg.expected_access_period();
    let (victim, handle) = EcdsaVictim::new(victim_cfg);
    machine.install_victim(Box::new(victim), true, 50_000);
    let layout = handle.lock().unwrap().layout.clone().expect("victim set up");
    let target_loc = machine.oracle_victim_location(layout.branch_line);

    // Oracle-assisted Step 1 so this test isolates Step 2.
    let pool = llc_feasible::evsets::CandidateSet::allocate(
        &mut machine,
        layout.target_page_offset(),
        512,
        &mut rng,
    );
    let groups = oracle::group_by_location(&machine, pool.addresses());
    let ways = spec.sf.ways();
    let sets: Vec<_> = groups
        .iter()
        .filter(|(_, m)| m.len() > ways)
        .map(|(_, m)| (m[0], EvictionSet::new(m[1..=ways].to_vec(), TargetCache::Sf)))
        .collect();
    assert!(sets.len() >= 2, "need both SF sets at this page offset");

    let classifier = TraceClassifier::train(&ClassifierTrainingConfig {
        features: FeatureConfig { expected_period_cycles: expected_period, ..Default::default() },
        positive_traces: 60,
        negative_traces: 100,
        trace_cycles: 400_000,
        noise_per_ms: 0.3,
        ..Default::default()
    });
    let scan = scan_for_target(
        &mut machine,
        &sets,
        &classifier,
        &ScanConfig { trace_cycles: 400_000, timeout_cycles: 300_000_000, ..Default::default() },
    );
    let ta = scan.identified_ta.expect("scanner should identify a target set");
    assert_eq!(machine.oracle_attacker_location(ta), target_loc, "identified the wrong set");
}

/// Step 3 plumbing: monitoring the true target set during signings sees the
/// per-iteration access pattern (roughly 1-2 accesses per iteration).
#[test]
fn step3_monitoring_sees_ladder_periodicity() {
    let mut machine =
        Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(0xbea7).build();
    let mut rng = StdRng::seed_from_u64(0xbea7);

    let victim_cfg = EcdsaVictimConfig::fast_test();
    let iteration = victim_cfg.iteration_cycles;
    let bits = victim_cfg.nonce_bits as u64;
    let (victim, handle) = EcdsaVictim::new(victim_cfg);
    machine.install_victim(Box::new(victim), true, 20_000);
    let layout = handle.lock().unwrap().layout.clone().expect("victim set up");
    let target_loc = machine.oracle_victim_location(layout.branch_line);

    let pool = llc_feasible::evsets::CandidateSet::allocate(
        &mut machine,
        layout.target_page_offset(),
        512,
        &mut rng,
    );
    let set = oracle::sf_eviction_set(&machine, target_loc, pool.addresses())
        .expect("candidate pool covers the target set");

    // Monitor across two full requests.
    let request = 300_000 + bits * iteration + 120_000;
    let mut monitor = Monitor::new(Strategy::Parallel, set);
    let trace = monitor.collect(&mut machine, request * 2);
    // Expect on the order of 1.5 detections per ladder iteration over ~2 runs.
    let expected = 2.0 * bits as f64 * 1.5;
    assert!(
        trace.len() as f64 > expected * 0.4,
        "monitor saw only {} accesses, expected around {expected}",
        trace.len()
    );
    // Inter-arrival times should cluster near half/full iteration durations.
    let close = trace
        .inter_arrival_cycles()
        .iter()
        .filter(|&&d| {
            (d as i64 - (iteration / 2) as i64).unsigned_abs() < iteration / 4
                || (d as i64 - iteration as i64).unsigned_abs() < iteration / 4
        })
        .count();
    assert!(
        close * 2 >= trace.inter_arrival_cycles().len(),
        "only {close} of {} intervals near the ladder period",
        trace.inter_arrival_cycles().len()
    );
}
