//! The `e2e-attack` workload: sequential `EndToEndAttack::run` (Steps 1–4)
//! over a fixed list of attack seeds.
//!
//! The configuration is `llc_bench::experiments::run_end_to_end`'s Cloud Run
//! setup on the pinned 4-slice Skylake-SP host, with a full-crypto 64-bit
//! nonce victim and Step 4 enabled. An attack's cost is set by its attack
//! seed (where the target set falls in the Step 2 scan, how many Step 4
//! candidates precede the right one), so the attack seeds are a fixed list
//! and the workload seed derives each victim's long-term key instead: keys
//! change with the seed, the work does not.
//!
//! The traced run calls the four steps' public entry points itself, in
//! `EndToEndAttack::run`'s order and with its stream seeds, and must
//! reproduce the untraced report exactly.

use crate::report::{EndToEnd, Metric, Outcome, PerLayer};
use crate::stats::{fnv64, median};
use crate::trace::{self_time_ns, total_ns, Span, Tracer};
use crate::{Args, SETUP_REPS};
use llc_bench::experiments::Environment;
use llc_cache_model::CacheSpec;
use llc_core::{
    capture_signing_run, decode_bits_soft, scan_for_target, score_extraction, soft_observation,
    streams, AttackConfig, AttackReport, BoundaryClassifier, ClassifierTrainingConfig, DecodedBit,
    EndToEndAttack, EvsetPhase, ExtractPhase, ExtractionConfig, ExtractionScore, IdentifyPhase,
    RecoveryConfig, RecoveryPhase, TraceClassifier,
};
use llc_ecdsa_victim::{group_order, EcdsaVictim, EcdsaVictimConfig, VictimHandle};
use llc_evsets::{BulkBuilder, BulkConfig, EvictionSet, Scope};
use llc_fleet::stream_seed;
use llc_machine::Machine;
use llc_probe::{AccessTrace, Monitor, Strategy};
use llc_recovery::{run_campaign, CampaignConfig, SearchConfig, SignatureObservation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The attack seeds of one pass, in order.
pub const ATTACK_SEEDS: [u64; 2] = [6, 5];
/// Stream tag deriving each victim's key seed from the workload seed.
const KEY_STREAM: u64 = u64::from_le_bytes(*b"pbkey\0\0\0");

pub fn spec() -> CacheSpec {
    CacheSpec::skylake_sp(4, 4)
}

/// The attack configuration for one attack seed and victim key seed.
pub fn config(attack_seed: u64, key_seed: u64) -> AttackConfig {
    let spec = spec();
    let environment = Environment::CloudRun;
    let victim = EcdsaVictimConfig {
        nonce_bits: 64,
        pre_cycles: 2_000_000,
        post_cycles: 800_000,
        full_crypto: true,
        key_seed,
        ..EcdsaVictimConfig::default()
    };
    let mut config = AttackConfig {
        spec: spec.clone(),
        noise: environment.noise(),
        signatures: 5,
        seed: attack_seed,
        ..AttackConfig::default()
    };
    config.classifier.features.expected_period_cycles = victim.expected_access_period();
    config.classifier.noise_per_ms = environment.noise().accesses_per_ms(spec.freq_ghz);
    config.scan.trace_cycles = 1_000_000;
    config.extraction.iteration_cycles = victim.iteration_cycles;
    config.victim = victim;
    config.recovery = RecoveryConfig {
        max_signatures: 8,
        max_alignment_shift: 1,
        search: SearchConfig {
            max_candidates: 4096,
            max_flips: 2,
        },
    };
    config
}

/// The configurations of one pass for a workload seed.
pub fn configs(seed: u64) -> Vec<AttackConfig> {
    ATTACK_SEEDS
        .iter()
        .enumerate()
        .map(|(i, &attack_seed)| {
            config(
                attack_seed,
                stream_seed(stream_seed(seed, KEY_STREAM), i as u64),
            )
        })
        .collect()
}

/// The deterministic content of a report: every field except Step 4's
/// host wall-clock.
pub fn report_key(r: &AttackReport) -> String {
    let scores: Vec<(usize, usize, usize)> = r
        .extract
        .scores
        .iter()
        .map(|s| (s.total_bits, s.recovered_bits, s.bit_errors))
        .collect();
    let recovery = r.recovery.as_ref().map(|p| {
        format!(
            "key {:?} match {} observed {} needed {:?} examined {} tested {} flips {:?} cycles {}",
            p.recovered_key,
            p.matches_ground_truth,
            p.signatures_observed,
            p.signatures_needed,
            p.candidates_examined,
            p.candidates_tested,
            p.flips,
            p.cycles
        )
    });
    format!(
        "evset {}/{} cycles {} | identify {} {} cycles {} traces {} | extract {:?} cycles {} | \
         recovery {:?} | total {}",
        r.evset.sets_built,
        r.evset.attempted,
        r.evset.cycles,
        r.identify.identified,
        r.identify.correct,
        r.identify.cycles,
        r.identify.traces,
        scores,
        r.extract.cycles,
        recovery,
        r.total_cycles
    )
}

/// Median over signings of the nonce bits recovered.
fn nonce_bits(r: &AttackReport) -> f64 {
    let bits: Vec<f64> = r
        .extract
        .scores
        .iter()
        .map(|s| s.recovered_bits as f64)
        .collect();
    if bits.is_empty() {
        0.0
    } else {
        median(&bits)
    }
}

fn recovered_exact_key(r: &AttackReport) -> bool {
    r.recovery.as_ref().is_some_and(|p| p.matches_ground_truth)
}

/// A report that contradicts itself: a key that verified but is not the
/// victim's, more sets than attempts, or phases longer than the attack.
fn inconsistent(r: &AttackReport) -> bool {
    let phases = r.evset.cycles
        + r.identify.cycles
        + r.extract.cycles
        + r.recovery.as_ref().map_or(0, |p| p.cycles);
    let false_key = r
        .recovery
        .as_ref()
        .is_some_and(|p| p.recovered_key.is_some() && !p.matches_ground_truth);
    false_key || r.evset.sets_built > r.evset.attempted || phases > r.total_cycles
}

/// One untraced attack: the shipped entry point, timed.
struct TimedAttack {
    report: Option<AttackReport>,
    ns: u64,
}

fn run_untraced(config: &AttackConfig) -> TimedAttack {
    let attack = EndToEndAttack::new(config.clone());
    let started = Instant::now();
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attack.run())).ok();
    TimedAttack {
        report,
        ns: started.elapsed().as_nanos() as u64,
    }
}

/// Builds the workload's one distinct host configuration (every attack
/// runs the same spec and noise model; only the build seed differs) from
/// scratch, `SETUP_REPS` times, in seconds.
fn setup(config: &AttackConfig) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let started = Instant::now();
            let machine = Machine::builder(config.spec.clone())
                .noise(config.noise.clone())
                .seed(stream_seed(config.seed, streams::MACHINE))
                .build();
            let secs = started.elapsed().as_secs_f64();
            std::hint::black_box(machine);
            secs
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let configs = configs(args.seed);
    let first = &configs[0];
    println!(
        "workload e2e-attack: host {}, Cloud Run noise, victim {}-bit nonces (full crypto, \
         {} signatures captured), Step 4: {} signatures, alignment shift {}, {} candidates, {} flips; \
         attack seeds {:?}, victim key seeds {:?}",
        first.spec.name,
        first.victim.nonce_bits,
        first.signatures,
        first.recovery.max_signatures,
        first.recovery.max_alignment_shift,
        first.recovery.search.max_candidates,
        first.recovery.search.max_flips,
        ATTACK_SEEDS,
        configs.iter().map(|c| c.victim.key_seed).collect::<Vec<_>>()
    );
    let builds = setup(first);

    let window = Instant::now();
    let mut passes: Vec<(u64, Vec<TimedAttack>)> = Vec::new();
    loop {
        let started = Instant::now();
        let pass: Vec<TimedAttack> = configs.iter().map(run_untraced).collect();
        let pass_ns = started.elapsed().as_nanos() as u64;
        passes.push((pass_ns, pass));
        if window.elapsed().as_secs_f64() + pass_ns as f64 * 1e-9 > args.seconds {
            break;
        }
    }

    let mut problems = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    for (_, pass) in &passes {
        for (config, timed) in configs.iter().zip(pass) {
            attempted += 1;
            match &timed.report {
                None => {
                    failed += 1;
                    problems.push(format!("attack seed {} panicked", config.seed));
                }
                Some(r) if inconsistent(r) => {
                    failed += 1;
                    problems.push(format!("attack seed {}: inconsistent report", config.seed));
                }
                Some(r) => {
                    if !r.identify.correct {
                        problems.push(format!("attack seed {}: wrong target set", config.seed));
                    }
                    if !recovered_exact_key(r) {
                        problems.push(format!("attack seed {}: key not recovered", config.seed));
                    }
                }
            }
        }
    }
    let reports: Vec<&AttackReport> = passes[0]
        .1
        .iter()
        .filter_map(|t| t.report.as_ref())
        .collect();
    let keys: Vec<String> = reports.iter().map(|r| report_key(r)).collect();
    for (_, pass) in &passes[1..] {
        let again: Vec<String> = pass
            .iter()
            .filter_map(|t| t.report.as_ref())
            .map(report_key)
            .collect();
        if again != keys {
            problems.push("passes of one seed produced different reports".into());
        }
    }
    let digest = fnv64(keys.join("\n").as_bytes());

    let sim_ms: f64 = reports.iter().map(|r| r.total_seconds() * 1e3).sum();
    let attack_ms: Vec<f64> = passes
        .iter()
        .flat_map(|(_, pass)| pass.iter().map(|t| t.ns as f64 * 1e-6))
        .collect();
    let e2e = EndToEnd {
        ops_per_s: median(
            &passes
                .iter()
                .map(|(ns, p)| p.len() as f64 / (*ns as f64 * 1e-9))
                .collect::<Vec<_>>(),
        ),
        sim_ms_per_s: median(
            &passes
                .iter()
                .map(|(ns, _)| sim_ms / (*ns as f64 * 1e-9))
                .collect::<Vec<_>>(),
        ),
        op_p50_ms: median(&attack_ms),
        setup_s: median(&builds),
        peak_rss_mb: crate::peak_rss_mb(),
        success_rate: reports.iter().filter(|r| recovered_exact_key(r)).count() as f64
            / configs.len() as f64,
    };

    println!(
        "passes: {} in {:.2} s",
        passes.len(),
        window.elapsed().as_secs_f64()
    );
    for (config, (report, timed)) in configs.iter().zip(reports.iter().zip(&passes[0].1)) {
        let rec = report.recovery.as_ref();
        println!(
            "  attack seed {}: {:.1} ms host, {:.4} s sim; {} of {} sets, {} scan traces, target {}, \
             nonce bits {} (median of {} signings, {:.1}%), {} candidates tested, key {}",
            config.seed,
            timed.ns as f64 * 1e-6,
            report.total_seconds(),
            report.evset.sets_built,
            report.evset.attempted,
            report.identify.traces,
            if report.identify.correct { "correct" } else { "WRONG" },
            nonce_bits(report),
            report.extract.scores.len(),
            report.extract.median_recovered_fraction() * 100.0,
            rec.map_or(0, |p| p.candidates_tested),
            if recovered_exact_key(report) { "exact" } else { "NOT RECOVERED" },
        );
    }
    e2e.print();
    println!(
        "  op_p50_ms over n={} attacks (ops are whole attacks; too few for a tail percentile)",
        attack_ms.len()
    );
    println!(
        "  fail_share = {} ({failed} of {attempted} attacks failed)",
        failed as f64 / attempted as f64
    );
    let nonce_bits_median = median(&reports.iter().map(|r| nonce_bits(r)).collect::<Vec<_>>());
    println!(
        "  nonce_bits_recovered = {nonce_bits_median} (median over attacks, sim); \
         sim_attack_s = {:.6} (median, sim); paper, for orientation only: 81% of nonce bits in ~19 s \
         (the model is not validated against hardware)",
        median(&reports.iter().map(|r| r.total_seconds()).collect::<Vec<_>>())
    );
    println!("  setup_s: 1 distinct host, {SETUP_REPS} repetitions");
    println!("result digest: {digest:016x}");

    let metrics = if args.trace {
        let tracer = Tracer::new();
        let started = Instant::now();
        let traced: Vec<AttackReport> = configs
            .iter()
            .enumerate()
            .map(|(op, c)| traced_attack(c, &tracer, op as u64 + 1))
            .collect();
        let traced_ns = started.elapsed().as_nanos() as u64;
        let spans = tracer.spans();
        let drift: Vec<String> = traced
            .iter()
            .zip(&keys)
            .filter(|(r, key)| report_key(r) != **key)
            .map(|(r, key)| format!("traced: {}\n  untraced: {key}", report_key(r)))
            .collect();
        if traced.len() != keys.len() || !drift.is_empty() {
            println!("DRIFT: the traced steps no longer reproduce EndToEndAttack::run; per-step numbers withheld");
            for d in &drift {
                println!("  {d}");
            }
            problems.push("traced attack drifted from EndToEndAttack::run".into());
        } else {
            println!(
                "traced steps reproduce EndToEndAttack::run exactly on all {} attacks",
                keys.len()
            );
        }
        let untraced_ops_per_s = e2e.ops_per_s;
        let traced_ops_per_s = traced.len() as f64 / (traced_ns as f64 * 1e-9);
        let reports: Vec<&AttackReport> = traced.iter().collect();
        let mut layer = per_layer(&spans, &reports, &builds);
        layer.extract_nonce_bits_recovered = nonce_bits_median as u64;
        layer.trace_overhead_share = 1.0 - traced_ops_per_s / untraced_ops_per_s;
        if drift.is_empty() {
            layer.print();
        }
        crate::write_spans("e2e-attack", args.seed, &spans);
        layer.metrics()
    } else {
        e2e.metrics()
    };
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

fn per_layer(spans: &[Span], reports: &[&AttackReport], builds: &[f64]) -> PerLayer {
    let ns = |name| total_ns(spans, name) as f64;
    let attacks: Vec<&Span> = spans.iter().filter(|s| s.name == "attack").collect();
    let op_ns: f64 =
        attacks.iter().map(|s| s.dur_ns() as f64).sum::<f64>() - ns("machine.snapshot");
    let sum = |name| attacks.iter().map(|s| s.counter(name)).sum::<u64>();
    let simulated = sum("accesses") + sum("noise_events") + sum("tenant_accesses");
    let machine_ns =
        ns("evsets.bulk") + ns("identify.scan") + ns("extract.monitor") + ns("recovery.capture");
    let search_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "recovery.campaign")
        .map(|c| {
            self_time_ns(
                c.interval(),
                spans
                    .iter()
                    .filter(|s| s.parent == c.id)
                    .map(Span::interval),
            )
        })
        .sum();
    let resets: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "machine.reset")
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    let traces: u64 = reports.iter().map(|r| r.identify.traces).sum();
    let tested: u64 = reports
        .iter()
        .filter_map(|r| r.recovery.as_ref())
        .map(|p| p.candidates_tested)
        .sum();
    let detail = |name, value, unit| Metric { name, value, unit };
    PerLayer {
        ns_per_access: machine_ns / simulated as f64,
        build_ms: median(builds) * 1e3,
        reset_us: median(&resets),
        evsets_ms: ns("evsets.bulk") * 1e-6,
        accesses: sum("accesses"),
        noise_events: sum("noise_events"),
        tenant_accesses: sum("tenant_accesses"),
        sim_cycles: sum("sim_cycles"),
        evsets_success_ratio: reports.iter().map(|r| r.evset.sets_built).sum::<usize>() as f64
            / reports.iter().map(|r| r.evset.attempted).sum::<usize>() as f64,
        evsets_sim_cycles: reports.iter().map(|r| r.evset.cycles).sum(),
        identify_traces: traces,
        identify_train_share: ns("identify.train") / op_ns,
        identify_scan_share: ns("identify.scan") / op_ns,
        extract_monitor_share: (ns("extract.monitor") + ns("recovery.capture")) / op_ns,
        extract_decode_share: (ns("extract.train") + ns("extract.decode")) / op_ns,
        recovery_candidates_tested: tested,
        recovery_search_share: search_ns as f64 / op_ns,
        details: vec![
            detail("attack.ms", op_ns * 1e-6, "ms"),
            detail("identify.train_ms", ns("identify.train") * 1e-6, "ms"),
            detail("identify.scan_ms", ns("identify.scan") * 1e-6, "ms"),
            detail(
                "identify.us_per_trace",
                ns("identify.scan") * 1e-3 / traces as f64,
                "us",
            ),
            detail(
                "extract.monitor_ms",
                (ns("extract.monitor") + ns("recovery.capture")) * 1e-6,
                "ms",
            ),
            detail(
                "extract.decode_ms",
                (ns("extract.train") + ns("extract.decode")) * 1e-6,
                "ms",
            ),
            detail("recovery.search_ms", search_ns as f64 * 1e-6, "ms"),
            detail(
                "recovery.us_per_candidate",
                search_ns as f64 * 1e-3 / tested.max(1) as f64,
                "us",
            ),
        ],
        ..PerLayer::default()
    }
}

/// Step 3's products, as `EndToEndAttack::run` keeps them.
#[derive(Default)]
struct Step3 {
    scores: Vec<ExtractionScore>,
    classifier: Option<BoundaryClassifier>,
    observations: Vec<SignatureObservation>,
}

/// Where the traced steps hang their spans.
#[derive(Clone, Copy)]
struct Site<'a> {
    tracer: &'a Tracer,
    parent: u64,
    op: u64,
}

impl Site<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, self.parent, self.op, f)
    }
}

/// `EndToEndAttack::run`, step by step, with a span around every call into
/// a crate. After the attack the machine is rewound once to its post-build
/// snapshot, timing `Machine::reset_to` on the attack host.
fn traced_attack(cfg: &AttackConfig, tracer: &Tracer, op: u64) -> AttackReport {
    let attack = tracer.open("attack", 0, op, 0);
    let site = Site {
        tracer,
        parent: attack.id,
        op,
    };
    let mut machine = site.span("machine.build", || {
        Machine::builder(cfg.spec.clone())
            .noise(cfg.noise.clone())
            .seed(stream_seed(cfg.seed, streams::MACHINE))
            .build()
    });
    let pristine = site.span("machine.snapshot", || machine.snapshot());
    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, streams::STEP1));
    let (victim, handle) = EcdsaVictim::new(cfg.victim.clone());
    machine.install_victim(Box::new(victim), true, cfg.victim_request_gap);
    let layout = handle
        .lock()
        .expect("victim log available")
        .layout
        .clone()
        .expect("victim setup ran");
    let true_target = machine.oracle_victim_location(layout.branch_line);
    let start = machine.now();

    // Step 1: eviction sets at the target page offset.
    let algorithm = cfg.algorithm.instance();
    let bulk_cfg = BulkConfig {
        page_offset: layout.target_page_offset(),
        ..cfg.bulk.clone()
    };
    let builder = BulkBuilder::new(algorithm.as_ref(), bulk_cfg);
    let bulk = site
        .span("evsets.bulk", || {
            builder.run(&mut machine, Scope::PageOffset, &mut rng)
        })
        .expect("bulk construction must at least start");
    let evset = EvsetPhase {
        sets_built: bulk.successes,
        attempted: bulk.attempted,
        success_rate: bulk.success_rate(),
        cycles: bulk.total_cycles,
    };

    // Step 2: train the PSD+SVM classifier, then scan for the target set.
    let classifier_cfg = ClassifierTrainingConfig {
        seed: stream_seed(stream_seed(cfg.seed, streams::STEP2), cfg.classifier.seed),
        ..cfg.classifier.clone()
    };
    let classifier = site.span("identify.train", || TraceClassifier::train(&classifier_cfg));
    let identify_start = machine.now();
    let scan = site.span("identify.scan", || {
        scan_for_target(&mut machine, &bulk.eviction_sets, &classifier, &cfg.scan)
    });
    let correct = scan
        .identified_ta
        .is_some_and(|ta| machine.oracle_attacker_location(ta) == true_target);
    let identify = IdentifyPhase {
        identified: scan.identified.is_some(),
        correct,
        cycles: machine.now() - identify_start,
        traces: scan.traces_collected,
        scan_rate_per_s: scan.scan_rate_per_s,
    };

    // Step 3: monitor the target set and decode nonce bits.
    machine.reseed(stream_seed(cfg.seed, streams::STEP3));
    let extract_start = machine.now();
    let step3 = match scan.identified {
        Some(idx) => extract(cfg, &mut machine, &bulk.eviction_sets[idx].1, &handle, site),
        None => Step3::default(),
    };
    let extract = ExtractPhase {
        scores: step3.scores,
        cycles: machine.now() - extract_start,
    };

    // Step 4: correct the decoded bits and recover the key.
    let recovery = match (scan.identified, step3.classifier) {
        (Some(idx), Some(classifier)) if cfg.recovery.max_signatures > 0 => recover(
            cfg,
            &mut machine,
            &bulk.eviction_sets[idx].1,
            &handle,
            &classifier,
            step3.observations,
            site,
        ),
        _ => None,
    };

    let report = AttackReport {
        evset,
        identify,
        extract,
        recovery,
        total_cycles: machine.now() - start,
        freq_ghz: cfg.spec.freq_ghz,
    };
    let stats = machine.stats();
    tracer.close(
        attack,
        vec![
            (
                "accesses".into(),
                stats.attacker_accesses + stats.victim_accesses,
            ),
            ("noise_events".into(), stats.noise_events),
            ("tenant_accesses".into(), stats.tenant_accesses),
            ("sim_cycles".into(), machine.now()),
        ],
    );
    let reset = tracer.open("machine.reset", 0, op, 0);
    machine.reset_to(&pristine);
    tracer.close(reset, Vec::new());
    report
}

fn request_cycles(cfg: &AttackConfig) -> u64 {
    cfg.victim.pre_cycles
        + cfg.victim.post_cycles
        + cfg.victim.nonce_bits as u64 * cfg.victim.iteration_cycles
        + cfg.victim_request_gap
}

fn slice_trace(trace: &AccessTrace, start: u64, end: u64) -> AccessTrace {
    AccessTrace {
        start,
        end,
        timestamps: trace
            .timestamps
            .iter()
            .copied()
            .filter(|&t| t >= start && t < end)
            .collect(),
        probes: trace.probes,
        primes: trace.primes,
    }
}

fn decode_run(
    trace: &AccessTrace,
    classifier: &BoundaryClassifier,
    extraction: &ExtractionConfig,
) -> Vec<DecodedBit> {
    let boundaries = classifier.scored_boundaries(trace);
    decode_bits_soft(trace, &boundaries, extraction)
}

fn extract(
    cfg: &AttackConfig,
    machine: &mut Machine,
    eviction_set: &EvictionSet,
    handle: &VictimHandle,
    site: Site<'_>,
) -> Step3 {
    let runs_before = machine.victim_runs() as usize;
    let window = request_cycles(cfg) * (cfg.signatures as u64 + 2);
    let mut monitor = Monitor::new(Strategy::Parallel, eviction_set.clone());
    let trace = site.span("extract.monitor", || monitor.collect(machine, window));

    let log = handle.lock().expect("victim log available");
    let run_starts = machine.victim_run_starts().to_vec();
    let mut per_run: Vec<(u64, &llc_ecdsa_victim::RunGroundTruth)> = run_starts
        .iter()
        .copied()
        .zip(log.runs.iter())
        .skip(runs_before)
        .filter(|(start, run)| *start >= trace.start && start + run.duration <= trace.end)
        .collect();
    per_run.truncate(cfg.signatures + 1);
    let Some(&(train_start, train_run)) = per_run.first() else {
        return Step3::default();
    };
    let train_trace = slice_trace(&trace, train_start, train_start + train_run.duration);
    let train_boundaries: Vec<u64> = train_run
        .iteration_starts
        .iter()
        .map(|&o| train_start + o)
        .collect();
    let boundary_classifier = site.span("extract.train", || {
        BoundaryClassifier::train(&cfg.extraction, &[(&train_trace, &train_boundaries)])
    });

    let mut output = Step3::default();
    for &(run_start, run) in &per_run[1..] {
        let run_trace = slice_trace(&trace, run_start, run_start + run.duration);
        let decoded = site.span("extract.decode", || {
            decode_run(&run_trace, &boundary_classifier, &cfg.extraction)
        });
        let starts: Vec<u64> = run
            .iteration_starts
            .iter()
            .map(|&o| run_start + o)
            .collect();
        output.scores.push(score_extraction(
            &decoded,
            &starts,
            &run.nonce_bits,
            &cfg.extraction,
        ));
        if let Some(observation) = soft_observation(run, &decoded) {
            output.observations.push(observation);
        }
    }
    output.classifier = Some(boundary_classifier);
    output
}

fn recover(
    cfg: &AttackConfig,
    machine: &mut Machine,
    eviction_set: &EvictionSet,
    handle: &VictimHandle,
    classifier: &BoundaryClassifier,
    captured: Vec<SignatureObservation>,
    site: Site<'_>,
) -> Option<RecoveryPhase> {
    let public = handle
        .lock()
        .expect("victim log available")
        .key_pair
        .as_ref()?
        .public()
        .to_owned();
    let nonce_width = cfg.victim.nonce_bits.min(group_order().bit_length());
    let campaign_cfg = CampaignConfig {
        ladder_bits: nonce_width.saturating_sub(1),
        iteration_cycles: cfg.extraction.iteration_cycles,
        max_signatures: cfg.recovery.max_signatures,
        max_alignment_shift: cfg.recovery.max_alignment_shift,
        search: cfg.recovery.search,
    };

    let phase_start = machine.now();
    let mut captured = captured.into_iter();
    let mut consumed_runs = machine.victim_runs() as usize;
    let window = request_cycles(cfg) * 2;
    let span = site
        .tracer
        .open("recovery.campaign", site.parent, site.op, 0);
    let inner = Site {
        parent: span.id,
        ..site
    };
    let report = run_campaign(&campaign_cfg, &public, |_| {
        if let Some(observation) = captured.next() {
            return Some(observation);
        }
        for _ in 0..3 {
            let capture = inner.span("recovery.capture", || {
                capture_signing_run(machine, eviction_set, handle, window, consumed_runs)
            });
            if let Some(capture) = capture {
                consumed_runs = capture.consumed_runs;
                let decoded = inner.span("extract.decode", || {
                    decode_run(&capture.trace, classifier, &cfg.extraction)
                });
                let mut observation = soft_observation(&capture.run, &decoded)?;
                observation.sim_cycles = capture.cycles;
                return Some(observation);
            }
        }
        None
    });
    site.tracer.close(
        span,
        vec![("candidates_tested".into(), report.candidates_tested)],
    );

    let ground_truth = handle
        .lock()
        .expect("victim log available")
        .key_pair
        .as_ref()
        .map(|k| *k.private());
    let recovered = report.recovered;
    Some(RecoveryPhase {
        matches_ground_truth: recovered
            .as_ref()
            .is_some_and(|r| Some(r.private) == ground_truth),
        recovered_key: recovered.as_ref().map(|r| r.private),
        signatures_observed: report.signatures_observed,
        signatures_needed: report.signatures_needed,
        candidates_examined: report.candidates_examined,
        candidates_tested: report.candidates_tested,
        flips: recovered.map(|r| r.flips),
        cycles: machine.now() - phase_start,
        wall_ms: report.wall.as_secs_f64() * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny-host key-recovery configuration: the same four steps as the
    /// workload at a fraction of the cost.
    fn tiny(key_seed: u64) -> AttackConfig {
        let mut config = AttackConfig::fast_key_recovery();
        config.victim.key_seed = key_seed;
        config
    }

    #[test]
    fn traced_steps_reproduce_end_to_end_attack_run() {
        let config = tiny(77);
        let untraced = EndToEndAttack::new(config.clone()).run();
        let tracer = Tracer::new();
        let traced = traced_attack(&config, &tracer, 1);
        assert_eq!(report_key(&traced), report_key(&untraced));
        assert!(recovered_exact_key(&traced) && !inconsistent(&traced));
        let spans = tracer.spans();
        for name in [
            "attack",
            "machine.build",
            "evsets.bulk",
            "identify.train",
            "identify.scan",
            "extract.monitor",
            "extract.decode",
            "recovery.campaign",
            "machine.reset",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
        }
        let layer = per_layer(&spans, &[&traced], &[0.001]);
        assert_eq!(layer.identify_traces, traced.identify.traces);
        assert!(layer.recovery_search_share > 0.0 && layer.recovery_search_share < 1.0);
    }

    #[test]
    fn the_key_seed_changes_the_key_but_not_the_work() {
        let a = EndToEndAttack::new(tiny(77)).run();
        let b = EndToEndAttack::new(tiny(78)).run();
        let (ra, rb) = (a.recovery.as_ref().unwrap(), b.recovery.as_ref().unwrap());
        assert!(ra.matches_ground_truth && rb.matches_ground_truth);
        assert_ne!(ra.recovered_key, rb.recovered_key);
        assert_eq!(ra.candidates_tested, rb.candidates_tested);
        assert_eq!(a.identify.traces, b.identify.traces);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn workload_seeds_derive_distinct_keys_over_fixed_attacks() {
        let (one, two) = (configs(1), configs(2));
        assert_eq!(one.len(), ATTACK_SEEDS.len());
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.seed, b.seed);
            assert_ne!(a.victim.key_seed, b.victim.key_seed);
        }
        assert_ne!(one[0].victim.key_seed, one[1].victim.key_seed);
    }
}
