//! The `evset-sweep` workload: one `Campaign::run` over
//! `llc_bench::sweeps::PruningSweep`, repeated on a fresh checkpoint
//! directory for the measurement window.
//!
//! Cells are built here, explicitly: Gt, GtOp and BinS under four
//! backgrounds on the pinned 4-slice Skylake-SP host, with the Table 3
//! protocol (unfiltered candidates, SF target, oracle validation). Every
//! batch repeats the same campaign, so every batch must produce the same
//! result digest.
//!
//! There is no 23/ms (2x Cloud Run) background: its BinS cell has rare
//! trials 30-60x the median (3-6 s against ~100 ms), which swung one
//! seed's batch time by 2x, more than any affordable batch averages out.

use crate::report::{EndToEnd, Metric, Outcome, PerLayer};
use crate::stats::{fnv64, median, percentile, samples_beyond, tail_per_mille};
use crate::trace::{self_time_ns, Span, Tracer};
use crate::{Args, SETUP_REPS};
use llc_bench::experiments::trial_streams;
use llc_bench::sweeps::{PruningSweep, SweepCell, SWEEP_METRICS};
use llc_cache_model::{CacheSpec, HierarchyOptions};
use llc_campaign::{
    Campaign, CampaignOutcome, CampaignSpec, CellSpec, Fleet, RunOptions, TrialCtx, TrialOutcome,
    TrialSource,
};
use llc_core::Algorithm;
use llc_fleet::stream_seed;
use llc_machine::{
    ChurnConfig, Machine, NoiseFidelity, NoiseModel, PooledMachine, TenantPopulation,
};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Workload shape: every cell is eight of the presets' 8-trial chunks.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub trials_per_cell: u64,
    pub chunk_trials: u64,
    pub workers: usize,
}

pub const SHAPE: Shape = Shape {
    trials_per_cell: 64,
    chunk_trials: 8,
    workers: 2,
};

/// Stream tag deriving the campaign master seed from the workload seed.
const MASTER_STREAM: u64 = u64::from_le_bytes(*b"psweep\0\0");
/// `PruningSweep` derives its hosts' canonical build seed from the master
/// seed it is given. Handing it this constant instead of the campaign's
/// master seed fixes the four hosts' paging layout for every workload seed:
/// the layout shifts the cost of all of a seed's trials together, which no
/// number of trials averages out. The trials' noise and allocation streams
/// still derive from the campaign master seed.
const BUILD_MASTER: u64 = 0xb0a7_5eed;
/// The churned background population and its mean dwell time.
const POPULATION: &str = "2*idle,1*bursty-web";
const DWELL_MS: f64 = 2.0;

pub fn spec() -> CacheSpec {
    CacheSpec::skylake_sp(4, 4)
}

/// The four backgrounds: label, noise model and tenant population. 11.5/ms
/// is Cloud Run's rate; the last one is quiescent noise plus a churned
/// tenant population.
fn backgrounds(spec: &CacheSpec) -> Vec<(String, NoiseModel, TenantPopulation)> {
    let mut out: Vec<(String, NoiseModel, TenantPopulation)> = [0.0, 0.29, 11.5]
        .into_iter()
        .map(|per_ms: f64| {
            let label = format!("{per_ms}/ms");
            let noise = NoiseModel::from_accesses_per_ms(per_ms, spec.freq_ghz, &label);
            (label, noise, TenantPopulation::empty())
        })
        .collect();
    let mut tenants = TenantPopulation::parse(POPULATION).expect("population spec is valid");
    tenants.churn = Some(ChurnConfig {
        mean_dwell_cycles: DWELL_MS * spec.freq_ghz * 1e6,
    });
    out.push((
        format!("0.29/ms+{POPULATION}@{DWELL_MS}ms"),
        NoiseModel::quiescent_local(),
        tenants,
    ));
    out
}

/// Every cell of the sweep, background-major.
pub fn cells(spec: &CacheSpec) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for (label, noise, tenants) in backgrounds(spec) {
        for algorithm in [Algorithm::Gt, Algorithm::GtOp, Algorithm::BinS] {
            cells.push(SweepCell {
                id: format!("{}|{label}", algorithm.name()),
                spec: spec.clone(),
                noise: noise.clone(),
                algorithm,
                filtering: false,
                tenants: tenants.clone(),
            });
        }
    }
    cells
}

pub fn campaign_spec(cells: &[SweepCell], seed: u64, shape: Shape) -> CampaignSpec {
    CampaignSpec {
        name: "perfbench-evset-sweep".into(),
        master_seed: stream_seed(seed, MASTER_STREAM),
        chunk_trials: shape.chunk_trials,
        metrics: SWEEP_METRICS.iter().map(|m| m.to_string()).collect(),
        cells: cells
            .iter()
            .map(|c| CellSpec {
                id: c.id.clone(),
                trials: shape.trials_per_cell,
            })
            .collect(),
    }
}

fn metric_index(name: &str) -> usize {
    SWEEP_METRICS
        .iter()
        .position(|m| *m == name)
        .expect("sweep reports this metric")
}

/// One trial as the wrapper saw it.
#[derive(Debug, Clone, Copy)]
struct TrialTime {
    ns: u64,
    sim_cycles: u64,
}

/// Delegates to `PruningSweep`, timing each trial. When traced it also
/// records a span per trial (cell, worker, the held machine's counters and
/// clock) and times one extra `reset` of the held machine, which the next
/// trial's own reset makes invisible to results.
struct Timed<'a> {
    inner: &'a PruningSweep,
    tracer: Option<&'a Tracer>,
    times: Mutex<Vec<TrialTime>>,
}

impl TrialSource for Timed<'_> {
    type Worker = (usize, Option<PooledMachine>);
    type Item = TrialOutcome;

    fn init(&self, worker: usize) -> Self::Worker {
        (worker, self.inner.init(worker))
    }

    fn run_trial(&self, state: &mut Self::Worker, cell: usize, ctx: TrialCtx) -> TrialOutcome {
        let (worker, held) = state;
        // A trial's spans share `op`: its cell in the high half, its index
        // within the cell in the low half.
        let op = (cell as u64) << 32 | ctx.trial as u64;
        let span = self.tracer.map(|t| t.open("trial", 0, op, *worker as u64));
        let started = Instant::now();
        let outcome = self.inner.run_trial(held, cell, ctx);
        let ns = started.elapsed().as_nanos() as u64;
        let sim_cycles = outcome.metrics[metric_index("total_cycles")];
        if let (Some(tracer), Some(span)) = (self.tracer, span) {
            let machine = held.as_mut().expect("a finished trial holds its machine");
            // Pooled machines are built with a zero clock and zero stats,
            // and every trial rewinds to that snapshot first, so the
            // machine's totals are this trial's work.
            let stats = machine.stats();
            tracer.close(
                span,
                vec![
                    (
                        "accesses".into(),
                        stats.attacker_accesses + stats.victim_accesses,
                    ),
                    ("noise_events".into(), stats.noise_events),
                    ("tenant_accesses".into(), stats.tenant_accesses),
                    ("sim_cycles".into(), machine.now()),
                    ("success".into(), u64::from(outcome.success)),
                ],
            );
            let reset = tracer.open("machine.reset", 0, op, *worker as u64);
            machine.reset();
            tracer.close(reset, Vec::new());
        }
        self.times
            .lock()
            .expect("trial log poisoned")
            .push(TrialTime { ns, sim_cycles });
        outcome
    }

    fn on_trial_panic(&self, state: &mut Self::Worker) {
        self.inner.on_trial_panic(&mut state.1);
    }
}

/// What one campaign run produced.
#[derive(Debug)]
struct Batch {
    wall_ns: u64,
    trials: Vec<TrialTime>,
    attempted: u64,
    failed: u64,
    successes: u64,
    sim_cycles: u128,
    backtracks: u128,
    digest: u64,
    chunks_run: u64,
    record_bytes: u64,
    pool_builds: u64,
    pool_checkouts: u64,
    /// Output-check failures, empty when the batch is correct.
    problems: Vec<String>,
}

/// Checks the campaign outcome and digests it. Failures count trials the
/// campaign could not vouch for: quarantined ones, or all of an incomplete
/// run's.
fn check(spec: &CampaignSpec, outcome: &CampaignOutcome, problems: &mut Vec<String>) -> u64 {
    let total = spec.grid().total();
    if !outcome.complete {
        problems.push("campaign incomplete".into());
        return total;
    }
    if outcome.chunks_resumed != 0 {
        problems.push(format!(
            "{} chunks resumed from a fresh directory",
            outcome.chunks_resumed
        ));
    }
    if !outcome.quarantined.is_empty() {
        problems.push(format!("{} trials quarantined", outcome.quarantined.len()));
    }
    for (cell, agg) in spec.cells.iter().zip(&outcome.aggregates) {
        let quarantined = outcome
            .quarantined
            .iter()
            .filter(|q| spec.cells[q.cell].id == cell.id)
            .count();
        if agg.trials + quarantined as u64 != cell.trials
            || agg.metrics.len() != SWEEP_METRICS.len()
        {
            problems.push(format!(
                "cell {} recorded {} of {} trials",
                cell.id, agg.trials, cell.trials
            ));
        }
    }
    outcome.quarantined.len() as u64
}

fn digest(outcome: &CampaignOutcome) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for agg in &outcome.aggregates {
        let _ = write!(text, "{}/{}", agg.trials, agg.successes);
        for m in &agg.metrics {
            let _ = write!(text, ",{}:{}:{}:{}", m.count, m.sum, m.min, m.max);
        }
        text.push(';');
    }
    for q in &outcome.quarantined {
        let _ = write!(text, "q{}:{}:{};", q.cell, q.trial, q.reason);
    }
    fnv64(text.as_bytes())
}

fn run_batch(
    cells: &[SweepCell],
    spec: &CampaignSpec,
    shape: Shape,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Batch {
    let source = PruningSweep::new(
        cells.to_vec(),
        NoiseFidelity::Exact,
        HierarchyOptions::default(),
        BUILD_MASTER,
    );
    let timed = Timed {
        inner: &source,
        tracer,
        times: Mutex::new(Vec::new()),
    };
    // A fresh directory every run: nothing may be resumed.
    let _ = std::fs::remove_dir_all(dir);
    let campaign = Campaign::new(spec.clone(), dir);
    let options = RunOptions {
        max_chunks: None,
        retries: 2,
        fault_plan: None,
    };
    let fleet = Fleet::new(shape.workers);

    let span = tracer.map(|t| t.open("campaign.run", 0, 0, 0));
    let started = Instant::now();
    let result = campaign.run(&fleet, &timed, &options);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let record_bytes = std::fs::metadata(campaign.records_path()).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(dir);

    let mut problems = Vec::new();
    let (failed, successes, sim_cycles, backtracks, digest, chunks_run) = match &result {
        Ok(outcome) => {
            let failed = check(spec, outcome, &mut problems);
            let sum = |name| {
                outcome
                    .aggregates
                    .iter()
                    .map(|a| a.metrics[metric_index(name)].sum)
                    .sum()
            };
            (
                failed,
                outcome.aggregates.iter().map(|a| a.successes).sum(),
                sum("total_cycles"),
                sum("backtracks"),
                self::digest(outcome),
                outcome.chunks_run,
            )
        }
        Err(err) => {
            problems.push(format!("campaign failed: {err}"));
            (spec.grid().total(), 0, 0, 0, 0, 0)
        }
    };
    if let (Some(tracer), Some(span)) = (tracer, span) {
        tracer.close(
            span,
            vec![
                ("chunks".into(), chunks_run),
                ("record_bytes".into(), record_bytes),
            ],
        );
    }
    let pool = source.pool().stats();
    Batch {
        wall_ns,
        trials: timed.times.into_inner().expect("trial log poisoned"),
        attempted: spec.grid().total(),
        failed,
        successes,
        sim_cycles,
        backtracks,
        digest,
        chunks_run,
        record_bytes,
        pool_builds: pool.builds,
        pool_checkouts: pool.acquisitions,
        problems,
    }
}

/// Builds every distinct host configuration of the sweep from scratch,
/// `SETUP_REPS` times. Returns the per-repetition totals and every single
/// build, in seconds.
fn setup(cells: &[SweepCell]) -> (Vec<f64>, Vec<f64>) {
    let mut distinct: Vec<&SweepCell> = Vec::new();
    for cell in cells {
        if !distinct
            .iter()
            .any(|d| d.noise == cell.noise && d.tenants == cell.tenants)
        {
            distinct.push(cell);
        }
    }
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut total = 0.0;
        for cell in &distinct {
            let started = Instant::now();
            let machine = Machine::builder(cell.spec.clone())
                .noise(cell.noise.clone())
                .noise_fidelity(NoiseFidelity::Exact)
                .hierarchy_options(HierarchyOptions::default())
                .tenants(cell.tenants.clone())
                .seed(stream_seed(BUILD_MASTER, trial_streams::MACHINE))
                .build();
            let secs = started.elapsed().as_secs_f64();
            std::hint::black_box(machine);
            total += secs;
            builds.push(secs);
        }
        totals.push(total);
    }
    (totals, builds)
}

pub fn run(args: &Args) -> Outcome {
    let spec = spec();
    let cells = cells(&spec);
    let shape = SHAPE;
    let campaign = campaign_spec(&cells, args.seed, shape);
    let freq_ghz = spec.freq_ghz;
    println!(
        "workload evset-sweep: host {}, {} cells x {} trials, chunks of {}, {} workers, \
         master seed {:#x}, Table 3 protocol (unfiltered, SF target, oracle-validated), exact noise",
        spec.name,
        cells.len(),
        shape.trials_per_cell,
        shape.chunk_trials,
        shape.workers,
        campaign.master_seed
    );
    for cell in &cells {
        println!("  cell {}", cell.id);
    }

    let (setup_totals, builds) = setup(&cells);
    let dir = crate::out_dir().join(format!("campaign-{}", std::process::id()));

    // Untraced batches for the measurement window.
    let window = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    loop {
        let batch = run_batch(&cells, &campaign, shape, &dir, None);
        let last_ns = batch.wall_ns;
        batches.push(batch);
        if window.elapsed().as_secs_f64() + last_ns as f64 * 1e-9 > args.seconds {
            break;
        }
    }

    let mut problems: Vec<String> = batches.iter().flat_map(|b| b.problems.clone()).collect();
    let digest = batches[0].digest;
    if batches.iter().any(|b| b.digest != digest) {
        problems.push("batches of one seed produced different digests".into());
    }
    let attempted: u64 = batches.iter().map(|b| b.attempted).sum();
    let failed: u64 = batches.iter().map(|b| b.failed).sum();
    let first = &batches[0];

    let trial_ms: Vec<f64> = batches
        .iter()
        .flat_map(|b| b.trials.iter().map(|t| t.ns as f64 * 1e-6))
        .collect();
    let trial_sim_s: Vec<f64> = first
        .trials
        .iter()
        .map(|t| t.sim_cycles as f64 / (freq_ghz * 1e9))
        .collect();
    let sim_ms = first.sim_cycles as f64 / (freq_ghz * 1e6);
    let e2e = EndToEnd {
        ops_per_s: median(
            &batches
                .iter()
                .map(|b| b.trials.len() as f64 / (b.wall_ns as f64 * 1e-9))
                .collect::<Vec<_>>(),
        ),
        sim_ms_per_s: median(
            &batches
                .iter()
                .map(|b| sim_ms / (b.wall_ns as f64 * 1e-9))
                .collect::<Vec<_>>(),
        ),
        op_p50_ms: median(&trial_ms),
        setup_s: median(&setup_totals),
        peak_rss_mb: crate::peak_rss_mb(),
        success_rate: first.successes as f64 / first.attempted as f64,
    };

    println!(
        "batches: {} in {:.2} s; per batch: {} trials, {} successes, {} sim cycles, {} backtracks, \
         {} chunks, {} record bytes",
        batches.len(),
        window.elapsed().as_secs_f64(),
        first.attempted,
        first.successes,
        first.sim_cycles,
        first.backtracks,
        first.chunks_run,
        first.record_bytes
    );
    for b in &batches {
        println!(
            "  batch: {:.3} s wall, digest {:016x}",
            b.wall_ns as f64 * 1e-9,
            b.digest
        );
    }
    e2e.print();
    println!(
        "  op_p50_ms over n={} trials (ops are campaign trials)",
        trial_ms.len()
    );
    for pm in [Some(900), tail_per_mille(trial_ms.len())]
        .into_iter()
        .flatten()
    {
        println!(
            "  op_p{}_ms = {:.3} (n={}, {} samples beyond; p{} is the highest percentile with 10 beyond)",
            pm as f64 / 10.0,
            percentile(&trial_ms, pm),
            trial_ms.len(),
            samples_beyond(trial_ms.len(), pm),
            tail_per_mille(trial_ms.len()).map_or(0.0, |t| t as f64 / 10.0),
        );
    }
    println!(
        "  fail_share = {} ({failed} of {attempted} trials failed)",
        failed as f64 / attempted as f64
    );
    println!(
        "  sim_attack_s = {:.6} (median simulated seconds per eviction-set trial, sim); \
         sim ms per batch = {sim_ms:.3}",
        median(&trial_sim_s)
    );
    println!(
        "  setup_s: {} distinct hosts, {SETUP_REPS} repetitions",
        builds.len() / SETUP_REPS
    );
    println!("result digest: {digest:016x}");

    let metrics = if args.trace {
        let tracer = Tracer::new();
        let traced = run_batch(&cells, &campaign, shape, &dir, Some(&tracer));
        if !traced.problems.is_empty() || traced.digest != digest {
            problems.push("the traced batch disagrees with the untraced ones".into());
        }
        let spans = tracer.spans();
        let layer = per_layer(&spans, &traced, &builds, shape.workers, e2e.ops_per_s);
        layer.print();
        crate::write_spans("evset-sweep", args.seed, &spans);
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

fn per_layer(
    spans: &[Span],
    batch: &Batch,
    builds: &[f64],
    workers: usize,
    untraced_ops_per_s: f64,
) -> PerLayer {
    let trials: Vec<&Span> = spans.iter().filter(|s| s.name == "trial").collect();
    let resets: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "machine.reset")
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect();
    let run = spans
        .iter()
        .find(|s| s.name == "campaign.run")
        .expect("the batch ran a campaign");
    let sum = |name: &str| trials.iter().map(|s| s.counter(name)).sum::<u64>();
    let trial_ns: u64 = trials.iter().map(|s| s.dur_ns()).sum();
    let simulated = sum("accesses") + sum("noise_events") + sum("tenant_accesses");
    // Everything a worker did inside the campaign on the benchmark's
    // behalf (trials and the reset probes) is not campaign self time.
    let worker_spans = spans
        .iter()
        .filter(|s| s.name == "trial" || s.name == "machine.reset");
    let self_ns = self_time_ns(run.interval(), worker_spans.map(Span::interval));
    let mut last_end = vec![run.start_ns; workers];
    for s in &trials {
        let w = s.worker as usize;
        last_end[w] = last_end[w].max(s.end_ns);
    }
    let latest = last_end.iter().copied().max().unwrap_or(run.end_ns);
    let tail_idle_ns: u64 = last_end.iter().map(|&e| latest - e).sum();
    let traced_ops_per_s = trials.len() as f64 / (run.dur_ns() as f64 * 1e-9);
    let run_ns = run.dur_ns() as f64;
    PerLayer {
        ns_per_access: trial_ns as f64 / simulated as f64,
        build_ms: median(builds) * 1e3,
        reset_us: median(&resets),
        evsets_ms: trial_ns as f64 * 1e-6,
        accesses: sum("accesses"),
        noise_events: sum("noise_events"),
        tenant_accesses: sum("tenant_accesses"),
        sim_cycles: sum("sim_cycles"),
        pool_builds: batch.pool_builds,
        pool_checkouts: batch.pool_checkouts,
        evsets_backtracks: batch.backtracks as u64,
        evsets_sim_cycles: batch.sim_cycles as u64,
        evsets_success_ratio: batch.successes as f64 / batch.attempted as f64,
        campaign_chunks: batch.chunks_run,
        campaign_record_bytes: batch.record_bytes,
        campaign_self_share: self_ns as f64 / run_ns,
        fleet_busy_share: trial_ns as f64 / (workers as f64 * run_ns),
        fleet_tail_idle_share: tail_idle_ns as f64 / (workers as f64 * run_ns),
        trace_overhead_share: 1.0 - traced_ops_per_s / untraced_ops_per_s,
        details: vec![
            Metric {
                name: "campaign.run_ms",
                value: run_ns * 1e-6,
                unit: "ms",
            },
            Metric {
                name: "campaign.self_ms",
                value: self_ns as f64 * 1e-6,
                unit: "ms",
            },
            Metric {
                name: "fleet.tail_idle_ms",
                value: tail_idle_ns as f64 * 1e-6,
                unit: "ms",
            },
        ],
        ..PerLayer::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small slice of the sweep: the silent and quiescent cells, two
    /// trials each, one trial per chunk so both workers get work.
    fn small() -> (Vec<SweepCell>, CampaignSpec, Shape) {
        let cells: Vec<SweepCell> = cells(&spec()).into_iter().take(6).collect();
        let shape = Shape {
            trials_per_cell: 2,
            chunk_trials: 1,
            workers: 2,
        };
        let campaign = campaign_spec(&cells, 11, shape);
        (cells, campaign, shape)
    }

    fn run(name: &str, workers: usize, tracer: Option<&Tracer>) -> Batch {
        let (cells, campaign, shape) = small();
        let dir = crate::out_dir().join(format!("test-sweep-{}-{name}", std::process::id()));
        run_batch(&cells, &campaign, Shape { workers, ..shape }, &dir, tracer)
    }

    fn sorted_sim_cycles(batch: &Batch) -> Vec<u64> {
        let mut cycles: Vec<u64> = batch.trials.iter().map(|t| t.sim_cycles).collect();
        cycles.sort_unstable();
        cycles
    }

    #[test]
    fn counters_and_digest_repeat_across_runs_and_worker_counts() {
        let a = run("a", 2, None);
        let b = run("b", 2, None);
        let one = run("one", 1, None);
        for batch in [&a, &b, &one] {
            assert!(batch.problems.is_empty(), "{:?}", batch.problems);
            assert_eq!(batch.failed, 0);
            assert_eq!(batch.trials.len(), 12);
        }
        for other in [&b, &one] {
            assert_eq!(other.digest, a.digest);
            assert_eq!(other.successes, a.successes);
            assert_eq!(other.sim_cycles, a.sim_cycles);
            assert_eq!(other.backtracks, a.backtracks);
            assert_eq!(other.chunks_run, a.chunks_run);
            assert_eq!(sorted_sim_cycles(other), sorted_sim_cycles(&a));
        }
    }

    #[test]
    fn the_traced_batch_matches_the_untraced_one() {
        let plain = run("plain", 2, None);
        let tracer = Tracer::new();
        let traced = run("traced", 2, Some(&tracer));
        assert_eq!(traced.digest, plain.digest);
        let spans = tracer.spans();
        let trials = spans.iter().filter(|s| s.name == "trial").count();
        assert_eq!(trials, 12);
        assert_eq!(
            spans.iter().filter(|s| s.name == "machine.reset").count(),
            12
        );
        let layer = per_layer(&spans, &traced, &[0.001], 2, 1.0);
        assert_eq!(layer.sim_cycles as u128, traced.sim_cycles);
        assert!(layer.accesses > 0 && layer.ns_per_access > 0.0);
        assert!((0.0..=1.0).contains(&layer.campaign_self_share));
        assert!((0.0..=1.0).contains(&layer.fleet_busy_share));
    }

    #[test]
    fn cells_cover_three_algorithms_on_four_backgrounds() {
        let cells = cells(&spec());
        assert_eq!(cells.len(), 12);
        let ids: std::collections::BTreeSet<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), 12, "cell ids are unique");
        assert!(cells
            .iter()
            .all(|c| !c.filtering && c.spec.llc.num_slices() == 4));
        assert_eq!(cells.iter().filter(|c| !c.tenants.is_empty()).count(), 3);
    }
}
