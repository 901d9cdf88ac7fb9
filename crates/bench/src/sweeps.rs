//! Campaign presets: the pruning experiments expressed as `llc-campaign`
//! sweep cells over one shared machine pool.
//!
//! The per-table binaries each render one slice of the parameter space; the
//! `campaign` binary instead flattens an N-dimensional grid — hierarchy
//! scenario × noise level × algorithm — into a single resumable trial
//! stream. [`PruningSweep`] is the [`TrialSource`] behind it: every cell is
//! one `(machine configuration, algorithm)` pair, workers keep the machine
//! of the cell they are currently streaming checked out of a shared
//! [`MachinePool`], and consecutive trials of the same configuration pay
//! only a snapshot rewind, never a rebuild — even across cells, because the
//! pool key hashes the machine configuration and *not* the algorithm.
//!
//! [`PruningSweep::run_trial`] is the one implementation of the pruning
//! trial: the `table3`, `table4` and `icelake` reports run their cells
//! through it too ([`measure_single_sets`](crate::experiments::measure_single_sets)),
//! with trial seeds derived from the table's master seed rather than from
//! campaign grid coordinates.
//!
//! Determinism: one canonical build seed per sweep (derived from its master
//! seed), per-trial noise and allocation streams derived from the trial's
//! context, and integer metrics so the campaign layer's exact aggregation
//! applies.

use crate::experiments::{trial_streams, Environment};
use crate::RunOpts;
use llc_campaign::{
    CampaignSpec, CellAggregate, CellSpec, QuarantineRecord, TrialOutcome, TrialSource,
};
use llc_cache_model::{CacheSpec, HierarchyOptions, InclusionPolicy, ReplacementKind, SliceHash};
use llc_evsets::{oracle, EvsetBuilder, EvsetConfig, TargetCache};
use llc_fleet::{stream_seed, TrialCtx};
use llc_machine::{
    ChurnConfig, Machine, MachinePool, NoiseFidelity, NoiseModel, PooledMachine, TenantPopulation,
    WorkloadKind,
};
use llc_core::Algorithm;
use std::sync::Arc;

/// The integer metrics every sweep trial reports, in declaration order.
pub const SWEEP_METRICS: [&str; 3] = ["total_cycles", "backtracks", "filter_cycles"];

/// One cell of a pruning sweep: a fully configured machine plus the
/// algorithm to run on it.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Stable cell identifier (rendered in reports, hashed into the
    /// campaign fingerprint).
    pub id: String,
    /// Fully configured host spec (hierarchy scenario already applied).
    pub spec: CacheSpec,
    /// Background-noise model of the cell.
    pub noise: NoiseModel,
    /// Pruning algorithm under test.
    pub algorithm: Algorithm,
    /// Candidate filtering on (Table 4 protocol) or off (Table 3 protocol).
    pub filtering: bool,
    /// Background tenant population co-resident on the cell's host (empty
    /// for the single-attacker/single-victim cells of the pruning sweeps).
    pub tenants: TenantPopulation,
}

/// A resumable pruning sweep: cells × trials streamed through one shared
/// machine pool. Implements [`TrialSource`] for [`llc_campaign::Campaign`].
#[derive(Debug)]
pub struct PruningSweep {
    cells: Vec<SweepCell>,
    fidelity: NoiseFidelity,
    /// Canonical build seed shared by every cell, so cells that share a
    /// machine configuration share pool keys (and therefore machines).
    build_seed: u64,
    /// Per-trial virtual-time watchdog: when set, every trial arms the
    /// machine's budget so a runaway trial panics deterministically (and
    /// the campaign layer quarantines it) instead of spinning forever.
    trial_budget: Option<u64>,
    pool: Arc<MachinePool>,
}

impl PruningSweep {
    /// Builds the sweep source. `master_seed` must be the campaign's master
    /// seed: the canonical machine build seed derives from it, so two runs
    /// of the same campaign construct byte-identical machines.
    ///
    /// The [`HierarchyOptions`] argument is ignored; it is kept only because
    /// the repository benchmark (`perfbench/`) still passes it, and goes with
    /// the next change to the benchmark.
    pub fn new(
        cells: Vec<SweepCell>,
        fidelity: NoiseFidelity,
        _hierarchy: HierarchyOptions,
        master_seed: u64,
    ) -> Self {
        Self {
            cells,
            fidelity,
            build_seed: stream_seed(master_seed, trial_streams::MACHINE),
            trial_budget: None,
            pool: MachinePool::new(),
        }
    }

    /// Arms a per-trial virtual-time budget (in simulated cycles). The
    /// budget is checked at the machine's single clock-advance choke point,
    /// so overrunning trials panic with a deterministic message — identical
    /// on every retry — and end up quarantined rather than hanging a worker.
    pub fn with_trial_budget(mut self, budget: Option<u64>) -> Self {
        self.trial_budget = budget;
        self
    }

    /// The sweep's cells, in campaign cell order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// The shared machine pool (its [`llc_machine::PoolStats`] pin the
    /// O(workers × distinct configurations) construction bound).
    pub fn pool(&self) -> &Arc<MachinePool> {
        &self.pool
    }

    /// Pool key of a cell's machine configuration. Deliberately excludes
    /// the algorithm and the cell id: cells differing only in algorithm
    /// check out the same machines.
    fn pool_key(&self, cell: &SweepCell) -> u64 {
        llc_machine::config_key(
            format!(
                "sweep|{:?}|{:?}|{:?}|{:?}|{:x}",
                cell.spec, cell.noise, self.fidelity, cell.tenants, self.build_seed
            )
            .as_bytes(),
        )
    }

    fn build_machine(&self, cell: &SweepCell) -> Machine {
        Machine::builder(cell.spec.clone())
            .noise(cell.noise.clone())
            .noise_fidelity(self.fidelity)
            .tenants(cell.tenants.clone())
            .seed(self.build_seed)
            .build()
    }
}

impl TrialSource for PruningSweep {
    /// Each worker holds the machine of the cell it is currently streaming;
    /// it goes back to the pool when the worker crosses into a cell with a
    /// different machine configuration (or when the worker retires).
    type Worker = Option<PooledMachine>;
    type Item = TrialOutcome;

    fn init(&self, _worker: usize) -> Option<PooledMachine> {
        None
    }

    fn run_trial(&self, held: &mut Option<PooledMachine>, cell: usize, ctx: TrialCtx) -> TrialOutcome {
        let cell = &self.cells[cell];
        let key = self.pool_key(cell);
        if held.as_ref().map(PooledMachine::key) != Some(key) {
            // Check the previous cell's machine back in *before* acquiring,
            // so a sibling worker can pick it up instead of building.
            *held = None;
            *held = Some(self.pool.acquire(key, || self.build_machine(cell)));
        }
        let machine = held.as_mut().expect("machine just acquired");
        machine.reset();
        machine.reseed(ctx.stream(trial_streams::NOISE));
        match self.trial_budget {
            Some(budget) => machine.arm_trial_budget(budget),
            None => machine.disarm_trial_budget(),
        }
        let mut rng = ctx.stream_rng(trial_streams::ALLOC);

        let config = if cell.filtering { EvsetConfig::filtered() } else { EvsetConfig::unfiltered() };
        let algo = cell.algorithm.instance();
        let builder = EvsetBuilder::new(algo.as_ref())
            .config(config)
            .target(TargetCache::Sf)
            .filtering(cell.filtering);
        let result = builder.build_random_set(machine, &mut rng);
        let success = match &result.eviction_set {
            Some(set) => {
                let ta = set.addresses()[0];
                oracle::is_true_eviction_set(machine, ta, set.addresses(), cell.spec.sf.ways())
            }
            None => false,
        };
        TrialOutcome {
            success,
            metrics: vec![result.total_cycles, result.backtracks as u64, result.filter_cycles],
        }
    }

    /// A trial panicked mid-run, so the held machine's state is suspect
    /// (half-applied accesses, mid-churn population). Discard it instead of
    /// returning it to the pool: the retry — and every later trial — starts
    /// from a freshly built (or cleanly pooled) machine.
    fn on_trial_panic(&self, held: &mut Option<PooledMachine>) {
        if let Some(machine) = held.take() {
            machine.discard();
        }
    }
}

/// A named preset: the campaign spec plus its trial source, ready to hand
/// to [`llc_campaign::Campaign::run`].
#[derive(Debug)]
pub struct SweepPreset {
    /// The campaign identity (cells, trials, seeds, chunking).
    pub spec: CampaignSpec,
    /// The trial source executing those cells.
    pub source: PruningSweep,
}

/// The preset names [`build_preset`] understands.
pub const PRESETS: [&str; 3] = ["table3-sweep", "noise-grid", "coresidency-grid"];

/// Builds a named campaign preset under the given run options. `--smoke`
/// pins the 4-slice host and one trial per cell (the CI golden
/// configuration); full runs use the `LLC_SLICES`-scaled host and
/// `LLC_TRIALS` trials per cell. Returns `None` for unknown names.
pub fn build_preset(name: &str, opts: &RunOpts) -> Option<SweepPreset> {
    match name {
        "table3-sweep" => Some(table3_sweep(opts)),
        "noise-grid" => Some(noise_grid(opts)),
        "coresidency-grid" => Some(coresidency_grid(opts)),
        _ => None,
    }
}

/// The hierarchy-scenario sweep: `--inclusion` × `--slice-hash` ×
/// `--replacement` over the Table 3 pruning protocol (no candidate
/// filtering, quiescent-local noise), every scenario × every Table 3
/// algorithm as one campaign. Scenarios that share a machine configuration
/// across algorithms share built machines through the pool.
fn table3_sweep(opts: &RunOpts) -> SweepPreset {
    let inclusions =
        [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive];
    let slice_hashes = [SliceHash::XorFold, SliceHash::Modulo];
    let replacements = [None, Some(ReplacementKind::Srrip)];
    let algorithms = [Algorithm::Gt, Algorithm::GtOp, Algorithm::BinS];

    let mut cells = Vec::new();
    for inclusion in inclusions {
        for slice_hash in slice_hashes {
            for replacement in replacements {
                // Reuse the binaries' scenario plumbing so cell specs (and
                // their report names) match what `table3 --inclusion ...`
                // would build.
                let scenario = RunOpts { inclusion, slice_hash, replacement, ..opts.clone() };
                let spec = scenario.spec();
                for algorithm in algorithms {
                    cells.push(SweepCell {
                        id: format!(
                            "{}|{}|{}|{}",
                            algorithm.name(),
                            inclusion.label(),
                            slice_hash.label(),
                            replacement.map_or("preset", ReplacementKind::label),
                        ),
                        spec: spec.clone(),
                        noise: Environment::QuiescentLocal.noise(),
                        algorithm,
                        filtering: false,
                        tenants: TenantPopulation::empty(),
                    });
                }
            }
        }
    }
    preset_from_cells("table3-sweep", 0x3a_b1e5, cells, opts)
}

/// The noise-level sweep: background access rate × algorithm over the
/// Table 3 protocol on the default hierarchy, from silent to 2× Cloud Run.
fn noise_grid(opts: &RunOpts) -> SweepPreset {
    let levels: [(u64, f64); 4] = [(0, 0.0), (29, 0.29), (1150, 11.5), (2300, 23.0)];
    let algorithms = [Algorithm::Gt, Algorithm::GtOp, Algorithm::BinS];
    let spec = opts.spec();
    let mut cells = Vec::new();
    for (tag, per_ms) in levels {
        let noise = NoiseModel::from_accesses_per_ms(
            per_ms,
            spec.freq_ghz,
            &format!("{per_ms}/ms"),
        );
        for algorithm in algorithms {
            cells.push(SweepCell {
                id: format!("{}|{}.{:02}ms", algorithm.name(), tag / 100, tag % 100),
                spec: spec.clone(),
                noise: noise.clone(),
                algorithm,
                filtering: false,
                tenants: TenantPopulation::empty(),
            });
        }
    }
    preset_from_cells("noise-grid", 0x4015_e91d, cells, opts)
}

/// The co-residency sweep: neighbour count × dwell time × workload mix,
/// reporting the attack success rate (GtOp eviction-set construction
/// verified by oracle, the Table 3 protocol) per population cell. The
/// statistical noise floor is quiescent-local so the *modelled* tenants are
/// the dominant interference; `static` cells pin the population for the
/// whole trial, `dwell` cells churn it with the paper's
/// exponential-dwell migration model.
fn coresidency_grid(opts: &RunOpts) -> SweepPreset {
    let counts = [1usize, 3];
    let dwell_ms = [0.0f64, 2.0];
    // The mixed rotation starts at batch-scan so every (mix, count) pair is
    // a distinct population (a rotation starting at idle would alias
    // `mixed|n1` onto `idle|n1`).
    let mixes: [(&str, &[WorkloadKind]); 3] = [
        ("idle", &[WorkloadKind::Idle]),
        ("bursty", &[WorkloadKind::BurstyWeb]),
        ("mixed", &[WorkloadKind::BatchScan, WorkloadKind::Idle, WorkloadKind::BurstyWeb]),
    ];
    let spec = opts.spec();
    let mut cells = Vec::new();
    for (mix_name, kinds) in mixes {
        for count in counts {
            for dwell in dwell_ms {
                let mut tenants = TenantPopulation {
                    workloads: (0..count).map(|i| kinds[i % kinds.len()]).collect(),
                    churn: None,
                };
                let dwell_label = if dwell > 0.0 {
                    tenants.churn =
                        Some(ChurnConfig { mean_dwell_cycles: dwell * spec.freq_ghz * 1e6 });
                    format!("dwell{dwell:.0}ms")
                } else {
                    "static".to_string()
                };
                cells.push(SweepCell {
                    id: format!("{mix_name}|n{count}|{dwell_label}"),
                    spec: spec.clone(),
                    noise: Environment::QuiescentLocal.noise(),
                    algorithm: Algorithm::GtOp,
                    filtering: false,
                    tenants,
                });
            }
        }
    }
    preset_from_cells("coresidency-grid", 0xc0_5e5d, cells, opts)
}

fn preset_from_cells(
    name: &str,
    master_seed: u64,
    cells: Vec<SweepCell>,
    opts: &RunOpts,
) -> SweepPreset {
    let trials_per_cell = opts.trials(1, 4) as u64;
    let spec = CampaignSpec {
        // Smoke campaigns get their own name (and so fingerprint): their
        // on-disk state must never be resumed by a full-size run.
        name: if opts.smoke { format!("{name}-smoke") } else { name.to_string() },
        master_seed,
        chunk_trials: if opts.smoke { 4 } else { 8 },
        metrics: SWEEP_METRICS.iter().map(|m| m.to_string()).collect(),
        cells: cells
            .iter()
            .map(|c| CellSpec { id: c.id.clone(), trials: trials_per_cell })
            .collect(),
    };
    let source = PruningSweep::new(cells, opts.fidelity, HierarchyOptions, master_seed);
    SweepPreset { spec, source }
}

/// Renders the consolidated campaign report. Pure function of the campaign
/// identity, its final aggregates and its quarantine list — chunk
/// scheduling, thread count and resume history cannot appear in it, which
/// is what lets CI diff the output of a killed-and-resumed campaign
/// against the uninterrupted golden byte for byte. A campaign with no
/// quarantined trials renders exactly as it did before quarantine existed,
/// so fault-free goldens are stable.
pub fn render_report(
    spec: &CampaignSpec,
    cells: &[SweepCell],
    aggregates: &[CellAggregate],
    quarantined: &[QuarantineRecord],
) -> String {
    use std::fmt::Write as _;
    assert_eq!(cells.len(), aggregates.len(), "one aggregate per cell");
    let total: u64 = aggregates.iter().map(|a| a.trials).sum();
    let mut out = String::new();
    let _ = writeln!(out, "Campaign '{}' — {} cells, {} trials", spec.name, cells.len(), total);
    let _ = writeln!(
        out,
        "{:<34} {:>7} {:>8} {:>10} {:>10} {:>11} {:>9}",
        "Cell", "Trials", "Succ.", "Avg (ms)", "Max (ms)", "Backtracks", "Filter%"
    );
    for (cell, agg) in cells.iter().zip(aggregates) {
        let to_ms = |cycles: f64| crate::cycles_to_ms(cycles, cell.spec.freq_ghz);
        let cycles = &agg.metrics[0];
        let backtracks = &agg.metrics[1];
        let filter: u128 = agg.metrics[2].sum;
        let filter_share = if cycles.sum > 0 { filter as f64 / cycles.sum as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<34} {:>7} {:>8} {:>10.2} {:>10.2} {:>11.2} {:>9}",
            cell.id,
            agg.trials,
            crate::pct(agg.success_rate().unwrap_or(0.0)),
            to_ms(cycles.mean().unwrap_or(0.0)),
            to_ms(cycles.max as f64),
            backtracks.mean().unwrap_or(0.0),
            crate::pct(filter_share),
        );
    }
    if !quarantined.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "QUARANTINED ({} trials)", quarantined.len());
        for q in quarantined {
            let _ = writeln!(
                out,
                "  {} trial {} after {} attempts: {}",
                cells[q.cell].id, q.trial, q.attempts, q.reason
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_and_share_pool_keys_across_algorithms() {
        let opts = RunOpts::smoke_with_threads(1);
        let preset = build_preset("table3-sweep", &opts).expect("known preset");
        // 3 inclusion × 2 slice hash × 2 replacement × 3 algorithms.
        assert_eq!(preset.source.cells().len(), 36);
        assert_eq!(preset.spec.cells.len(), 36);
        assert!(preset.spec.name.ends_with("-smoke"));
        // Cells differing only in algorithm share a machine configuration:
        // 36 cells collapse onto 12 distinct pool keys.
        let keys: std::collections::HashSet<u64> =
            preset.source.cells().iter().map(|c| preset.source.pool_key(c)).collect();
        assert_eq!(keys.len(), 12);
        assert!(build_preset("no-such-preset", &opts).is_none());
    }

    #[test]
    fn noise_grid_varies_noise_not_geometry() {
        let opts = RunOpts::smoke_with_threads(1);
        let preset = build_preset("noise-grid", &opts).expect("known preset");
        assert_eq!(preset.source.cells().len(), 12);
        let keys: std::collections::HashSet<u64> =
            preset.source.cells().iter().map(|c| preset.source.pool_key(c)).collect();
        // 4 noise levels → 4 machine configurations.
        assert_eq!(keys.len(), 4);
        let specs: std::collections::HashSet<&str> =
            preset.source.cells().iter().map(|c| c.spec.name.as_str()).collect();
        assert_eq!(specs.len(), 1, "geometry is fixed; only noise varies");
    }

    #[test]
    fn coresidency_grid_varies_population_not_geometry() {
        let opts = RunOpts::smoke_with_threads(1);
        let preset = build_preset("coresidency-grid", &opts).expect("known preset");
        // 3 mixes × 2 neighbour counts × 2 dwell settings.
        assert_eq!(preset.source.cells().len(), 12);
        for cell in preset.source.cells() {
            assert!(!cell.tenants.is_empty(), "every cell hosts neighbours: {}", cell.id);
            assert_eq!(
                cell.id.ends_with("static"),
                cell.tenants.churn.is_none(),
                "churn setting must match the cell id: {}",
                cell.id
            );
        }
        // Every population is a distinct machine configuration (the pool key
        // hashes the tenant population), but geometry and noise are fixed.
        let keys: std::collections::HashSet<u64> =
            preset.source.cells().iter().map(|c| preset.source.pool_key(c)).collect();
        assert_eq!(keys.len(), 12);
        let specs: std::collections::HashSet<&str> =
            preset.source.cells().iter().map(|c| c.spec.name.as_str()).collect();
        assert_eq!(specs.len(), 1, "geometry is fixed; only the population varies");
    }

    #[test]
    fn report_rendering_is_a_pure_function_of_aggregates() {
        let opts = RunOpts::smoke_with_threads(1);
        let preset = build_preset("noise-grid", &opts).expect("known preset");
        let aggregates: Vec<CellAggregate> = preset
            .spec
            .cells
            .iter()
            .map(|_| {
                let mut agg = CellAggregate::empty(SWEEP_METRICS.len());
                agg.record(&TrialOutcome { success: true, metrics: vec![2_000_000, 3, 500_000] });
                agg
            })
            .collect();
        let a = render_report(&preset.spec, preset.source.cells(), &aggregates, &[]);
        let b = render_report(&preset.spec, preset.source.cells(), &aggregates, &[]);
        assert_eq!(a, b);
        assert!(a.contains("12 cells, 12 trials"), "{a}");
        assert!(a.contains("100.0%"), "{a}");
        assert!(!a.contains("QUARANTINED"), "fault-free reports carry no quarantine section");

        let quarantined = vec![QuarantineRecord {
            cell: 0,
            trial: 3,
            attempts: 3,
            reason: "trial budget exhausted: 1000 virtual cycles".to_string(),
        }];
        let q = render_report(&preset.spec, preset.source.cells(), &aggregates, &quarantined);
        assert!(q.starts_with(&a), "quarantine section strictly appends");
        assert!(q.contains("QUARANTINED (1 trials)"), "{q}");
        assert!(q.contains("trial 3 after 3 attempts: trial budget exhausted"), "{q}");
    }

    #[test]
    fn trial_budget_panics_deterministically_and_discards_the_machine() {
        let opts = RunOpts::smoke_with_threads(1);
        let preset = build_preset("noise-grid", &opts).expect("known preset");
        // A budget far below any real trial cost: the first timed access
        // blows it. Two attempts must produce the identical panic message
        // (that message becomes the stable quarantine reason).
        let source = preset.source.with_trial_budget(Some(1));
        let ctx = llc_fleet::TrialCtx::derive(0x5eed, 0, 4);
        let mut messages = Vec::new();
        for _ in 0..2 {
            let mut held = source.init(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                source.run_trial(&mut held, 0, ctx);
            }))
            .expect_err("a 1-cycle budget cannot complete a trial");
            source.on_trial_panic(&mut held);
            assert!(held.is_none(), "panicked trial's machine must be discarded");
            messages.push(llc_fleet::panic_message(caught.as_ref()));
        }
        assert_eq!(messages[0], messages[1]);
        assert_eq!(messages[0], "trial budget exhausted: 1 virtual cycles");
        assert!(source.pool().stats().discards >= 2, "discards must hit the pool counter");
    }
}
