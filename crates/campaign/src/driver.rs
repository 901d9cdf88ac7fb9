//! The campaign driver: flatten, stream, checkpoint, resume.
//!
//! [`Campaign::run`] turns a [`CampaignSpec`] (cells × trials, metric
//! declaration, master seed, chunk size) plus a
//! [`TrialSource`] into final per-cell
//! [`CellAggregate`]s, persisting progress to a directory as it goes:
//!
//! 1. The *chunk grid* divides the flattened global trial stream into
//!    fixed `[k·chunk, (k+1)·chunk)` ranges. Chunks — not trials, not cells
//!    — are the unit of scheduling, checkpointing and resume.
//! 2. Pending chunks are handed to the fleet's task engine
//!    (`Fleet::try_run_tasks_with`) one at a time, so the run ends at most
//!    one chunk after its first worker goes idle. A worker runs a chunk's
//!    trials in global order, folding outcomes into per-cell segment
//!    aggregates, then appends one checksummed JSONL merge record and
//!    flushes. One line of buffered state per in-flight chunk is all that
//!    ever lives in memory — resident usage is O(cells + workers·chunk),
//!    independent of total trials.
//! 3. Every trial's seed is derived `stream_seed(stream_seed(master,
//!    CELL_STREAM), cell) → trial_seed(·, trial_within_cell)` — a pure
//!    function of the campaign identity and the trial's grid coordinates.
//!    Scheduling, thread count, chunk size and kill points cannot touch it.
//!
//! **Resume proof sketch.** Final aggregates are the merge of per-chunk
//! segment aggregates over the fixed chunk grid. (a) Each chunk's record is
//! a pure function of `(spec, source, retry budget)` — per-trial seeds come
//! from grid coordinates alone, worker state is rewound per trial, and a
//! trial that panics is retried with its *same* derived seed, so a
//! deterministic panic produces the same quarantine entry on every
//! execution of its chunk. (b) The merge is exact integer
//! addition/min/max, associative and commutative, and quarantine entries
//! are keyed by grid coordinates (set union, then sorted), so *any*
//! partition of the chunk set into {loaded from disk} ∪ {re-executed},
//! merged in any order, yields the same bits — aggregates *and* quarantine
//! list. (c) A kill can only lose or truncate the **final** record line
//! (appends are single `write_all` + flush of one line); `load_records`
//! drops the damaged tail and the chunk simply re-runs under (a). (d) On
//! completion the records file is fsynced **before** the manifest's
//! `complete` flag is written (write temp → fsync temp → rename → fsync
//! directory), so a host crash cannot reorder the completion marker ahead
//! of the data it vouches for: a manifest that says `complete` implies
//! every record line is durable. Hence an interrupted campaign, resumed at
//! any thread count, produces results bit-identical to an uninterrupted
//! run — which the proptest suite (`tests/resume_props.rs`) enforces,
//! including under injected fault plans.

use crate::faults::{FaultPlan, FaultySink};
use crate::grid::CellGrid;
use crate::records::{
    encode_record, load_records, CampaignError, ChunkRecord, DirSink, LoadedRecords, Manifest,
    QuarantineRecord, RecordSink,
};
use crate::stats::{CellAggregate, TrialOutcome};
use llc_fleet::{panic_message, stream_seed, Fleet, TrialCtx, TrialSource};
use std::path::PathBuf;

/// Stream tag separating per-cell master seeds from any other use of the
/// campaign master seed.
const CELL_STREAM: u64 = u64::from_le_bytes(*b"campcell");

/// One cell of the sweep grid: a stable identifier plus its trial count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Stable identifier, rendered in reports and hashed into the campaign
    /// fingerprint. Encode the cell's parameters here.
    pub id: String,
    /// Trials this cell contributes to the global stream.
    pub trials: u64,
}

/// The full identity of a campaign: what to run and how to shard it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (directory-friendly).
    pub name: String,
    /// Master seed; every per-trial seed derives from it.
    pub master_seed: u64,
    /// Trials per checkpoint chunk.
    pub chunk_trials: u64,
    /// Names of the integer metrics every trial reports, in order.
    pub metrics: Vec<String>,
    /// The sweep cells, in grid order.
    pub cells: Vec<CellSpec>,
}

impl CampaignSpec {
    /// The flattened trial-stream geometry.
    pub fn grid(&self) -> CellGrid {
        let trials: Vec<u64> = self.cells.iter().map(|c| c.trials).collect();
        CellGrid::new(&trials)
    }

    /// The master seed of cell `cell`'s trial sub-stream.
    pub fn cell_master(&self, cell: usize) -> u64 {
        stream_seed(stream_seed(self.master_seed, CELL_STREAM), cell as u64)
    }

    /// FNV-1a fingerprint over everything that defines the trial stream:
    /// name, master seed, chunk size, metric names, cell ids and counts.
    /// Two specs with equal fingerprints produce interchangeable on-disk
    /// state; resume refuses anything else.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = String::new();
        canon.push_str(&self.name);
        canon.push('\x1f');
        canon.push_str(&format!("{:x}/{:x}", self.master_seed, self.chunk_trials));
        for m in &self.metrics {
            canon.push('\x1f');
            canon.push_str(m);
        }
        for c in &self.cells {
            canon.push('\x1e');
            canon.push_str(&c.id);
            canon.push('\x1f');
            canon.push_str(&format!("{:x}", c.trials));
        }
        crate::records::fnv1a(canon.as_bytes())
    }

    /// The manifest this spec writes into a fresh campaign directory.
    pub fn manifest(&self) -> Manifest {
        Manifest {
            name: self.name.clone(),
            master_seed: self.master_seed,
            chunk_trials: self.chunk_trials,
            total_trials: self.grid().total(),
            cells: self.cells.len() as u64,
            fingerprint: self.fingerprint(),
            complete: false,
        }
    }
}

/// Execution options for one [`Campaign::run`] call.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Stop after completing this many chunks (on top of whatever was
    /// already on disk). `None` runs to completion. This is the
    /// deterministic "kill": CI and tests use it to interrupt a campaign at
    /// an exact chunk boundary and resume it.
    pub max_chunks: Option<u64>,
    /// How many times a panicking trial is re-run (with its *same* derived
    /// seed) before it quarantines. The default of 2 gives every trial up
    /// to 3 attempts; 0 quarantines on the first panic. Retries only ever
    /// repeat a pure function of the trial's grid coordinates, so a retry
    /// that succeeds is bit-identical to a trial that never panicked.
    pub retries: u32,
    /// Deterministic fault injection for this run (dev/test knob). `None`
    /// — the default — injects nothing and runs the byte-identical
    /// production I/O path. Sticky injected panics quarantine, so a plan
    /// must be re-supplied on resume for the quarantine list to stay
    /// consistent across the runs it spans.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self { max_chunks: None, retries: 2, fault_plan: None }
    }
}

/// What a [`Campaign::run`] call did and produced: clean per-cell
/// aggregates, separated from the trials that had to be quarantined.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Final per-cell aggregates, in cell order. Only meaningful as final
    /// results when `complete` — on a partial run they cover completed
    /// chunks only. Quarantined trials are **not** folded in; a cell's
    /// aggregate covers `cell_trials - quarantined(cell)` trials.
    pub aggregates: Vec<CellAggregate>,
    /// Every quarantined trial across all recorded chunks, sorted by
    /// `(cell, trial)` — independent of thread count and of which run of a
    /// resumed campaign recorded the chunk.
    pub quarantined: Vec<QuarantineRecord>,
    /// Total chunks in the campaign.
    pub chunks_total: u64,
    /// Chunks loaded from a previous run's records.
    pub chunks_resumed: u64,
    /// Chunks executed by this call.
    pub chunks_run: u64,
    /// True when every chunk is now recorded.
    pub complete: bool,
    /// True when a partial/corrupt final record line was dropped and re-run.
    pub recovered_tail: bool,
}

/// A campaign bound to its checkpoint directory.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: CampaignSpec,
    dir: PathBuf,
}

impl Campaign {
    /// Binds `spec` to checkpoint directory `dir` (created on first run).
    pub fn new(spec: CampaignSpec, dir: impl Into<PathBuf>) -> Self {
        Self { spec, dir: dir.into() }
    }

    /// The campaign's spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Path of the merge-records file.
    pub fn records_path(&self) -> PathBuf {
        self.dir.join("records.jsonl")
    }

    /// Runs (or resumes) the campaign on `fleet`, pulling trials from
    /// `source`. See the module docs for the full lifecycle; the short
    /// version: validate or create the manifest, load valid chunk records,
    /// execute the missing chunks (appending a record per chunk), merge
    /// everything into final aggregates + quarantine list, and — on
    /// completion — durably mark the manifest complete.
    ///
    /// A trial that panics is caught, the source's
    /// [`TrialSource::on_trial_panic`] hook runs (discarding poisoned
    /// worker state), and the trial retries with its same seed up to
    /// [`RunOptions::retries`] times; a deterministic panic exhausts the
    /// budget and the trial quarantines instead of killing the fleet.
    pub fn run<S>(
        &self,
        fleet: &Fleet,
        source: &S,
        options: &RunOptions,
    ) -> Result<CampaignOutcome, CampaignError>
    where
        S: TrialSource<Item = TrialOutcome>,
    {
        match &options.fault_plan {
            Some(plan) if !plan.is_empty() => {
                let sink = FaultySink::new(DirSink::new(&self.dir), plan.clone());
                self.run_on(fleet, source, options, &sink, Some(plan))
            }
            _ => self.run_on(fleet, source, options, &DirSink::new(&self.dir), None),
        }
    }

    /// [`Campaign::run`] against an explicit [`RecordSink`] (and the fault
    /// plan driving injected *trial* panics, if any).
    fn run_on<S>(
        &self,
        fleet: &Fleet,
        source: &S,
        options: &RunOptions,
        sink: &dyn RecordSink,
        plan: Option<&FaultPlan>,
    ) -> Result<CampaignOutcome, CampaignError>
    where
        S: TrialSource<Item = TrialOutcome>,
    {
        std::fs::create_dir_all(&self.dir).map_err(|e| CampaignError::Io(e.to_string()))?;
        let already_complete = self.check_or_write_manifest(sink)?;

        let grid = self.spec.grid();
        let chunk = self.spec.chunk_trials;
        let arity = self.spec.metrics.len();
        let chunks_total = grid.chunk_count(chunk);

        let loaded = self.load_existing(sink, &grid)?;
        let mut done: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for r in &loaded.records {
            if !done.insert(r.chunk) {
                // Merging a chunk twice would silently double its trials —
                // the one corruption mode the checksum cannot see.
                return Err(CampaignError::RecordsCorrupt(format!(
                    "chunk {} recorded twice",
                    r.chunk
                )));
            }
        }
        let mut pending: Vec<u64> = (0..chunks_total).filter(|k| !done.contains(k)).collect();
        if let Some(max) = options.max_chunks {
            pending.truncate(max as usize);
        }

        let new_records = if pending.is_empty() {
            Vec::new()
        } else {
            // Truncate any recovered tail, then append one checksummed line
            // per completed chunk, in completion order. The sink serialises
            // appends; flushing per line bounds what a kill can lose to the
            // final line.
            sink.open_records(loaded.valid_len)?;
            let pending = &pending;
            let grid_ref = &grid;
            let results: Vec<Result<ChunkRecord, CampaignError>> = fleet
                .try_run_tasks_with(
                    pending.len(),
                    |worker| source.init(worker),
                    |state, i| {
                        let record = self.run_chunk(
                            grid_ref,
                            pending[i],
                            state,
                            source,
                            arity,
                            options.retries,
                            plan,
                        );
                        let line = encode_record(&record);
                        sink.append_record(&line)?;
                        Ok(record)
                    },
                )
                .map_err(|e| CampaignError::WorkerLost(e.to_string()))?;
            results.into_iter().collect::<Result<Vec<_>, _>>()?
        };

        let chunks_run = new_records.len() as u64;
        let chunks_resumed = loaded.records.len() as u64;
        let mut aggregates: Vec<CellAggregate> =
            (0..self.spec.cells.len()).map(|_| CellAggregate::empty(arity)).collect();
        let mut quarantined: Vec<QuarantineRecord> = Vec::new();
        for record in loaded.records.iter().chain(&new_records) {
            for (cell, segment) in &record.segments {
                aggregates[*cell].merge(segment);
            }
            quarantined.extend(record.quarantined.iter().cloned());
        }
        // Chunks are disjoint, so (cell, trial) keys are unique; sorting
        // makes the list independent of append order (thread schedule).
        quarantined.sort_by_key(|q| (q.cell, q.trial));

        let complete = chunks_resumed + chunks_run == chunks_total;
        if complete && (chunks_run > 0 || !already_complete) {
            // Durability ordering (module docs, point d): data first, then
            // the completion marker. `sync_records` must not fail silently —
            // a completion marker over un-fsynced data is the exact lie this
            // ordering exists to prevent.
            sink.sync_records()?;
            let mut manifest = self.spec.manifest();
            manifest.complete = true;
            sink.write_manifest(&format!("{}\n", manifest.encode()))?;
        }

        Ok(CampaignOutcome {
            aggregates,
            quarantined,
            chunks_total,
            chunks_resumed,
            chunks_run,
            complete,
            recovered_tail: loaded.recovered_tail,
        })
    }

    /// Executes one chunk of the global stream, folding per-cell segments
    /// and quarantining trials whose panic survives the retry budget.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk<S>(
        &self,
        grid: &CellGrid,
        chunk_index: u64,
        state: &mut S::Worker,
        source: &S,
        arity: usize,
        retries: u32,
        plan: Option<&FaultPlan>,
    ) -> ChunkRecord
    where
        S: TrialSource<Item = TrialOutcome>,
    {
        let (start, end) = grid.chunk_range(self.spec.chunk_trials, chunk_index);
        let mut segments: Vec<(usize, CellAggregate)> = Vec::new();
        let mut quarantined: Vec<QuarantineRecord> = Vec::new();
        for global in start..end {
            let (cell, within) = grid.locate(global);
            // Every cell the range touches gets a segment up front, so a
            // fully-quarantined stretch still tiles the range on disk.
            match segments.last() {
                Some((c, _)) if *c == cell => {}
                _ => segments.push((cell, CellAggregate::empty(arity))),
            }
            let ctx =
                TrialCtx::derive(self.spec.cell_master(cell), within as usize, grid
                    .cell_trials(cell) as usize);
            let mut attempt: u32 = 0;
            loop {
                // The catch_unwind boundary is per *attempt*: a panic never
                // crosses a trial, so one bad trial cannot take down the
                // worker (or the fleet). Worker state is treated as poisoned
                // after a panic — the source's hook discards it.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(plan) = plan {
                        if plan.trial_panics(global, attempt) {
                            panic!("injected fault: trial {global}");
                        }
                    }
                    source.run_trial(state, cell, ctx)
                }));
                match run {
                    Ok(outcome) => {
                        segments.last_mut().expect("segment pushed above").1.record(&outcome);
                        break;
                    }
                    Err(payload) => {
                        source.on_trial_panic(state);
                        if attempt >= retries {
                            // Same seed, same panic on every attempt: the
                            // reason below is identical no matter when or
                            // where this chunk runs.
                            quarantined.push(QuarantineRecord {
                                cell,
                                trial: within,
                                attempts: attempt + 1,
                                reason: panic_message(payload.as_ref()),
                            });
                            break;
                        }
                        attempt += 1;
                    }
                }
            }
        }
        ChunkRecord { chunk: chunk_index, start, end, segments, quarantined }
    }

    /// Validates an existing manifest against the spec (ignoring the
    /// mutable `complete` flag) or writes a fresh one. Returns whether the
    /// directory was already durably marked complete.
    fn check_or_write_manifest(&self, sink: &dyn RecordSink) -> Result<bool, CampaignError> {
        let want = self.spec.manifest();
        match sink.read_manifest()? {
            Some(text) => {
                let found = Manifest::decode(&text)?;
                if !found.same_campaign(&want) {
                    return Err(CampaignError::ManifestMismatch(format!(
                        "directory belongs to campaign '{}' (fingerprint {:016x}), \
                         spec is '{}' (fingerprint {:016x})",
                        found.name, found.fingerprint, want.name, want.fingerprint
                    )));
                }
                Ok(found.complete)
            }
            None => {
                sink.write_manifest(&format!("{}\n", want.encode()))?;
                Ok(false)
            }
        }
    }

    fn load_existing(
        &self,
        sink: &dyn RecordSink,
        grid: &CellGrid,
    ) -> Result<LoadedRecords, CampaignError> {
        let Some(bytes) = sink.read_records()? else {
            return Ok(LoadedRecords { records: Vec::new(), valid_len: 0, recovered_tail: false });
        };
        // Lossy conversion: invalid UTF-8 becomes replacement characters,
        // which fail the line checksum and are then classified by position —
        // recoverable kill artifact if final, corruption otherwise. (The
        // replacement may change byte lengths, but only *after* the valid
        // prefix, so `valid_len` stays an exact file offset.)
        let contents = String::from_utf8_lossy(&bytes);
        load_records(&contents, grid, self.spec.chunk_trials, self.spec.metrics.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic synthetic source: outcome is a hash of (cell, seed).
    pub(crate) struct Synthetic;

    impl TrialSource for Synthetic {
        type Worker = ();
        type Item = TrialOutcome;
        fn init(&self, _worker: usize) {}
        fn run_trial(&self, _w: &mut (), cell: usize, ctx: TrialCtx) -> TrialOutcome {
            let v = llc_fleet::mix64(ctx.seed ^ (cell as u64) << 32);
            TrialOutcome { success: v % 3 == 0, metrics: vec![v >> 32, v & 0xffff] }
        }
    }

    fn spec(name: &str, cells: &[u64], chunk: u64) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            master_seed: 0xc0ffee,
            chunk_trials: chunk,
            metrics: vec!["alpha".into(), "beta".into()],
            cells: cells
                .iter()
                .enumerate()
                .map(|(i, &t)| CellSpec { id: format!("cell{i}"), trials: t })
                .collect(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("llc-campaign-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn full_run_is_thread_invariant_and_complete() {
        let spec = spec("threads", &[5, 3, 9], 4);
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let dir = tmp_dir(&format!("threads{threads}"));
            let campaign = Campaign::new(spec.clone(), &dir);
            let report = campaign
                .run(&Fleet::new(threads), &Synthetic, &RunOptions::default())
                .unwrap();
            assert!(report.complete);
            assert_eq!(report.chunks_run, report.chunks_total);
            reports.push(report.aggregates);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert_eq!(reports[0].iter().map(|a| a.trials).sum::<u64>(), 17);
    }

    #[test]
    fn max_chunks_then_resume_matches_uninterrupted() {
        let spec = spec("resume", &[7, 7, 2], 3);
        let dir_a = tmp_dir("resume-a");
        let uninterrupted = Campaign::new(spec.clone(), &dir_a)
            .run(&Fleet::new(2), &Synthetic, &RunOptions::default())
            .unwrap();

        let dir_b = tmp_dir("resume-b");
        let campaign = Campaign::new(spec, &dir_b);
        let first = campaign
            .run(
                &Fleet::new(2),
                &Synthetic,
                &RunOptions { max_chunks: Some(2), ..RunOptions::default() },
            )
            .unwrap();
        assert!(!first.complete);
        assert_eq!(first.chunks_run, 2);
        let second = campaign.run(&Fleet::new(8), &Synthetic, &RunOptions::default()).unwrap();
        assert!(second.complete);
        assert_eq!(second.chunks_resumed, 2);
        assert_eq!(second.aggregates, uninterrupted.aggregates);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn mismatched_spec_is_refused() {
        let dir = tmp_dir("mismatch");
        Campaign::new(spec("one", &[4], 2), &dir)
            .run(&Fleet::single(), &Synthetic, &RunOptions::default())
            .unwrap();
        let err = Campaign::new(spec("two", &[4], 2), &dir)
            .run(&Fleet::single(), &Synthetic, &RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, CampaignError::ManifestMismatch(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Panics deterministically on a chosen trial (by global cell/within
    /// coordinates); `flaky_first_attempts` makes the panic transient by
    /// healing once the worker has seen it that many times.
    struct Panicky {
        cell: usize,
        within: u64,
        transient: bool,
    }

    impl TrialSource for Panicky {
        type Worker = std::cell::Cell<u32>;
        type Item = TrialOutcome;
        fn init(&self, _worker: usize) -> Self::Worker {
            std::cell::Cell::new(0)
        }
        fn run_trial(
            &self,
            seen: &mut Self::Worker,
            cell: usize,
            ctx: TrialCtx,
        ) -> TrialOutcome {
            if cell == self.cell && ctx.trial as u64 == self.within {
                let prior = seen.get();
                seen.set(prior + 1);
                if !self.transient || prior == 0 {
                    panic!("synthetic failure at cell {cell} trial {}", ctx.trial);
                }
            }
            Synthetic.run_trial(&mut (), cell, ctx)
        }
    }

    #[test]
    fn a_transient_panic_heals_with_the_same_seed_and_leaves_no_trace() {
        let spec = spec("transient", &[5, 3], 4);
        let dir_clean = tmp_dir("transient-clean");
        let clean = Campaign::new(spec.clone(), &dir_clean)
            .run(&Fleet::single(), &Synthetic, &RunOptions::default())
            .unwrap();

        let dir = tmp_dir("transient-flaky");
        let flaky = Campaign::new(spec, &dir)
            .run(
                &Fleet::single(),
                &Panicky { cell: 1, within: 1, transient: true },
                &RunOptions::default(),
            )
            .unwrap();
        assert!(flaky.complete);
        assert!(flaky.quarantined.is_empty());
        // The retried trial reran with its same derived seed, so the healed
        // run is bit-identical to one that never panicked.
        assert_eq!(flaky.aggregates, clean.aggregates);
        let _ = std::fs::remove_dir_all(&dir_clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deterministic_panic_quarantines_instead_of_killing_the_run() {
        let spec = spec("quarantine", &[5, 3], 4);
        let dir = tmp_dir("quarantine");
        let outcome = Campaign::new(spec, &dir)
            .run(
                &Fleet::new(2),
                &Panicky { cell: 0, within: 2, transient: false },
                &RunOptions::default(),
            )
            .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.quarantined.len(), 1);
        let q = &outcome.quarantined[0];
        assert_eq!((q.cell, q.trial), (0, 2));
        assert_eq!(q.attempts, 3, "default retries=2 means 3 attempts");
        assert_eq!(q.reason, "synthetic failure at cell 0 trial 2");
        // The quarantined trial is excluded from its cell's aggregate; every
        // other trial is unaffected.
        assert_eq!(outcome.aggregates[0].trials, 4);
        assert_eq!(outcome.aggregates[1].trials, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_retries_quarantines_on_the_first_panic() {
        let spec = spec("zero-retries", &[4], 2);
        let dir = tmp_dir("zero-retries");
        let outcome = Campaign::new(spec, &dir)
            .run(
                &Fleet::single(),
                &Panicky { cell: 0, within: 0, transient: true },
                &RunOptions { retries: 0, ..RunOptions::default() },
            )
            .unwrap();
        // Transient would have healed on attempt 2, but the budget is 0.
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!(outcome.quarantined[0].attempts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_survives_resume_and_is_thread_invariant() {
        let spec = spec("quarantine-resume", &[7, 7, 2], 3);
        let source = Panicky { cell: 1, within: 4, transient: false };
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 8] {
            let dir = tmp_dir(&format!("qresume{threads}"));
            let campaign = Campaign::new(spec.clone(), &dir);
            let first = campaign
                .run(
                    &Fleet::new(threads),
                    &source,
                    &RunOptions { max_chunks: Some(3), ..RunOptions::default() },
                )
                .unwrap();
            assert!(!first.complete);
            let second =
                campaign.run(&Fleet::new(threads), &source, &RunOptions::default()).unwrap();
            assert!(second.complete);
            outcomes.push((second.aggregates, second.quarantined));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        assert_eq!(outcomes[0].1.len(), 1);
    }

    #[test]
    fn completion_marks_the_manifest_durably() {
        let spec = spec("completion", &[4], 2);
        let dir = tmp_dir("completion");
        let campaign = Campaign::new(spec.clone(), &dir);
        campaign.run(&Fleet::single(), &Synthetic, &RunOptions::default()).unwrap();
        let text = std::fs::read_to_string(campaign.manifest_path()).unwrap();
        let manifest = Manifest::decode(&text).unwrap();
        assert!(manifest.complete);
        assert!(manifest.same_campaign(&spec.manifest()));
        // Re-running a complete campaign is a no-op that still reports the
        // merged results.
        let again = campaign.run(&Fleet::single(), &Synthetic, &RunOptions::default()).unwrap();
        assert!(again.complete);
        assert_eq!(again.chunks_run, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_clean_error() {
        let dir = tmp_dir("corrupt-manifest");
        let campaign = Campaign::new(spec("corrupt", &[4], 2), &dir);
        campaign.run(&Fleet::single(), &Synthetic, &RunOptions::default()).unwrap();
        std::fs::write(campaign.manifest_path(), "{definitely not json").unwrap();
        let err = campaign
            .run(&Fleet::single(), &Synthetic, &RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, CampaignError::ManifestCorrupt(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
