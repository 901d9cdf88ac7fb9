//! The scoped-thread trial executor.
//!
//! No crates.io access means no rayon; the pool is a `std::thread::scope`
//! with a single chunked atomic cursor as the work queue. Workers grab
//! contiguous chunks of trial indices (`fetch_add`), so there is no lock, no
//! channel, and idle workers naturally steal the remaining trials from slow
//! ones. Determinism does not depend on the schedule: each trial's behaviour
//! is a pure function of its [`TrialCtx`] (derived seed), and results are
//! re-assembled in trial order before they are returned.

use crate::seed::{stream_seed, trial_seed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A typed executor failure: which worker died and what was lost.
///
/// The fleet's workers are panic-free by contract (trial jobs are supposed
/// to catch their own failures — see the campaign driver's retry/quarantine
/// layer), so a worker panic reaching the join is a harness bug. The fallible
/// entry point [`Fleet::try_run_tasks_with`] surfaces it as this error
/// instead of re-panicking on the joining thread, which previously turned
/// one dead worker into a context-free double-panic abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// A worker thread panicked; every result it had buffered is gone.
    WorkerPanic {
        /// Index of the worker thread that died (`0..workers`).
        worker: usize,
        /// How many task results were lost fleet-wide: `tasks` minus the
        /// results recovered from workers that finished cleanly.
        results_lost: usize,
        /// The panic payload, when it was a string (the common case); a
        /// placeholder otherwise.
        payload: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::WorkerPanic { worker, results_lost, payload } => write!(
                f,
                "fleet worker {worker} panicked ({results_lost} task result(s) lost): {payload}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Renders a panic payload (from `JoinHandle::join` or
/// `std::panic::catch_unwind`) as a human-readable string: the payload
/// itself when it was a `String`/`&str` (the overwhelmingly common case), a
/// placeholder otherwise. Used for [`FleetError`] and by the campaign
/// layer's quarantine records, whose reasons must be *stable* across
/// retries — panic messages carry no attempt numbers or addresses.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Everything a trial may depend on: its index and its derived seed.
///
/// A trial that uses only `TrialCtx` (plus immutable captured state and
/// worker-local state rewound per trial, e.g. a machine reset from a
/// snapshot) is deterministic regardless of which worker runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// This trial's index, `0..trials`.
    pub trial: usize,
    /// Total number of trials in the sweep.
    pub trials: usize,
    /// This trial's seed, derived as [`trial_seed`]`(master_seed, trial)`.
    pub seed: u64,
}

impl TrialCtx {
    /// Derives the canonical context of trial `trial` in a `trials`-trial
    /// sweep under `master_seed` — the one definition of the per-trial seed
    /// derivation, used by the executor itself and by callers that bypass
    /// it (e.g. the campaign driver, which derives each cell's contexts
    /// from that cell's master seed).
    pub fn derive(master_seed: u64, trial: usize, trials: usize) -> Self {
        Self { trial, trials, seed: trial_seed(master_seed, trial as u64) }
    }

    /// A fresh RNG seeded with this trial's seed.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// The seed of a named sub-stream of this trial (see [`stream_seed`]).
    pub fn stream(&self, tag: u64) -> u64 {
        stream_seed(self.seed, tag)
    }

    /// A fresh RNG for a named sub-stream of this trial.
    pub fn stream_rng(&self, tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.stream(tag))
    }
}

/// A cell-indexed trial stream: the generalisation of the one-closure job
/// the executor originally ran.
///
/// A sweep is a grid of *cells* (parameter combinations); a trial source
/// knows how to run one trial of any cell. The executor (and the campaign
/// driver built on it) can then interleave trials from different cells in a
/// single global stream — one long-lived worker fleet, no per-cell barrier —
/// while determinism still holds because each trial's behaviour is a pure
/// function of `(cell, ctx)` plus worker state rewound per trial.
pub trait TrialSource: Sync {
    /// Per-worker scratch state (e.g. a pooled machine checkout), created
    /// once per worker thread via [`TrialSource::init`].
    type Worker: Send;
    /// The per-trial result.
    type Item: Send;

    /// Creates worker-local state for worker thread `worker`.
    fn init(&self, worker: usize) -> Self::Worker;

    /// Runs one trial of cell `cell` under the derived context `ctx`.
    ///
    /// Must be deterministic in `(cell, ctx)`: worker state may only carry
    /// information that is rewound before use (snapshot resets, scratch
    /// buffers), never trial-to-trial history that changes results.
    fn run_trial(&self, worker: &mut Self::Worker, cell: usize, ctx: TrialCtx) -> Self::Item;

    /// Called after a trial panicked inside a `catch_unwind` harness (the
    /// campaign driver's retry/quarantine path), *before* the trial is
    /// retried or quarantined. Implementations must drop or rebuild any
    /// worker state the aborted trial may have left mid-flight — e.g.
    /// discard a pooled machine checkout rather than return it dirty. The
    /// default does nothing, which is correct for stateless workers.
    fn on_trial_panic(&self, worker: &mut Self::Worker) {
        let _ = worker;
    }
}

/// The trial executor: a thread count plus a work-queue chunk size.
#[derive(Debug, Clone)]
pub struct Fleet {
    threads: usize,
    chunk: Option<usize>,
}

impl Fleet {
    /// An executor with `threads` worker threads (0 is clamped to 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), chunk: None }
    }

    /// A serial executor (one worker; runs on the calling thread).
    pub fn single() -> Self {
        Self::new(1)
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the work-queue chunk size (default: `trials / (threads * 4)`,
    /// at least 1). Smaller chunks steal better; larger chunks touch the
    /// shared cursor less.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    fn chunk_for(&self, trials: usize) -> usize {
        self.chunk.unwrap_or_else(|| (trials / (self.threads * 4)).max(1))
    }

    /// Runs `trials` independent trials of `job` and returns their results
    /// **in trial order**, regardless of which worker finished which trial
    /// when.
    pub fn run<T, F>(&self, trials: usize, master_seed: u64, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        self.run_with(trials, master_seed, |_| (), move |_, ctx| job(ctx))
    }

    /// Like [`Fleet::run`], with per-worker state: `init(worker_id)` runs
    /// once on each worker thread (e.g. materialising a machine from a shared
    /// [`MachineSnapshot`](../../llc_machine/struct.MachineSnapshot.html)),
    /// and `job` receives the worker's state mutably for every trial.
    ///
    /// Worker state must not leak information between trials — rewind it at
    /// the start of each trial (snapshot reset) or treat it as a scratch
    /// allocation. The determinism suite enforces this for the workspace's
    /// own jobs by comparing 1/2/8-thread runs bit-for-bit.
    pub fn run_with<S, T, I, F>(&self, trials: usize, master_seed: u64, init: I, job: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, TrialCtx) -> T + Sync,
    {
        self.try_run_tasks_with(trials, init, move |state, t| {
            job(state, TrialCtx::derive(master_seed, t, trials))
        })
        .unwrap_or_else(|err| panic!("{err}"))
    }

    /// The work engine underneath [`Fleet::run_with`]: runs `tasks` indexed
    /// units of work with per-worker state and returns the results **in task
    /// order**. Unlike `run_with`, no seed is derived — the task index is
    /// handed to `job` raw, so the caller decides what a task means (a trial,
    /// a chunk of a campaign's global trial stream, a cell of a sweep grid).
    ///
    /// Determinism contract: `job(state, task)`'s result must be a pure
    /// function of `task` (worker state rewound per task), so the work
    /// schedule cannot influence results.
    ///
    /// A worker-thread panic is returned as [`FleetError::WorkerPanic`]
    /// (which worker, how many results were lost, the payload) instead of
    /// re-panicking on the joining thread. All workers are joined before the
    /// error is built, so the count of lost results is exact and no worker
    /// outlives the call.
    pub fn try_run_tasks_with<S, T, I, F>(
        &self,
        tasks: usize,
        init: I,
        job: F,
    ) -> Result<Vec<T>, FleetError>
    where
        S: Send,
        T: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if self.threads == 1 || tasks <= 1 {
            let mut state = init(0);
            return Ok((0..tasks).map(|t| job(&mut state, t)).collect());
        }

        let workers = self.threads.min(tasks);
        let chunk = self.chunk_for(tasks);
        let cursor = AtomicUsize::new(0);

        let joined: Vec<Result<Vec<(usize, T)>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let cursor = &cursor;
                    let init = &init;
                    let job = &job;
                    scope.spawn(move || {
                        let mut state = init(worker);
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= tasks {
                                break;
                            }
                            for t in start..(start + chunk).min(tasks) {
                                local.push((t, job(&mut state, t)));
                            }
                        }
                        local
                    })
                })
                .collect();
            // Join every worker before deciding the outcome, so a panic in
            // one does not leave others detached and so `results_lost` can
            // count exactly what the survivors completed.
            handles
                .into_iter()
                .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
                .collect()
        });

        if let Some(worker) = joined.iter().position(|r| r.is_err()) {
            let recovered: usize = joined.iter().flatten().map(|local| local.len()).sum();
            let payload = joined.into_iter().filter_map(|r| r.err()).next().unwrap_or_default();
            return Err(FleetError::WorkerPanic {
                worker,
                results_lost: tasks - recovered,
                payload,
            });
        }

        let mut tagged: Vec<(usize, T)> = joined.into_iter().flatten().flatten().collect();
        tagged.sort_unstable_by_key(|(t, _)| *t);
        debug_assert!(tagged.iter().enumerate().all(|(i, (t, _))| i == *t));
        Ok(tagged.into_iter().map(|(_, v)| v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_trial_order() {
        let fleet = Fleet::new(4).with_chunk(1);
        let out = fleet.run(64, 1, |ctx| ctx.trial);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_match_serial_derivation() {
        let fleet = Fleet::new(3);
        let seeds = fleet.run(32, 99, |ctx| ctx.seed);
        for (t, &s) in seeds.iter().enumerate() {
            assert_eq!(s, trial_seed(99, t as u64));
        }
    }

    #[test]
    fn worker_state_is_initialised_per_worker() {
        let fleet = Fleet::new(2).with_chunk(4);
        // State counts trials handled by this worker; every trial sees >= 1.
        let counts = fleet.run_with(
            16,
            5,
            |_worker| 0usize,
            |state, _ctx| {
                *state += 1;
                *state
            },
        );
        assert_eq!(counts.len(), 16);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn run_tasks_with_returns_in_task_order() {
        let fleet = Fleet::new(4).with_chunk(3);
        let out = fleet.try_run_tasks_with(37, |worker| worker, |w, t| (*w, t * 2)).unwrap();
        assert_eq!(out.len(), 37);
        assert!(out.iter().enumerate().all(|(i, &(_, v))| v == i * 2));
    }

    #[test]
    fn trial_source_runs_cells_through_the_task_engine() {
        struct Doubler;
        impl TrialSource for Doubler {
            type Worker = u64;
            type Item = u64;
            fn init(&self, _worker: usize) -> u64 {
                0
            }
            fn run_trial(&self, scratch: &mut u64, cell: usize, ctx: TrialCtx) -> u64 {
                *scratch = 0; // rewound per trial
                cell as u64 * 1000 + ctx.trial as u64
            }
        }
        let src = Doubler;
        let fleet = Fleet::new(2).with_chunk(1);
        // 3 cells x 4 trials flattened into one 12-task stream.
        let out = fleet
            .try_run_tasks_with(
                12,
                |w| src.init(w),
                |state, g| src.run_trial(state, g / 4, TrialCtx::derive(7, g % 4, 4)),
            )
            .unwrap();
        assert_eq!(out[5], 1001);
        assert_eq!(out[11], 2003);
    }

    #[test]
    fn zero_and_one_trial_edge_cases() {
        let fleet = Fleet::new(8);
        assert!(fleet.run(0, 1, |ctx| ctx.trial).is_empty());
        assert_eq!(fleet.run(1, 1, |ctx| ctx.trial), vec![0]);
        assert_eq!(Fleet::new(0).threads(), 1);
    }

    #[test]
    fn worker_panic_surfaces_as_a_typed_error() {
        let fleet = Fleet::new(4).with_chunk(1);
        let err = fleet
            .try_run_tasks_with(
                32,
                |_| (),
                |_, t| {
                    if t == 13 {
                        panic!("boom at task {t}");
                    }
                    t
                },
            )
            .unwrap_err();
        let FleetError::WorkerPanic { worker, results_lost, payload } = err;
        assert!(worker < 4);
        // The panicking task's result is gone, plus anything still buffered
        // in the dead worker; survivors' results are all accounted for.
        assert!((1..=32).contains(&results_lost));
        assert!(payload.contains("boom at task 13"), "payload: {payload}");
    }

    #[test]
    fn try_run_tasks_with_matches_infallible_path() {
        let fleet = Fleet::new(3).with_chunk(2);
        let ok = fleet.try_run_tasks_with(21, |_| (), |_, t| t * 3).unwrap();
        assert_eq!(ok, (0..21).map(|t| t * 3).collect::<Vec<_>>());
        assert_eq!(ok, fleet.run(21, 0, |ctx| ctx.trial * 3));
    }
}
