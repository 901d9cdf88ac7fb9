//! Deterministic fault injection for campaigns.
//!
//! A [`FaultPlan`] is a *pure, declarative* description of the failures a
//! campaign run should suffer: trial panics at chosen global trial indices
//! and I/O faults at chosen operation counts of the record/manifest writer.
//! It is either built explicitly ([`FaultPlan::panic_at`] /
//! [`FaultPlan::io_at`]), parsed from a compact spec string
//! ([`FaultPlan::parse`], the `campaign --fault-plan` dev knob), or derived
//! as a pure function of a fault seed ([`FaultPlan::from_seed`], the
//! proptest entry point). Because the plan is data, every injected failure
//! is reproducible: the same plan against the same campaign fails in the
//! same place, which is what lets the resume proptests assert bit-identical
//! recovery.
//!
//! What the injector simulates — and what it does not — is documented in
//! DESIGN.md's "Fault model" section. Briefly: it can simulate trial-level
//! panics (transient or deterministic) and the writer-side crash/IO modes
//! the recovery rules are built around (short write, torn final line, fsync
//! failure, manifest rename failure, ENOSPC). It cannot simulate torn
//! *mid-file* sectors, bit rot, or a kernel that lies about fsync — the
//! first two are covered by the corruption proptests mutating files
//! directly, the last is outside any userspace fault model.

use crate::records::{CampaignError, DirSink, RecordSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An injected I/O failure mode of the record/manifest writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The record append writes only a short prefix of the line, then fails.
    ShortWrite,
    /// The record append writes roughly half the line with no terminating
    /// newline, then fails — the canonical kill-mid-append artifact.
    TornTail,
    /// The record append writes nothing and fails (device full).
    Enospc,
    /// A records-file fsync fails.
    FsyncErr,
    /// A manifest write fails after the temp file is written but before the
    /// rename (the classic crash window write-then-rename exists to close).
    RenameFail,
}

/// A deterministic schedule of injected failures for one campaign run.
///
/// Trial panics are keyed by **global trial index** (position in the
/// flattened campaign stream) and are either *transient* (fire on the first
/// attempt only — the retry path heals them) or *sticky* (fire on every
/// attempt — the quarantine path absorbs them). I/O faults are keyed by
/// per-family operation counts: the Nth record append, the Nth records
/// fsync, the Nth manifest write. After any I/O fault fires, the sink wedges
/// (every later operation fails fast), modelling a filesystem that has gone
/// bad rather than one that flickers — this also guarantees an injected torn
/// line is the *final* line, i.e. exactly the artifact the recovery rules
/// accept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// global trial index → sticky?
    panics: BTreeMap<u64, bool>,
    /// append-operation index → ShortWrite | TornTail | Enospc
    appends: BTreeMap<u64, IoFault>,
    /// records-fsync operation index → fail
    syncs: BTreeMap<u64, ()>,
    /// manifest-write operation index → fail before rename
    manifests: BTreeMap<u64, ()>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.appends.is_empty()
            && self.syncs.is_empty()
            && self.manifests.is_empty()
    }

    /// Adds a trial panic at global trial index `trial`. A `sticky` panic
    /// fires on every retry attempt (the trial quarantines); a transient one
    /// fires on the first attempt only (the retry heals it).
    pub fn panic_at(mut self, trial: u64, sticky: bool) -> Self {
        self.panics.insert(trial, sticky);
        self
    }

    /// Adds an I/O fault at operation index `op` of its family (append
    /// count for `ShortWrite`/`TornTail`/`Enospc`, records-fsync count for
    /// `FsyncErr`, manifest-write count for `RenameFail`).
    pub fn io_at(mut self, op: u64, fault: IoFault) -> Self {
        match fault {
            IoFault::ShortWrite | IoFault::TornTail | IoFault::Enospc => {
                self.appends.insert(op, fault);
            }
            IoFault::FsyncErr => {
                self.syncs.insert(op, ());
            }
            IoFault::RenameFail => {
                self.manifests.insert(op, ());
            }
        }
        self
    }

    /// Parses the compact spec string of the `--fault-plan` knob:
    /// comma-separated tokens `panic@K` (transient trial panic at global
    /// trial K), `panic@K!` (sticky), `short@N` / `torn@N` / `enospc@N`
    /// (Nth record append), `fsync@N` (Nth records fsync), `rename@N`
    /// (Nth manifest write). Example: `panic@5,torn@2`. A sticky `!` on any
    /// kind but `panic` is an error, not a silently different plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, at) = token
                .split_once('@')
                .ok_or_else(|| format!("fault token '{token}' missing '@<index>'"))?;
            let (at, sticky) = match at.strip_suffix('!') {
                Some(n) => (n, true),
                None => (at, false),
            };
            let index: u64 =
                at.parse().map_err(|_| format!("fault token '{token}': bad index '{at}'"))?;
            if sticky && kind != "panic" {
                return Err(format!("fault token '{token}': only 'panic' takes a sticky '!'"));
            }
            plan = match kind {
                "panic" => plan.panic_at(index, sticky),
                "short" => plan.io_at(index, IoFault::ShortWrite),
                "torn" => plan.io_at(index, IoFault::TornTail),
                "enospc" => plan.io_at(index, IoFault::Enospc),
                "fsync" => plan.io_at(index, IoFault::FsyncErr),
                "rename" => plan.io_at(index, IoFault::RenameFail),
                _ => return Err(format!("unknown fault kind '{kind}'")),
            };
        }
        Ok(plan)
    }

    /// A small pseudo-random *recoverable* plan, a pure function of `seed`:
    /// transient trial panics over `total_trials` and I/O faults over
    /// `total_chunks` append operations. Sticky panics are deliberately
    /// excluded — everything this generator injects either heals in-process
    /// (transient panic, retried) or aborts the run cleanly (I/O fault) and
    /// recovers on a fault-free resume, so the resume proptests can demand
    /// bit-identity with the fault-free run.
    pub fn from_seed(seed: u64, total_trials: u64, total_chunks: u64) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = llc_fleet::mix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
            s
        };
        let mut plan = FaultPlan::new();
        let faults = next() % 4; // 0..=3 injected failures
        for _ in 0..faults {
            plan = match next() % 5 {
                0 | 1 => plan.panic_at(next() % total_trials.max(1), false),
                2 => plan.io_at(next() % total_chunks.max(1), IoFault::TornTail),
                3 => plan.io_at(next() % total_chunks.max(1), IoFault::ShortWrite),
                _ => plan.io_at(next() % total_chunks.max(1), IoFault::Enospc),
            };
        }
        plan
    }

    /// Should attempt `attempt` (0-based) of global trial `trial` panic?
    pub fn trial_panics(&self, trial: u64, attempt: u32) -> bool {
        match self.panics.get(&trial) {
            Some(&sticky) => sticky || attempt == 0,
            None => false,
        }
    }
}

impl std::fmt::Display for FaultPlan {
    /// Renders the plan back in [`FaultPlan::parse`] syntax.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut tokens: Vec<String> = Vec::new();
        for (&trial, &sticky) in &self.panics {
            tokens.push(format!("panic@{trial}{}", if sticky { "!" } else { "" }));
        }
        for (&op, fault) in &self.appends {
            let kind = match fault {
                IoFault::ShortWrite => "short",
                IoFault::TornTail => "torn",
                IoFault::Enospc => "enospc",
                _ => unreachable!("append map only holds append faults"),
            };
            tokens.push(format!("{kind}@{op}"));
        }
        for &op in self.syncs.keys() {
            tokens.push(format!("fsync@{op}"));
        }
        for &op in self.manifests.keys() {
            tokens.push(format!("rename@{op}"));
        }
        write!(f, "{}", tokens.join(","))
    }
}

/// A [`RecordSink`] that injects the I/O faults of a [`FaultPlan`] into a
/// production [`DirSink`], then wedges.
///
/// Operation counters are per family (appends / records fsyncs / manifest
/// writes) and count *attempted* operations, so a fault at index N hits the
/// Nth call regardless of which chunk made it. After the first injected
/// fault every subsequent operation fails fast without touching the disk:
/// a wedged device stays wedged, and — crucially for the recovery contract —
/// an injected torn line is guaranteed to stay the file's final line.
#[derive(Debug)]
pub struct FaultySink {
    inner: DirSink,
    plan: FaultPlan,
    appends: AtomicU64,
    syncs: AtomicU64,
    manifests: AtomicU64,
    wedged: AtomicBool,
}

impl FaultySink {
    /// Wraps `inner`, injecting the I/O faults of `plan`.
    pub fn new(inner: DirSink, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            manifests: AtomicU64::new(0),
            wedged: AtomicBool::new(false),
        }
    }

    fn check_wedged(&self) -> Result<(), CampaignError> {
        if self.wedged.load(Ordering::SeqCst) {
            Err(CampaignError::Io("injected fault: sink wedged by earlier fault".into()))
        } else {
            Ok(())
        }
    }

    fn wedge(&self, what: &str) -> CampaignError {
        self.wedged.store(true, Ordering::SeqCst);
        CampaignError::Io(format!("injected fault: {what}"))
    }
}

impl RecordSink for FaultySink {
    fn read_manifest(&self) -> Result<Option<String>, CampaignError> {
        self.inner.read_manifest()
    }

    fn write_manifest(&self, text: &str) -> Result<(), CampaignError> {
        self.check_wedged()?;
        let op = self.manifests.fetch_add(1, Ordering::SeqCst);
        if self.plan.manifests.contains_key(&op) {
            // Model the rename failing *after* the temp file was written:
            // the real manifest is untouched, the temp file is litter the
            // next write-then-rename overwrites.
            let _ = self.inner.write_manifest_tmp_only(text);
            return Err(self.wedge(&format!("manifest rename failed (write {op})")));
        }
        self.inner.write_manifest(text)
    }

    fn read_records(&self) -> Result<Option<Vec<u8>>, CampaignError> {
        self.inner.read_records()
    }

    fn open_records(&self, valid_len: u64) -> Result<(), CampaignError> {
        self.check_wedged()?;
        self.inner.open_records(valid_len)
    }

    fn append_record(&self, line: &str) -> Result<(), CampaignError> {
        self.check_wedged()?;
        let op = self.appends.fetch_add(1, Ordering::SeqCst);
        match self.plan.appends.get(&op) {
            None => self.inner.append_record(line),
            Some(IoFault::Enospc) => {
                Err(self.wedge(&format!("ENOSPC before append {op} wrote anything")))
            }
            Some(IoFault::ShortWrite) => {
                let cut = line.len().min(8);
                let _ = self.inner.append_bytes(&line.as_bytes()[..cut]);
                Err(self.wedge(&format!("short write on append {op} ({cut} bytes)")))
            }
            Some(IoFault::TornTail) => {
                let cut = line.len() / 2;
                let _ = self.inner.append_bytes(&line.as_bytes()[..cut]);
                Err(self.wedge(&format!("torn line on append {op} ({cut} bytes, no newline)")))
            }
            Some(other) => unreachable!("append map only holds append faults, got {other:?}"),
        }
    }

    fn sync_records(&self) -> Result<(), CampaignError> {
        self.check_wedged()?;
        let op = self.syncs.fetch_add(1, Ordering::SeqCst);
        if self.plan.syncs.contains_key(&op) {
            return Err(self.wedge(&format!("fsync failed (sync {op})")));
        }
        self.inner.sync_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let plan = FaultPlan::parse("panic@5,panic@9!,torn@2,short@4,enospc@7,fsync@0,rename@1")
            .unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(plan.trial_panics(5, 0));
        assert!(!plan.trial_panics(5, 1)); // transient heals on retry
        assert!(plan.trial_panics(9, 0));
        assert!(plan.trial_panics(9, 3)); // sticky never heals
        assert!(!plan.trial_panics(6, 0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("panic5").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("meteor@3").is_err());
        // Only a panic can be sticky.
        assert!(FaultPlan::parse("torn@2!").is_err());
        assert!(FaultPlan::parse("fsync@0!").is_err());
        assert!(FaultPlan::parse("rename@1!").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn from_seed_is_pure_and_recoverable_only() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 100, 10);
            let b = FaultPlan::from_seed(seed, 100, 10);
            assert_eq!(a, b);
            // Recoverable by construction: no sticky panics.
            assert!(a.panics.values().all(|&sticky| !sticky), "seed {seed} made a sticky panic");
        }
        // The generator actually injects something for some seeds.
        assert!((0..64).any(|s| !FaultPlan::from_seed(s, 100, 10).is_empty()));
    }
}
