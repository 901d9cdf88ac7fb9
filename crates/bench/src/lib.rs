//! # llc-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation on the simulated Skylake-SP / Ice Lake-SP hosts.
//! Each experiment is available both as a library function (used by the
//! Criterion benches under `benches/`) and as a runnable binary under
//! `src/bin/` that prints the corresponding table rows.
//!
//! | Target | Reproduces |
//! |---|---|
//! | `table3` | Table 3 — existing pruning algorithms, local vs Cloud Run |
//! | `table4` | Table 4 — candidate filtering + BinS, SingleSet/PageOffset/WholeSys |
//! | `table5` | Table 5 — prime/probe latencies of PS-Flush, PS-Alt, Parallel |
//! | `table6` | Table 6 — PSD-based target-set identification |
//! | `fig2`   | Figure 2 — CDF of background LLC accesses |
//! | `fig3`   | Figure 3 — parallel vs sequential TestEviction duration |
//! | `fig6`   | Figure 6 — detection rate vs access interval |
//! | `fig7`   | Figure 7 — PSD of target vs non-target set |
//! | `fig9`   | Figure 9 — decoded access trace vs ground-truth nonce bits |
//! | `icelake` | Section 5.3.2 — Skylake-SP vs Ice Lake-SP associativity |
//! | `end_to_end` | Section 7.3 — median nonce bits recovered, error rate, time |
//! | `e2e_key` | Section 7.3 / Step 4 — multi-signature campaign recovering the ECDSA private key |
//!
//! ## Scaling knobs
//!
//! The paper's measurement campaign covers tens of thousands of trials on
//! 28-slice machines; by default the harnesses run scaled-down versions that
//! finish in seconds to minutes. Environment variables and flags control
//! scale:
//!
//! * `LLC_TRIALS` — trials per configuration (default: experiment-specific);
//! * `LLC_SLICES` — number of LLC/SF slices of the simulated Skylake-SP
//!   (default 8 for bulk experiments; set 28 for the paper's geometry);
//! * `--threads N` / `LLC_THREADS` — worker threads of the `llc-fleet` trial
//!   executor (default: available parallelism). Results are bit-identical
//!   for every thread count;
//! * `--smoke` — a pinned, environment-independent configuration with small
//!   trial counts and stable output, used by the golden regression tests and
//!   the CI smoke job;
//! * `--noise-fidelity exact|aggregate` / `LLC_NOISE_FIDELITY` — noise-model
//!   fidelity of the single-set and key-recovery harnesses (default `exact`,
//!   the per-event reference; `aggregate` collapses each catch-up window
//!   into one bulk state transition — statistically equivalent, much faster
//!   under Cloud Run noise);
//! * `--inclusion non-inclusive|inclusive|exclusive` / `LLC_INCLUSION`,
//!   `--slice-hash xor-fold|modulo` / `LLC_SLICE_HASH`,
//!   `--replacement lru|tree-plru|qlru|srrip|random` / `LLC_REPLACEMENT` —
//!   the hierarchy-composition scenario (inclusion policy, slice hash,
//!   every-level replacement override). Non-default choices are appended to
//!   the machine name in report headers;
//! * `--tenants SPEC` / `LLC_TENANTS` — background tenant population
//!   co-resident with the attacker/victim pair, e.g. `2*idle,1*bursty-web`
//!   (kinds: `idle`, `bursty-web`, `batch-scan`; empty default is the
//!   legacy single-attacker/single-victim host). Honoured by the
//!   key-recovery path (`e2e_key`) and by campaign cells that carry a
//!   population (the `coresidency-grid` preset); the table/figure
//!   harnesses measure eviction-set construction against the statistical
//!   noise floor and do not place structured tenants;
//! * `--churn MS` / `LLC_CHURN_MS` — mean tenant dwell time in milliseconds
//!   before a neighbour departs and is replaced by a fresh one (0 disables
//!   churn; ignored without `--tenants`);
//! * `--retries N` / `LLC_RETRIES` — campaign per-trial retry budget: a
//!   panicking trial re-runs with its *same* derived seed up to N times
//!   before it quarantines (default 2, i.e. three attempts; 0 quarantines
//!   on the first panic). Honoured by the `campaign` binary.
//!
//! Every `LLC_*` knob from `LLC_THREADS` down goes through its flag's
//! parser ([`RunOpts::from_env`]): set to a value that does not parse, it is
//! an error naming the variable, never a silent fallback to the default
//! configuration. The same holds for `LLC_TRIALS`, `LLC_SLICES` and the
//! per-binary counts ([`env_usize`]): unset, they take their defaults; set
//! to anything but a positive integer, the binary exits with an error.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod reports;
pub mod sweeps;

use llc_cache_model::{CacheSpec, InclusionPolicy, ReplacementKind, SliceHash};
use llc_fleet::Fleet;
use llc_machine::{ChurnConfig, NoiseFidelity, TenantPopulation};

/// Reads a positive integer scale knob (`LLC_TRIALS`, `LLC_SLICES`, the
/// per-binary counts) from the environment: `default` when unset. A set but
/// invalid value prints an error naming the variable and exits with status
/// 2, like a bad flag.
pub fn env_usize(name: &str, default: usize) -> usize {
    env_usize_from(&|var| std::env::var(var).ok(), name, default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Value-level core of [`env_usize`]: `lookup(name)` is the value of the
/// environment variable `name`, if set.
fn env_usize_from(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: usize,
) -> Result<usize, String> {
    Ok(env_knob(lookup, name, parse_positive)?.unwrap_or(default))
}

/// Number of trials per experiment configuration (`LLC_TRIALS`).
pub fn trials(default: usize) -> usize {
    env_usize("LLC_TRIALS", default)
}

/// The simulated Skylake-SP used by the heavier experiments: the real 28
/// slices are expensive to simulate, so bulk experiments default to a scaled
/// host (`LLC_SLICES`, default 8) with identical per-slice geometry. The
/// cache-uncertainty structure (and therefore the algorithms' behaviour) is
/// unchanged; only the number of sets to cover shrinks.
pub fn scaled_skylake() -> CacheSpec {
    CacheSpec::skylake_sp(env_usize("LLC_SLICES", 8), 4)
}

/// The full-size 28-slice Cloud Run host (Table 2).
pub fn full_skylake() -> CacheSpec {
    CacheSpec::skylake_sp_cloud()
}

/// The pinned 4-slice host used by `--smoke` runs. Deliberately ignores
/// `LLC_SLICES` so that smoke output is bit-stable regardless of the
/// caller's environment (the golden files depend on it).
pub fn smoke_skylake() -> CacheSpec {
    CacheSpec::skylake_sp(4, 4)
}

/// Command-line options shared by every experiment binary.
///
/// All 11 binaries accept `--threads N` (worker threads of the `llc-fleet`
/// executor; `LLC_THREADS` or the machine's parallelism when omitted),
/// `--smoke` (small pinned trial counts with environment-independent,
/// thread-count-independent output, for CI and the golden tests) and
/// `--noise-fidelity exact|aggregate` (`LLC_NOISE_FIDELITY` when omitted;
/// selects the noise-model fidelity of the harnesses that honour it).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Worker threads for the trial executor.
    pub threads: usize,
    /// Run the pinned smoke configuration.
    pub smoke: bool,
    /// Noise-model fidelity for the harnesses that honour it (tables 3/4
    /// single-set cells, the Step 4 campaign and the AES leak).
    pub fidelity: NoiseFidelity,
    /// Inclusion policy of the simulated hierarchy (`--inclusion`,
    /// `LLC_INCLUSION`; default non-inclusive, the paper's protocol).
    pub inclusion: InclusionPolicy,
    /// Slice hash of the LLC and SF (`--slice-hash`, `LLC_SLICE_HASH`).
    pub slice_hash: SliceHash,
    /// Replacement-policy override for every cache level (`--replacement`,
    /// `LLC_REPLACEMENT`; `None` keeps the spec's own policy).
    pub replacement: Option<ReplacementKind>,
    /// Background tenant population co-resident with the attacker/victim
    /// pair (`--tenants`, `LLC_TENANTS`; e.g. `2*idle,1*bursty-web`).
    /// Empty (the default) is the legacy single-attacker/single-victim host.
    pub tenants: TenantPopulation,
    /// Mean tenant dwell time in milliseconds for churn
    /// (`--churn`, `LLC_CHURN_MS`; 0 disables churn, the default).
    pub churn_dwell_ms: f64,
    /// Per-trial retry budget of the campaign driver (`--retries`,
    /// `LLC_RETRIES`; `None` keeps the driver's default of 2). A panicking
    /// trial is re-run with its same derived seed this many times before it
    /// quarantines.
    pub retries: Option<u32>,
}

impl Default for RunOpts {
    /// Reads the `LLC_*` environment.
    ///
    /// # Panics
    ///
    /// Panics when any `LLC_*` knob [`RunOpts::from_env`] reads is set but
    /// unparseable — a typo'd value must not silently run a default
    /// configuration (the binaries report the error through
    /// [`RunOpts::parse`]'s usage path instead of panicking).
    fn default() -> Self {
        Self::from_env().unwrap_or_else(|msg| panic!("{msg}"))
    }
}

impl RunOpts {
    /// Reads options from the `LLC_*` environment: `LLC_THREADS`,
    /// `LLC_NOISE_FIDELITY`, `LLC_INCLUSION`, `LLC_SLICE_HASH`,
    /// `LLC_REPLACEMENT`, `LLC_TENANTS`, `LLC_CHURN_MS` and `LLC_RETRIES`.
    /// Unset variables take their defaults; a set but unparseable one is an
    /// error (the same vocabulary as its flag).
    pub fn from_env() -> Result<Self, String> {
        Self::from_env_values(&|name| std::env::var(name).ok())
    }

    /// Value-level core of [`RunOpts::from_env`]: `lookup(name)` is the
    /// value of the environment variable `name`, if set.
    fn from_env_values(lookup: &dyn Fn(&str) -> Option<String>) -> Result<Self, String> {
        Ok(Self {
            threads: env_knob(lookup, "LLC_THREADS", parse_positive)?
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            smoke: false,
            fidelity: env_knob(lookup, "LLC_NOISE_FIDELITY", parse_fidelity)?.unwrap_or_default(),
            inclusion: env_knob(lookup, "LLC_INCLUSION", parse_inclusion)?.unwrap_or_default(),
            slice_hash: env_knob(lookup, "LLC_SLICE_HASH", parse_slice_hash)?.unwrap_or_default(),
            replacement: env_knob(lookup, "LLC_REPLACEMENT", parse_replacement)?,
            tenants: env_knob(lookup, "LLC_TENANTS", parse_tenants)?.unwrap_or_default(),
            churn_dwell_ms: env_knob(lookup, "LLC_CHURN_MS", parse_churn)?.unwrap_or(0.0),
            retries: env_knob(lookup, "LLC_RETRIES", parse_retries)?,
        })
    }

    /// Parses `std::env::args`, exiting with a usage message on bad input.
    pub fn parse() -> Self {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!(
                    "usage: <experiment> [--threads N] [--noise-fidelity exact|aggregate] \
                     [--inclusion non-inclusive|inclusive|exclusive] \
                     [--slice-hash xor-fold|modulo] \
                     [--replacement lru|tree-plru|qlru|srrip|random] \
                     [--tenants SPEC] [--churn MS] [--retries N] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`RunOpts::parse`];
    /// named to avoid colliding with `FromIterator::from_iter`).
    pub fn from_args<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = Self::from_env()?;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            if arg == "--smoke" {
                opts.smoke = true;
                continue;
            }
            // Every other flag takes a value: `--flag value` or `--flag=value`.
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v)),
                None => (arg, None),
            };
            let mut value = || match inline {
                Some(v) => Ok(v.to_string()),
                None => iter
                    .next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{flag} requires a value")),
            };
            match flag {
                "--threads" => opts.threads = parse_positive(flag, &value()?)?,
                "--noise-fidelity" => opts.fidelity = parse_fidelity(flag, &value()?)?,
                "--inclusion" => opts.inclusion = parse_inclusion(flag, &value()?)?,
                "--slice-hash" => opts.slice_hash = parse_slice_hash(flag, &value()?)?,
                "--replacement" => opts.replacement = Some(parse_replacement(flag, &value()?)?),
                "--tenants" => opts.tenants = parse_tenants(flag, &value()?)?,
                "--churn" => opts.churn_dwell_ms = parse_churn(flag, &value()?)?,
                "--retries" => opts.retries = Some(parse_retries(flag, &value()?)?),
                _ => return Err(format!("unknown argument: {arg}")),
            }
        }
        Ok(opts)
    }

    /// A smoke-mode options value (used by the golden tests). Pins `exact`
    /// fidelity and the default hierarchy composition regardless of the
    /// `LLC_*` environment, so the exact golden files stay
    /// environment-independent; combine with [`RunOpts::with_fidelity`] for
    /// the aggregate goldens.
    pub fn smoke_with_threads(threads: usize) -> Self {
        Self {
            threads,
            smoke: true,
            fidelity: NoiseFidelity::Exact,
            inclusion: InclusionPolicy::default(),
            slice_hash: SliceHash::default(),
            replacement: None,
            tenants: TenantPopulation::empty(),
            churn_dwell_ms: 0.0,
            retries: None,
        }
    }

    /// Returns these options with the given tenant population spec (see
    /// [`TenantPopulation::parse`]); used by the co-residency goldens.
    ///
    /// # Panics
    ///
    /// Panics on an unparseable spec.
    pub fn with_tenants(mut self, spec: &str) -> Self {
        self.tenants =
            TenantPopulation::parse(spec).unwrap_or_else(|| panic!("bad tenant spec {spec:?}"));
        self
    }

    /// Returns these options with the given noise fidelity.
    pub fn with_fidelity(mut self, fidelity: NoiseFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The trial executor these options select.
    pub fn fleet(&self) -> Fleet {
        Fleet::new(self.threads)
    }

    /// Trials per configuration: the pinned `smoke` count in smoke mode,
    /// otherwise `LLC_TRIALS` with the experiment's `default`.
    pub fn trials(&self, smoke: usize, default: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            trials(default)
        }
    }

    /// The host specification: the pinned 4-slice host in smoke mode,
    /// otherwise the `LLC_SLICES`-scaled host — with the hierarchy
    /// composition knobs applied either way.
    pub fn spec(&self) -> CacheSpec {
        let base = if self.smoke { smoke_skylake() } else { scaled_skylake() };
        self.configure(base)
    }

    /// Applies the hierarchy-composition knobs to a host spec. Non-default
    /// choices are appended to the spec name so report headers identify the
    /// scenario; the default composition leaves the spec (and therefore
    /// every golden header) untouched.
    pub fn configure(&self, mut spec: CacheSpec) -> CacheSpec {
        if self.inclusion != InclusionPolicy::default() {
            spec = spec.with_inclusion(self.inclusion);
            spec.name = format!("{} [{}]", spec.name, self.inclusion.label());
        }
        if self.slice_hash != SliceHash::default() {
            spec.hierarchy.slice_hash = self.slice_hash;
            spec.name = format!("{} [slice hash: {}]", spec.name, self.slice_hash.label());
        }
        if let Some(kind) = self.replacement {
            spec = spec.with_replacement(kind);
            spec.name = format!("{} [replacement: {}]", spec.name, kind.label());
        }
        spec
    }

    /// The background tenant population these options select, with the
    /// `--churn` dwell time converted from milliseconds to cycles at the
    /// given core frequency (pass `spec.freq_ghz`). Churn without tenants
    /// is meaningless and is ignored.
    pub fn tenant_population(&self, freq_ghz: f64) -> TenantPopulation {
        let mut tenants = self.tenants.clone();
        if self.churn_dwell_ms > 0.0 && !tenants.is_empty() {
            tenants.churn =
                Some(ChurnConfig { mean_dwell_cycles: self.churn_dwell_ms * freq_ghz * 1e6 });
        }
        tenants
    }
}

/// Reads environment knob `name` through `lookup` and parses it with its
/// flag's parser, naming the variable in the error.
fn env_knob<T>(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    parse: fn(&str, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    lookup(name).map(|v| parse(name, &v)).transpose()
}

/// Parses a positive integer for `what`: a worker-thread count (`--threads`,
/// `LLC_THREADS`) or a scale knob read by [`env_usize`].
fn parse_positive(what: &str, v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{what} expects a positive integer, got {v:?}"))
}

fn parse_fidelity(what: &str, v: &str) -> Result<NoiseFidelity, String> {
    NoiseFidelity::parse(v)
        .ok_or_else(|| format!("{what} expects 'exact' or 'aggregate', got {v:?}"))
}

fn parse_inclusion(what: &str, v: &str) -> Result<InclusionPolicy, String> {
    InclusionPolicy::parse(v).ok_or_else(|| {
        format!("{what} expects 'non-inclusive', 'inclusive' or 'exclusive', got {v:?}")
    })
}

fn parse_slice_hash(what: &str, v: &str) -> Result<SliceHash, String> {
    SliceHash::parse(v)
        .ok_or_else(|| format!("{what} expects 'xor-fold' or 'modulo', got {v:?}"))
}

fn parse_replacement(what: &str, v: &str) -> Result<ReplacementKind, String> {
    ReplacementKind::parse(v).ok_or_else(|| {
        format!("{what} expects 'lru', 'tree-plru', 'qlru', 'srrip' or 'random', got {v:?}")
    })
}

/// Parses a tenant-population spec for `what` (`--tenants` or
/// `LLC_TENANTS`), so an invalid spec fails loudly instead of silently
/// running the legacy tenant-free host.
fn parse_tenants(what: &str, v: &str) -> Result<TenantPopulation, String> {
    TenantPopulation::parse(v).ok_or_else(|| {
        format!(
            "{what} expects up to {} entries like '2*idle,1*bursty-web' \
             (kinds: idle, bursty-web, batch-scan), got {v:?}",
            TenantPopulation::MAX_TENANTS
        )
    })
}

/// Parses a churn dwell time for `what` (`--churn` or `LLC_CHURN_MS`).
fn parse_churn(what: &str, v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|ms| *ms >= 0.0 && ms.is_finite())
        .ok_or_else(|| format!("{what} expects a non-negative dwell time in ms, got {v:?}"))
}

/// Parses a retry budget for `what` (`--retries` or `LLC_RETRIES`). Zero is
/// legal: it quarantines on the first panic.
fn parse_retries(what: &str, v: &str) -> Result<u32, String> {
    v.parse::<u32>()
        .map_err(|_| format!("{what} expects a non-negative retry count, got {v:?}"))
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a cycle count as milliseconds at the given frequency.
pub fn cycles_to_ms(cycles: f64, freq_ghz: f64) -> f64 {
    cycles / (freq_ghz * 1e6)
}

/// Simple statistics over a sample of cycle counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Median.
    pub median: f64,
}

impl SampleStats {
    /// Computes mean, standard deviation and median of `values`.
    pub fn from(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self { mean, std_dev: var.sqrt(), median: sorted[sorted.len() / 2] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stats_basics() {
        let s = SampleStats::from(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.median, 3.0);
        assert!(s.mean > 3.0);
        assert!(s.std_dev > 10.0);
        assert_eq!(SampleStats::from(&[]), SampleStats::default());
    }

    #[test]
    fn env_defaults_apply() {
        assert_eq!(env_usize("LLC_THIS_VAR_DOES_NOT_EXIST", 7), 7);
        assert_eq!(trials(5), trials(5));
    }

    /// Scale knobs: unset takes the default, a positive integer is read, and
    /// anything else is an error naming the variable.
    #[test]
    fn env_scale_knobs_reject_invalid_values() {
        let knob = |vars: &[(&str, &str)], name: &str| {
            let lookup = |n: &str| vars.iter().find(|(k, _)| *k == n).map(|(_, v)| v.to_string());
            env_usize_from(&lookup, name, 8)
        };
        assert_eq!(knob(&[], "LLC_TRIALS"), Ok(8));
        assert_eq!(knob(&[("LLC_TRIALS", "12")], "LLC_TRIALS"), Ok(12));
        assert_eq!(
            knob(&[("LLC_SLICES", "0")], "LLC_SLICES"),
            Err("LLC_SLICES expects a positive integer, got \"0\"".to_string())
        );
        for bad in ["six", "-1", "", " 4", "4.0"] {
            let err = knob(&[("LLC_AES_REQUESTS", bad)], "LLC_AES_REQUESTS").unwrap_err();
            assert!(err.starts_with("LLC_AES_REQUESTS"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert!((cycles_to_ms(2_000_000.0, 2.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn run_opts_parse_forms() {
        let o = RunOpts::from_args(["--threads", "4", "--smoke"]).unwrap();
        assert_eq!(o.threads, 4);
        assert!(o.smoke);
        let o = RunOpts::from_args(["--threads=2"]).unwrap();
        assert_eq!(o.threads, 2);
        assert!(!o.smoke);
        assert!(RunOpts::from_args(["--bogus"]).is_err());
        assert!(RunOpts::from_args(["--threads", "0"]).is_err());
        assert!(RunOpts::from_args(["--threads"]).is_err());
        assert!(RunOpts::from_args(Vec::<String>::new()).unwrap().threads >= 1);
    }

    #[test]
    fn run_opts_parse_fidelity_forms() {
        let o = RunOpts::from_args(["--noise-fidelity", "aggregate"]).unwrap();
        assert_eq!(o.fidelity, NoiseFidelity::Aggregate);
        let o = RunOpts::from_args(["--noise-fidelity=exact"]).unwrap();
        assert_eq!(o.fidelity, NoiseFidelity::Exact);
        assert!(RunOpts::from_args(["--noise-fidelity", "sloppy"]).is_err());
        assert!(RunOpts::from_args(["--noise-fidelity"]).is_err());
        // The golden-test constructor pins exact and opts back in explicitly.
        let o = RunOpts::smoke_with_threads(2);
        assert_eq!(o.fidelity, NoiseFidelity::Exact);
        assert_eq!(o.with_fidelity(NoiseFidelity::Aggregate).fidelity, NoiseFidelity::Aggregate);
    }

    #[test]
    fn run_opts_parse_hierarchy_forms() {
        let o = RunOpts::from_args(["--inclusion", "inclusive", "--slice-hash=modulo"]).unwrap();
        assert_eq!(o.inclusion, InclusionPolicy::Inclusive);
        assert_eq!(o.slice_hash, SliceHash::Modulo);
        let o = RunOpts::from_args(["--inclusion=x", "--replacement", "srrip"]).unwrap();
        assert_eq!(o.inclusion, InclusionPolicy::Exclusive);
        assert_eq!(o.replacement, Some(ReplacementKind::Srrip));
        assert!(RunOpts::from_args(["--inclusion", "sideways"]).is_err());
        assert!(RunOpts::from_args(["--slice-hash", "crc"]).is_err());
        assert!(RunOpts::from_args(["--replacement=fifo"]).is_err());
    }

    #[test]
    fn configure_tags_non_default_scenarios_only() {
        let default = RunOpts::smoke_with_threads(1);
        assert_eq!(default.spec().name, smoke_skylake().name);
        assert_eq!(default.spec(), smoke_skylake());

        let scenario = RunOpts {
            inclusion: InclusionPolicy::Inclusive,
            slice_hash: SliceHash::Modulo,
            replacement: Some(ReplacementKind::Srrip),
            ..RunOpts::smoke_with_threads(1)
        };
        let spec = scenario.spec();
        assert_eq!(spec.hierarchy.inclusion, InclusionPolicy::Inclusive);
        assert_eq!(spec.hierarchy.slice_hash, SliceHash::Modulo);
        assert_eq!(spec.hierarchy.replacement, ReplacementKind::Srrip);
        assert!(spec.name.contains("[inclusive]"), "name: {}", spec.name);
        assert!(spec.name.contains("[slice hash: modulo]"), "name: {}", spec.name);
        assert!(spec.name.contains("[replacement: srrip]"), "name: {}", spec.name);
    }

    #[test]
    fn run_opts_parse_tenant_forms() {
        let o = RunOpts::from_args(["--tenants", "2*idle,1*bursty-web", "--churn", "5"]).unwrap();
        assert_eq!(o.tenants.label(), "2*idle+1*bursty-web");
        assert_eq!(o.churn_dwell_ms, 5.0);
        let o = RunOpts::from_args(["--tenants=batch-scan", "--churn=0"]).unwrap();
        assert_eq!(o.tenants.len(), 1);
        assert_eq!(o.churn_dwell_ms, 0.0);
        assert!(RunOpts::from_args(["--tenants", "3*webscale"]).is_err());
        assert!(RunOpts::from_args(["--churn", "-1"]).is_err());
        assert!(RunOpts::from_args(["--tenants"]).is_err());
        // Smoke pins the legacy empty population.
        assert!(RunOpts::smoke_with_threads(2).tenants.is_empty());
    }

    /// [`RunOpts::from_env_values`] over a fixed set of variables.
    fn from_vars(vars: &[(&str, &str)]) -> Result<RunOpts, String> {
        RunOpts::from_env_values(&|name| {
            vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn env_tenant_values_fail_loudly_when_unparseable() {
        // The value-level core of `from_env`: a typo'd spec is an error, not
        // a silent fallback to the tenant-free legacy host.
        assert!(from_vars(&[("LLC_TENANTS", "3*webscale")]).is_err());
        assert!(from_vars(&[("LLC_TENANTS", "999999999999*idle")]).is_err());
        assert!(from_vars(&[("LLC_CHURN_MS", "fast")]).is_err());
        assert!(from_vars(&[("LLC_CHURN_MS", "-2")]).is_err());
        let o = from_vars(&[("LLC_TENANTS", "2*idle"), ("LLC_CHURN_MS", "5")]).unwrap();
        assert_eq!(o.tenants.label(), "2*idle");
        assert_eq!(o.churn_dwell_ms, 5.0);
        assert!(from_vars(&[]).unwrap().tenants.is_empty());
        // Every other knob fails the same way, naming the variable, instead
        // of silently running the default configuration.
        for (name, bad) in [
            ("LLC_THREADS", "0"),
            ("LLC_NOISE_FIDELITY", "sloppy"),
            ("LLC_INCLUSION", "sideways"),
            ("LLC_SLICE_HASH", "crc"),
            ("LLC_REPLACEMENT", "srip"),
            ("LLC_RETRIES", "lots"),
        ] {
            let err = from_vars(&[(name, bad)]).unwrap_err();
            assert!(err.starts_with(name), "{name}={bad}: {err}");
        }
        let o = from_vars(&[
            ("LLC_THREADS", "3"),
            ("LLC_NOISE_FIDELITY", "aggregate"),
            ("LLC_REPLACEMENT", "srrip"),
        ])
        .unwrap();
        assert_eq!(o.threads, 3);
        assert_eq!(o.fidelity, NoiseFidelity::Aggregate);
        assert_eq!(o.replacement, Some(ReplacementKind::Srrip));
    }

    #[test]
    fn tenant_population_converts_churn_to_cycles() {
        let o = RunOpts::from_args(["--tenants", "idle", "--churn", "2"]).unwrap();
        let pop = o.tenant_population(2.0);
        assert_eq!(pop.churn.map(|c| c.mean_dwell_cycles), Some(4_000_000.0));
        // Churn without tenants is ignored.
        let o = RunOpts::from_args(["--churn", "2"]).unwrap();
        assert!(o.tenant_population(2.0).churn.is_none());
        // No churn flag → static population.
        let o = RunOpts::from_args(["--tenants", "idle"]).unwrap();
        assert!(o.tenant_population(2.0).churn.is_none());
    }

    #[test]
    fn run_opts_parse_retry_forms() {
        let o = RunOpts::from_args(["--retries", "5"]).unwrap();
        assert_eq!(o.retries, Some(5));
        let o = RunOpts::from_args(["--retries=0"]).unwrap();
        assert_eq!(o.retries, Some(0));
        assert!(RunOpts::from_args(["--retries", "-1"]).is_err());
        assert!(RunOpts::from_args(["--retries", "lots"]).is_err());
        assert!(RunOpts::from_args(["--retries"]).is_err());
        // Smoke keeps the driver default so golden runs exercise the
        // production retry path unchanged.
        assert_eq!(RunOpts::smoke_with_threads(2).retries, None);
    }

    #[test]
    fn smoke_spec_is_env_independent() {
        let o = RunOpts::smoke_with_threads(1);
        assert_eq!(o.spec().sf.num_slices(), 4);
        assert_eq!(o.trials(2, 100), 2);
        let loud = RunOpts { smoke: false, ..RunOpts::smoke_with_threads(1) };
        assert_eq!(loud.trials(2, 100), trials(100));
    }

    #[test]
    fn scaled_skylake_preserves_per_slice_geometry() {
        let scaled = scaled_skylake();
        let full = full_skylake();
        assert_eq!(scaled.sf.ways(), full.sf.ways());
        assert_eq!(scaled.l2, full.l2);
        assert!(scaled.sf.num_slices() <= full.sf.num_slices());
    }
}
