//! Offline drop-in shim for the subset of the `criterion` 0.5 API this
//! workspace's benches use.
//!
//! The build container cannot reach crates.io, so the workspace vendors a
//! small wall-clock benchmark harness exposing the same surface the five
//! benches under `crates/bench/benches/` call: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::sample_size`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`], [`BenchmarkId`],
//! [`black_box`], and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Differences from the real crate:
//!
//! * no statistical analysis (outlier rejection, bootstrap confidence
//!   intervals, HTML reports) — each sample is timed with [`Instant`] and the
//!   mean/min/max per-iteration durations are printed;
//! * no warm-up phase beyond one untimed iteration;
//! * `--bench` CLI filtering runs every benchmark whose id contains any
//!   non-flag argument substring.
//!
//! Swap the `[workspace.dependencies]` entry back to crates.io `criterion`
//! on a connected machine for full statistics; the bench sources compile
//! unchanged against either.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group: `function_name/parameter`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and the display form of a
    /// parameter.
    pub fn new<F: fmt::Display, P: fmt::Display>(function: F, parameter: P) -> Self {
        BenchmarkId { function: function.to_string(), parameter: parameter.to_string() }
    }

    /// Creates an id with only a parameter component.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId { function: String::new(), parameter: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            write!(f, "{}", self.parameter)
        } else if self.parameter.is_empty() {
            write!(f, "{}", self.function)
        } else {
            write!(f, "{}/{}", self.function, self.parameter)
        }
    }
}

/// Times closures for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    elapsed: Vec<Duration>,
}

impl Bencher {
    /// Runs `routine` once untimed (warm-up), then `samples` timed times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        self.elapsed.reserve(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.elapsed.push(start.elapsed());
        }
    }
}

/// A named collection of related benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Registers and immediately runs a benchmark taking an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut routine: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        if !self.criterion.matches_filter(&full) {
            return self;
        }
        let mut bencher = Bencher { samples: self.sample_size, elapsed: Vec::new() };
        routine(&mut bencher, input);
        report(&full, &bencher.elapsed);
        self
    }

    /// Registers and immediately runs a benchmark without an input value.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        if !self.criterion.matches_filter(&full) {
            return self;
        }
        let mut bencher = Bencher { samples: self.sample_size, elapsed: Vec::new() };
        routine(&mut bencher);
        report(&full, &bencher.elapsed);
        self
    }

    /// Finishes the group (printing a trailing separator).
    pub fn finish(self) {
        println!();
    }
}

fn report(id: &str, elapsed: &[Duration]) {
    if elapsed.is_empty() {
        println!("{id:<60} (no samples)");
        return;
    }
    let total: Duration = elapsed.iter().sum();
    let mean = total / elapsed.len() as u32;
    let min = elapsed.iter().min().copied().unwrap_or_default();
    let max = elapsed.iter().max().copied().unwrap_or_default();
    let median = median_duration(elapsed);
    println!(
        "{id:<60} time: [{} {} {}] median: {}  ({} samples)",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max),
        fmt_duration(median),
        elapsed.len(),
    );
}

/// Median per-iteration duration (lower-middle sample for even counts, so
/// the value is always an actually-observed sample).
fn median_duration(elapsed: &[Duration]) -> Duration {
    let mut sorted: Vec<Duration> = elapsed.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2]
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    filters: Vec<String>,
    default_sample_size: usize,
}

/// Flags of the real criterion CLI that consume a value argument. Their
/// values must not be mistaken for benchmark filters.
const VALUE_FLAGS: &[&str] = &[
    "--baseline",
    "--baseline-lenient",
    "--color",
    "--confidence-level",
    "--load-baseline",
    "--measurement-time",
    "--noise-threshold",
    "--nresamples",
    "--output-format",
    "--profile-time",
    "--sample-size",
    "--save-baseline",
    "--significance-level",
    "--warm-up-time",
];

/// Extracts benchmark filters from a raw argument list, skipping flags and
/// the values of value-taking flags (mirroring the real criterion CLI).
fn parse_filters<I: Iterator<Item = String>>(args: I) -> Vec<String> {
    let mut filters = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg.starts_with('-') {
            // `--flag=value` carries its value inline; a bare value flag
            // consumes the next argument instead.
            if !arg.contains('=') && VALUE_FLAGS.contains(&arg.as_str()) {
                args.next();
            }
            continue;
        }
        filters.push(arg);
    }
    filters
}

impl Default for Criterion {
    fn default() -> Self {
        // Any bare CLI argument acts as a substring filter, as with the real
        // harness (`cargo bench -- <filter>`).
        let filters = parse_filters(std::env::args().skip(1));
        Criterion { filters, default_sample_size: 10 }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        let sample_size = self.default_sample_size;
        BenchmarkGroup { criterion: self, name, sample_size }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = id.into();
        if self.matches_filter(&full) {
            let mut bencher = Bencher { samples: self.default_sample_size, elapsed: Vec::new() };
            routine(&mut bencher);
            report(&full, &bencher.elapsed);
        }
        self
    }

    fn matches_filter(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f.as_str()))
    }
}

/// Declares a benchmark group function, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the given groups, as in real criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_with_input(BenchmarkId::new("count", 1), &5u64, |b, &x| {
            b.iter(|| {
                calls += 1;
                black_box(x * 2)
            });
        });
        group.finish();
        // One warm-up + three timed samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn group_runs_closures() {
        let mut criterion = Criterion { filters: Vec::new(), default_sample_size: 10 };
        run_one(&mut criterion);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut criterion =
            Criterion { filters: vec!["nomatch".into()], default_sample_size: 10 };
        let mut group = criterion.benchmark_group("g");
        let mut ran = false;
        group.bench_with_input(BenchmarkId::new("f", 0), &(), |b, _| {
            b.iter(|| ran = true);
        });
        group.finish();
        assert!(!ran);
    }

    #[test]
    fn filter_parsing_skips_flag_values() {
        fn args<'a>(v: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
            v.iter().map(|s| s.to_string())
        }
        assert_eq!(
            parse_filters(args(&["--save-baseline", "main", "GtOp"])),
            vec!["GtOp".to_string()],
            "a value flag's value must not become a filter",
        );
        assert_eq!(
            parse_filters(args(&["--sample-size=20", "probe", "--verbose"])),
            vec!["probe".to_string()],
            "inline =value flags and boolean flags are skipped whole",
        );
        // `--bench` is a boolean flag (cargo passes it bare); it must not
        // swallow a following filter.
        assert_eq!(
            parse_filters(args(&["--bench", "table3_pruning"])),
            vec!["table3_pruning".to_string()],
        );
    }

    #[test]
    fn median_is_an_observed_sample() {
        let ms = Duration::from_millis;
        assert_eq!(median_duration(&[ms(5)]), ms(5));
        assert_eq!(median_duration(&[ms(9), ms(1), ms(5)]), ms(5));
        // Even count: lower-middle sample, not an interpolated value.
        assert_eq!(median_duration(&[ms(4), ms(1), ms(9), ms(2)]), ms(2));
    }

    #[test]
    fn benchmark_id_display() {
        assert_eq!(BenchmarkId::new("algo", "cloud").to_string(), "algo/cloud");
        assert_eq!(BenchmarkId::from_parameter(42).to_string(), "42");
    }
}
