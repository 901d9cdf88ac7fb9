//! The repository benchmark. Runs one workload for a measurement window,
//! checks its outputs, prints every metric with its unit and ends with one
//! JSON result line. See `README.md` next to this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload evset-sweep --seed 1 --seconds 40 --trace 0
//! ```

mod attack;
#[allow(dead_code)]
#[path = "../../crates/campaign/src/json.rs"]
mod json;
mod report;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvsetSweep,
    E2eAttack,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

const USAGE: &str =
    "usage: perfbench --workload evset-sweep|e2e-attack --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "evset-sweep" => Workload::EvsetSweep,
                    "e2e-attack" => Workload::E2eAttack,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("--seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where runs keep their checkpoint directories and span files (ignored by
/// git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced run's spans and reads them back through the same codec.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    let written = trace::write_side_file(&path, spans).map_err(|e| e.to_string());
    match written.and_then(|()| trace::read_side_file(&path)) {
        Ok(back) if back == spans => {
            println!("spans: {} written to {}", spans.len(), path.display())
        }
        Ok(_) => println!("spans: {} did not read back identically", path.display()),
        Err(e) => println!("spans: {e}"),
    }
}

/// Host fingerprint: nproc, CPU model, compiler, and which sources were
/// measured (the git commit when there is one, and a digest of the
/// workspace sources either way).
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "nproc {nproc}; cpu {cpu}; {rustc}; commit {}; sources {:016x}",
        git_head(&root).unwrap_or_else(|| "none (not a git checkout)".into()),
        source_digest(&root)
    )
}

fn git_head(root: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| Some(reference.to_string())),
        None => Some(head.to_string()),
    }
}

/// Digest of every manifest and Rust source of the workspace and of this
/// benchmark, in path order.
fn source_digest(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "out" {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    walk(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend(
            file.strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    stats::fnv64(&bytes)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {:?} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!("host: {}", fingerprint());
    let outcome = match args.workload {
        Workload::EvsetSweep => sweep::run(&args),
        Workload::E2eAttack => attack::run(&args),
    };
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", report::result_line(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "e2e-attack",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::E2eAttack);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 30.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&strings(&["--workload", "hit"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "evset-sweep",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "evset-sweep",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "evset-sweep", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "5", "--trace", "0"])).is_err());
    }
}
