//! Folds the criterion-shim's `LLC_BENCH_JSON` JSONL stream into a single
//! machine-readable `BENCH.json` document.
//!
//! Usage:
//!
//! ```text
//! LLC_BENCH_JSON=bench_raw.jsonl cargo bench -p llc-bench
//! cargo run -p llc-bench --bin bench_json -- bench_raw.jsonl BENCH.json
//! ```
//!
//! Each bench target appends one JSON object per benchmark id to the JSONL
//! file (`id`, `samples`, `median_ns`, `min_ns`, `max_ns`, `mean_ns`); this
//! binary de-duplicates by id (last run wins), sorts, and writes them as one
//! `{"benches": [...]}` document. CI uploads `BENCH.json` as an artifact so
//! future PRs can diff machine-readable numbers instead of prose.

use llc_campaign::json::{self, Json};
use std::collections::BTreeMap;

/// One parsed JSONL record. Values are kept as the raw number strings the
/// shim printed; this tool re-emits rather than interprets them.
#[derive(Debug, Clone)]
struct BenchRecord {
    samples: String,
    median_ns: String,
    min_ns: String,
    max_ns: String,
    mean_ns: String,
}

fn parse_line(line: &str) -> Option<(String, BenchRecord)> {
    let record = Json::parse(line).ok()?;
    let number = |key: &str| match record.get(key)? {
        Json::Num(digits) => Some(digits.clone()),
        _ => None,
    };
    Some((
        record.get("id")?.as_str()?.to_string(),
        BenchRecord {
            samples: number("samples")?,
            median_ns: number("median_ns")?,
            min_ns: number("min_ns")?,
            max_ns: number("max_ns")?,
            mean_ns: number("mean_ns")?,
        },
    ))
}

fn render(records: &BTreeMap<String, BenchRecord>) -> String {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, (id, r)) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"samples\": {}, \"median_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"mean_ns\": {}}}{}\n",
            json::escape(id),
            r.samples,
            r.median_ns,
            r.min_ns,
            r.max_ns,
            r.mean_ns,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let input = args.next().unwrap_or_else(|| "bench_raw.jsonl".to_string());
    let output = args.next().unwrap_or_else(|| "BENCH.json".to_string());

    let raw = match std::fs::read_to_string(&input) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("bench_json: cannot read {input}: {e}");
            eprintln!("run benches with LLC_BENCH_JSON={input} first");
            std::process::exit(1);
        }
    };

    let mut records: BTreeMap<String, BenchRecord> = BTreeMap::new();
    let mut skipped = 0usize;
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        match parse_line(line) {
            Some((id, record)) => {
                records.insert(id, record); // later runs of the same id win
            }
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("bench_json: skipped {skipped} malformed line(s)");
    }

    let doc = render(&records);
    if let Err(e) = std::fs::write(&output, &doc) {
        eprintln!("bench_json: cannot write {output}: {e}");
        std::process::exit(1);
    }
    println!("bench_json: {} benches -> {output}", records.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"id\":\"g/a/Cloud Run\",\"samples\":10,\"median_ns\":1500,\"min_ns\":1000,\"max_ns\":2000,\"mean_ns\":1600}";

    #[test]
    fn parses_shim_lines() {
        let (id, r) = parse_line(LINE).expect("parses");
        assert_eq!(id, "g/a/Cloud Run");
        assert_eq!(r.samples, "10");
        assert_eq!(r.median_ns, "1500");
        assert_eq!(r.min_ns, "1000");
        assert_eq!(r.max_ns, "2000");
        assert_eq!(r.mean_ns, "1600");
    }

    #[test]
    fn unescapes_ids() {
        let line = "{\"id\":\"a\\\"b\\\\c\\u000ad\",\"samples\":1,\"median_ns\":1,\"min_ns\":1,\"max_ns\":1,\"mean_ns\":1}";
        let (id, _) = parse_line(line).expect("parses");
        assert_eq!(id, "a\"b\\c\nd");
    }

    #[test]
    fn last_record_wins_and_output_is_sorted() {
        let mut records = BTreeMap::new();
        for line in [
            LINE,
            "{\"id\":\"b\",\"samples\":1,\"median_ns\":5,\"min_ns\":5,\"max_ns\":5,\"mean_ns\":5}",
            "{\"id\":\"b\",\"samples\":2,\"median_ns\":7,\"min_ns\":6,\"max_ns\":8,\"mean_ns\":7}",
        ] {
            let (id, r) = parse_line(line).expect("parses");
            records.insert(id, r);
        }
        let doc = render(&records);
        assert!(doc.contains("\"id\": \"b\", \"samples\": 2, \"median_ns\": 7"));
        assert!(!doc.contains("\"median_ns\": 5"));
        let a = doc.find("g/a/Cloud Run").expect("a present");
        let b = doc.find("\"id\": \"b\"").expect("b present");
        assert!(b < a, "ids must be sorted (\"b\" < \"g/a/…\")");
        assert!(doc.ends_with("  ]\n}\n"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_line("{\"id\":\"x\"}").is_none());
        assert!(parse_line("not json").is_none());
    }
}
