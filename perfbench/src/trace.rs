//! Spans recorded by the traced runs: kept in memory, written to a JSONL
//! side file when the run ends, and reduced to per-layer self times.
//!
//! A span covers one call from the benchmark into a crate's public entry
//! point. Spans of one operation (a campaign trial or a whole attack) share
//! `op`; `parent` names the enclosing span (0 for none). The side file uses
//! the repository's one JSON codec (`llc-campaign`'s `json` module), so no
//! second parser exists.

use crate::json::{Json, JsonWriter};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: String,
    pub worker: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Deterministic work counters observed at the span's boundary.
    pub counters: Vec<(String, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn interval(&self) -> (u64, u64) {
        (self.start_ns, self.end_ns)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: u64,
    op: u64,
    worker: u64,
    name: &'static str,
    start_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span; its id is fixed now so children can name it.
    pub fn open(&self, name: &'static str, parent: u64, op: u64, worker: u64) -> Open {
        // Relaxed: the id only has to be unique, it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            op,
            worker,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` now and keeps it with its counters.
    pub fn close(&self, open: Open, counters: Vec<(String, u64)>) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .push(Span {
                id: open.id,
                parent: open.parent,
                op: open.op,
                name: open.name.to_string(),
                worker: open.worker,
                start_ns: open.start_ns,
                end_ns,
                counters,
            });
    }

    /// Runs `f` inside a span without counters.
    pub fn span<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent, op, 0);
        let out = f();
        self.close(open, Vec::new());
        out
    }

    /// All closed spans, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of `parent` not covered by any of `children`. Children are
/// clipped to the parent and overlapping children (two workers) count once.
pub fn self_time_ns(parent: (u64, u64), children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .into_iter()
        .map(|(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (pe - ps) - covered
}

/// Sum of the durations of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

fn encode(span: &Span) -> String {
    let mut w = JsonWriter::new();
    w.obj()
        .key("id")
        .num(span.id)
        .key("parent")
        .num(span.parent)
        .key("op")
        .num(span.op)
        .key("name")
        .str(&span.name)
        .key("worker")
        .num(span.worker)
        .key("start_ns")
        .num(span.start_ns)
        .key("end_ns")
        .num(span.end_ns)
        .key("counters")
        .obj();
    for (name, value) in &span.counters {
        w.key(name).num(*value);
    }
    w.end_obj().end_obj();
    w.finish()
}

fn decode(value: &Json) -> Result<Span, String> {
    let num = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("span field {key:?}"))
    };
    let counters = match value.get("counters") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|v| (k.clone(), v))
                    .ok_or(format!("counter {k:?}"))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("span field \"counters\"".into()),
    };
    Ok(Span {
        id: num("id")?,
        parent: num("parent")?,
        op: num("op")?,
        name: value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span field \"name\"")?
            .to_string(),
        worker: num("worker")?,
        start_ns: num("start_ns")?,
        end_ns: num("end_ns")?,
        counters,
    })
}

/// Writes one JSON line per span.
pub fn write_side_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for span in spans {
        text.push_str(&encode(span));
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Reads a side file written by [`write_side_file`].
pub fn read_side_file(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| Json::parse(line).and_then(|v| decode(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_whole_span() {
        assert_eq!(self_time_ns((10, 110), []), 100);
    }

    #[test]
    fn self_time_counts_two_workers_overlapping_spans_once() {
        // Campaign::run spans [0, 100). Worker 0 runs trials [5, 40) and
        // [42, 90); worker 1 runs [10, 60) and [61, 95). Their union is
        // [5, 95) minus nothing, so only [0, 5) and [95, 100) remain.
        let children = [(5, 40), (42, 90), (10, 60), (61, 95)];
        assert_eq!(self_time_ns((0, 100), children), 10);
        // Summing the children instead would exceed the parent.
        let summed: u64 = children.iter().map(|(s, e)| e - s).sum();
        assert!(summed > 100);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_keeps_gaps() {
        let children = [(0, 20), (30, 40), (35, 50), (90, 200)];
        // Covered inside [10, 100): [10, 20) + [30, 50) + [90, 100) = 40.
        assert_eq!(self_time_ns((10, 100), children), 50);
        // A child entirely outside the parent covers nothing.
        assert_eq!(self_time_ns((10, 100), [(100, 120)]), 90);
    }

    #[test]
    fn side_file_round_trips_through_the_campaign_codec() {
        let tracer = Tracer::new();
        let outer = tracer.open("attack", 0, 7, 0);
        let inner = tracer.open("identify.scan", outer.id, 7, 1);
        tracer.close(
            inner,
            vec![("traces".into(), 603), ("accesses".into(), u64::MAX)],
        );
        tracer.close(outer, Vec::new());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);

        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        write_side_file(&path, &spans).unwrap();
        let back = read_side_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, spans);
        let scan = back.iter().find(|s| s.name == "identify.scan").unwrap();
        assert_eq!(
            scan.parent,
            back.iter().find(|s| s.name == "attack").unwrap().id
        );
        assert_eq!(scan.counter("traces"), 603);
        assert_eq!(scan.counter("absent"), 0);
    }

    #[test]
    fn side_file_rejects_a_span_missing_a_field() {
        let value = Json::parse(r#"{"id":1,"parent":0,"op":0,"name":"x","worker":0}"#).unwrap();
        assert!(decode(&value).is_err());
    }
}
