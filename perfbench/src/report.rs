//! The metrics a run reports and the result line that ends its output.
//!
//! The names, units and order here are the ones `BENCHMARK.json` lists:
//! `--trace 0` reports [`EndToEnd`], `--trace 1` reports [`PerLayer`].

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics, from untraced runs. All host time except
/// `success_rate`, which is simulated outcome.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub sim_ms_per_s: f64,
    pub op_p50_ms: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub success_rate: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("ops_per_s", self.ops_per_s, "1/s"),
            metric("sim_ms_per_s", self.sim_ms_per_s, "sim_ms/s"),
            metric("op_p50_ms", self.op_p50_ms, "ms"),
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("success_rate", self.success_rate, "share"),
        ]
    }

    pub fn print(&self) {
        println!("end-to-end (untraced):");
        print_metrics(&self.metrics());
    }
}

/// Per-layer metrics, from the traced run. A layer the workload does not
/// run reports zero work and a zero share.
#[derive(Debug, Clone, Default)]
pub struct PerLayer {
    pub ns_per_access: f64,
    pub build_ms: f64,
    pub reset_us: f64,
    pub evsets_ms: f64,
    pub accesses: u64,
    pub noise_events: u64,
    pub tenant_accesses: u64,
    pub sim_cycles: u64,
    pub pool_builds: u64,
    pub pool_checkouts: u64,
    pub evsets_success_ratio: f64,
    pub evsets_backtracks: u64,
    pub evsets_sim_cycles: u64,
    pub identify_traces: u64,
    pub identify_train_share: f64,
    pub identify_scan_share: f64,
    pub extract_monitor_share: f64,
    pub extract_decode_share: f64,
    pub extract_nonce_bits_recovered: u64,
    pub recovery_candidates_tested: u64,
    pub recovery_search_share: f64,
    pub campaign_chunks: u64,
    pub campaign_record_bytes: u64,
    pub campaign_self_share: f64,
    pub fleet_busy_share: f64,
    pub fleet_tail_idle_share: f64,
    pub trace_overhead_share: f64,
    /// Absolute per-layer times, printed but not part of the result line.
    pub details: Vec<Metric>,
}

impl PerLayer {
    pub fn metrics(&self) -> Vec<Metric> {
        let count = |name, v: u64, unit| metric(name, v as f64, unit);
        vec![
            metric("cache_model.ns_per_access", self.ns_per_access, "ns"),
            metric("machine.build_ms", self.build_ms, "ms"),
            metric("machine.reset_us", self.reset_us, "us"),
            metric("evsets.ms", self.evsets_ms, "ms"),
            count("machine.accesses", self.accesses, "count"),
            count("machine.noise_events", self.noise_events, "count"),
            count("machine.tenant_accesses", self.tenant_accesses, "count"),
            count("machine.sim_cycles", self.sim_cycles, "cycles"),
            count("machine.pool_builds", self.pool_builds, "count"),
            count("machine.pool_checkouts", self.pool_checkouts, "count"),
            metric("evsets.success_ratio", self.evsets_success_ratio, "share"),
            count("evsets.backtracks", self.evsets_backtracks, "count"),
            count("evsets.sim_cycles", self.evsets_sim_cycles, "cycles"),
            count("identify.traces", self.identify_traces, "count"),
            metric("identify.train_share", self.identify_train_share, "share"),
            metric("identify.scan_share", self.identify_scan_share, "share"),
            metric("extract.monitor_share", self.extract_monitor_share, "share"),
            metric("extract.decode_share", self.extract_decode_share, "share"),
            count(
                "extract.nonce_bits_recovered",
                self.extract_nonce_bits_recovered,
                "bits",
            ),
            count(
                "recovery.candidates_tested",
                self.recovery_candidates_tested,
                "count",
            ),
            metric("recovery.search_share", self.recovery_search_share, "share"),
            count("campaign.chunks", self.campaign_chunks, "count"),
            count("campaign.record_bytes", self.campaign_record_bytes, "bytes"),
            metric("campaign.self_share", self.campaign_self_share, "share"),
            metric("fleet.busy_share", self.fleet_busy_share, "share"),
            metric("fleet.tail_idle_share", self.fleet_tail_idle_share, "share"),
            metric("trace.overhead_share", self.trace_overhead_share, "share"),
        ]
    }

    pub fn print(&self) {
        println!("per-layer (traced):");
        print_metrics(&self.metrics());
        print_metrics(&self.details);
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Everything a workload hands back to `main`. The run is correct when no
/// output check failed.
#[derive(Debug)]
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The result line. Values keep every digit (`{}` prints the shortest
/// string that reads back as the same `f64`); a value that is not finite
/// makes the run incorrect and is written as 0.
pub fn result_line(outcome: &Outcome) -> String {
    use std::fmt::Write as _;
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty() && finite,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let outcome = Outcome {
            problems: Vec::new(),
            attempted: 120,
            failed: 0,
            metrics: EndToEnd {
                ops_per_s: 14.25,
                setup_s: 0.125,
                ..EndToEnd::default()
            }
            .metrics(),
        };
        let line = result_line(&outcome);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 14.25, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), 6);
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn a_non_finite_value_makes_the_run_incorrect() {
        let outcome = Outcome {
            problems: Vec::new(),
            attempted: 1,
            failed: 0,
            metrics: vec![metric("x", f64::NAN, "ms")],
        };
        assert!(result_line(&outcome).starts_with("{\"correct\": false"));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names: Vec<&str> = PerLayer::default()
            .metrics()
            .iter()
            .map(|m| m.name)
            .collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(names.len(), unique.len());
    }
}
