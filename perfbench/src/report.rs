//! Metric names and units (the contract `BENCHMARK.json` declares), and
//! the report every run prints: human-readable lines, then one JSON
//! object as the last line of standard output.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, slowest_tenth, Unit};

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_instr_per_s", "instr/s"),
    ("sim_events_per_s", "events/s"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit). Counts are
/// simulated; times are host time.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sim.queue_ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_kcycle", "1/kcycle"),
    ("isa.decode_us", "us"),
    ("isa.uops", "count"),
    ("core.instructions", "count"),
    ("mem.ns_per_access", "ns"),
    ("mem.accesses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.dir_transactions", "count"),
    ("mem.invalidations", "count"),
    ("wireless.data_ns_per_frame.backoff", "ns"),
    ("wireless.data_ns_per_frame.token", "ns"),
    ("wireless.data_ns_per_frame.hybrid", "ns"),
    ("wireless.data_transfers", "count"),
    ("wireless.data_success_ratio", "ratio"),
    ("wireless.data_busy_frac", "ratio"),
    ("wireless.mac_exhaustions", "count"),
    ("wireless.tone_ns_per_episode", "ns"),
    ("wireless.tone_barriers", "count"),
    ("fault.injected", "count"),
    ("fault.detected", "count"),
    ("fault.retransmits", "count"),
    ("fault.resyncs", "count"),
    ("fault.undetected", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.dropped_trace_events", "count"),
    ("core.new_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.rmw_success_ratio", "ratio"),
    ("core.cas_success_ratio", "ratio"),
    ("core.snapshot_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.snapshot_kb", "KiB"),
    ("workloads.load_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.key_us", "us"),
    ("serve.submit_hit_us", "us"),
    ("serve.submit_miss_ms", "ms"),
    ("serve.http_overhead_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.cache_files", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured, before it is printed.
#[derive(Default)]
pub struct Report {
    /// Human-readable report lines, printed before the JSON line.
    pub lines: Vec<String>,
    /// Operations attempted: simulated jobs plus requests.
    pub attempted: u64,
    /// Descriptions of failed operations.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Prints the report; with `traced` the JSON carries the per-layer
    /// metrics, otherwise the end-to-end ones. A per-layer metric the
    /// workload did not measure is reported as 0 and named as absent.
    pub fn print(mut self, workload: &str, traced: bool) {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut absent = Vec::new();
        for (name, _) in declared {
            if !self.values.contains_key(name) {
                absent.push(*name);
            }
        }
        if !absent.is_empty() {
            self.line(format!(
                "absent on {workload} (layer bypassed by this workload, reported as 0): {}",
                absent.join(", ")
            ));
        }
        let failed = self.failures.len() as u64;
        self.line(format!(
            "failed_frac = {:.6} ratio ({failed}/{} operations)",
            if self.attempted == 0 {
                0.0
            } else {
                failed as f64 / self.attempted as f64
            },
            self.attempted
        ));
        let shown: Vec<String> = self
            .failures
            .iter()
            .take(20)
            .map(|f| format!("FAILED: {f}"))
            .collect();
        self.lines.extend(shown);
        for l in &self.lines {
            println!("{l}");
        }
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{workload}: {name} = {value} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && self.attempted > 0,
            self.attempted.max(failed).max(1),
            metrics.join(", ")
        );
    }
}

/// Sets the end-to-end timings from the slowest tenth of a run's
/// `units` (see [`slowest_tenth`]): simulated work over their host
/// time, percentiles over their operations, and the median of their
/// set-ups. The rate over every unit is printed beside them.
pub fn end_to_end(report: &mut Report, units: &[Unit]) {
    let picked = slowest_tenth(units);
    report.line(format!(
        "end-to-end timings from the slowest tenth of units: {} of {} (the first skipped as warm-up)",
        picked.len(),
        units.len()
    ));
    let secs: f64 = picked.iter().map(|u| u.secs).sum();
    if secs > 0.0 {
        let total = |f: fn(&Unit) -> f64| picked.iter().map(|u| f(u)).sum::<f64>();
        report.set("sim_instr_per_s", total(|u| u.instructions) / secs);
        report.set("sim_events_per_s", total(|u| u.events) / secs);
    }
    // The median is printed, not reported: on `serve_mix` it is a cache
    // hit, whose 0.2 ms of socket and file work varied twofold between
    // runs on a shared host.
    let ops: Vec<f64> = picked.iter().flat_map(|u| u.ops_ms.clone()).collect();
    let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    let p90 = percentile(&ops, 90.0);
    report.line(format!(
        "op_ms_p50 = {} ms, op_ms_p90 = {} ms (n={})",
        show(percentile(&ops, 50.0)),
        show(p90),
        ops.len()
    ));
    if let Some(v) = p90 {
        report.set("op_ms_p90", v);
    }
    let setups: Vec<f64> = picked.iter().map(|u| u.setup_s).collect();
    if let Some(v) = median(&setups) {
        report.set("setup_s", v);
    }
    let rates: Vec<f64> = units
        .iter()
        .skip(1)
        .map(|u| u.instructions / u.secs)
        .collect();
    if let Some(m) = median(&rates) {
        let (lo, hi) = rates
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), r| (lo.min(*r), hi.max(*r)));
        report.line(format!(
            "sim_instr_per_s over every unit: median {m:.4e}, min {lo:.4e}, max {hi:.4e} (n={})",
            rates.len()
        ));
    }
}

/// A finite float as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` uses only `[A-Za-z0-9_.-]`, starts with a letter
    /// or digit and fits in 64 characters.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names are used once");
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name("x/y"));
    }

    #[test]
    fn units_fit_the_contract() {
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = wisync_testkit::Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            let Some(wisync_testkit::Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is an array")
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(wisync_testkit::Json::Str(n)), Some(wisync_testkit::Json::Str(u))) => {
                        (n.clone(), u.clone())
                    }
                    _ => panic!("metric without name or unit"),
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(1e21), "1000000000000000000000.0");
    }
}
