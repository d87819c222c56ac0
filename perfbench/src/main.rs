//! WiSync benchmark: simulated work per host second and job-service
//! latency over five workloads, plus a traced run that reports each
//! layer's own numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wisync_sync --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). See README.md.

mod host;
mod jobs;
mod layers;
mod report;
mod serve_mix;
mod stats;
mod trace;

use std::process::ExitCode;

use wisync_wireless::MacPolicy;

use crate::jobs::SimWorkload;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self_times, summarize, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "wisync_sync",
    "baseline_sync",
    "compute_apps",
    "lossy_mac_obs",
    "serve_mix",
];

/// Where a run keeps its temporary files (inside the benchmark's own
/// directory; removed or overwritten by the next run).
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/work");

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Reports the tracing overhead: traced against untraced host seconds
/// of identical units of work (passes or blocks).
pub fn report_overhead(report: &mut Report, traced: &[f64], untraced: &[f64]) {
    if let (Some(t), Some(u)) = (median(traced), median(untraced)) {
        let pct = (t / u - 1.0) * 100.0;
        report.line(format!(
            "trace.overhead_pct = {pct:.3} % (median traced unit {t:.6} s over untraced {u:.6} s, n={}/{})",
            traced.len(),
            untraced.len()
        ));
        report.set("trace.overhead_pct", pct);
    }
}

/// The isolated layer figures, the same for every workload.
fn isolated_layers(report: &mut Report) {
    report.set("sim.queue_ns_per_event", layers::queue_ns_per_event());
    let (decode_us, uops) = layers::decode_us();
    report.set("isa.decode_us", decode_us);
    report.set("isa.uops", uops as f64);
    report.set("mem.ns_per_access", layers::mem_ns_per_access());
    for (name, mac) in [
        ("wireless.data_ns_per_frame.backoff", MacPolicy::Exponential),
        ("wireless.data_ns_per_frame.token", MacPolicy::TokenRing),
        (
            "wireless.data_ns_per_frame.hybrid",
            MacPolicy::AdaptiveHybrid,
        ),
    ] {
        report.set(name, layers::data_ns_per_frame(mac));
    }
    report.set(
        "wireless.tone_ns_per_episode",
        layers::tone_ns_per_episode(),
    );
    let (parse, key) = serve_mix::parse_and_key_us();
    report.set("serve.parse_us", parse);
    report.set("serve.key_us", key);
}

/// Prints per span name its count, total, self time and median, and
/// writes every span to the work directory.
fn report_spans(report: &mut Report, tracer: &Tracer, workload: &str, seed: u64) {
    let spans = tracer.spans();
    let self_ns: u64 = self_times(spans).iter().sum();
    report.line(format!(
        "spans: {} recorded, {:.3} ms self time in total",
        spans.len(),
        self_ns as f64 / 1e6
    ));
    for (name, (count, total, own, durations)) in summarize(spans) {
        report.line(format!(
            "  span {name:<16} n={count:<6} total={:.3} ms self={:.3} ms median={:.4} ms",
            total as f64 / 1e6,
            own as f64 / 1e6,
            median(&durations).unwrap_or(0.0) / 1e6
        ));
    }
    let path = format!("{WORK_DIR}/spans-{workload}-seed{seed}.json");
    let written =
        std::fs::create_dir_all(WORK_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => report.line(format!("spans written to {path}")),
        Err(e) => report.failures.push(format!("write {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = host::stray_knob(std::env::vars()) {
        eprintln!(
            "perfbench: refusing to start: {knob} is set; simulator knobs change what is \
             measured, so unset every {}* variable",
            host::KNOB_PREFIX
        );
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    report.line(host::stamp(args.seed));
    report.line(format!(
        "workload={} seconds={} trace={}",
        args.workload, args.seconds, args.trace as u8
    ));
    let mut tracer = Tracer::new(args.trace);
    match args.workload {
        "serve_mix" => serve_mix::run(
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
            std::path::Path::new(WORK_DIR),
            &mut report,
        ),
        name => {
            let w = match name {
                "wisync_sync" => SimWorkload::WisyncSync,
                "baseline_sync" => SimWorkload::BaselineSync,
                "compute_apps" => SimWorkload::ComputeApps,
                _ => SimWorkload::LossyMacObs,
            };
            jobs::run(
                w,
                args.seed,
                args.seconds,
                args.trace,
                &mut tracer,
                &mut report,
            );
        }
    }
    if args.trace {
        isolated_layers(&mut report);
        report_spans(&mut report, &tracer, args.workload, args.seed);
    }
    if let Some(mib) = host::peak_rss_mib() {
        report.set("peak_rss_mb", mib);
    }
    report.print(args.workload, args.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve_mix", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload serve_mix --seed 1 --seconds 0").is_err());
        assert!(args("--workload serve_mix --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve_mix --seconds 1").is_err());
    }
}
