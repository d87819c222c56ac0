//! Tracked simulator-throughput baseline.
//!
//! ```text
//! cargo run --release -p wisync-bench --bin perf                 # measure, rewrite results/perf_baseline.json
//! cargo run --release -p wisync-bench --bin perf -- --quick      # single rep per case (CI smoke)
//! cargo run --release -p wisync-bench --bin perf -- --check      # trend gate vs committed history; never rewrites results/
//! cargo run --release -p wisync-bench --bin perf -- --out DIR    # write perf_baseline.json under DIR instead of results/
//! ```
//!
//! `--check` measures the suite, compares its geomean `events_per_sec`
//! against the geomean of the committed baseline's `history` series,
//! and exits 1 on a drop of more than `TREND_DROP_PCT` percent. It
//! never rewrites the committed baseline; combined with `--out` it
//! still writes the fresh report there, so CI can upload the
//! measurement as an artifact while gating against the committed trend.

use std::path::PathBuf;
use std::process::ExitCode;

use wisync_bench::perf::{check_against_history, extend_history, perf_report_json, run_perf_suite};
use wisync_bench::report::{obs_overhead_ns, overhead_pct};
use wisync_bench::BUDGET;
use wisync_core::{Machine, MachineConfig};
use wisync_testkit::write_doc;
use wisync_workloads::TightLoop;

struct Options {
    quick: bool,
    check: bool,
    stats: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: std::env::var_os("WISYNC_QUICK").is_some(),
        check: false,
        stats: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--check" => opts.check = true,
            "--stats" => opts.stats = true,
            "--out" => {
                let dir = args
                    .next()
                    .unwrap_or_else(|| panic!("--out needs a directory"));
                opts.out = Some(PathBuf::from(dir));
            }
            other => panic!("unknown argument {other:?} (try --quick/--check/--stats/--out DIR)"),
        }
    }
    opts
}

/// `--stats`: full machine statistics for the representative barrier
/// case, so a perf investigation starts from the same counters CI sees.
fn print_representative_stats(quick: bool) {
    let mut m = Machine::new(MachineConfig::wisync(64));
    TightLoop::new(if quick { 5 } else { 50 }).run_cycles_per_iter(&mut m, BUDGET);
    println!();
    println!("barrier/tightloop_wisync_64c machine statistics:");
    println!("{}", m.stats());
}

/// The committed baseline the trend gate reads and full runs rewrite.
fn committed_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join("perf_baseline.json")
}

fn main() -> ExitCode {
    let opts = parse_args();
    let reps = if opts.quick { 1 } else { 3 };
    let cases = run_perf_suite(reps);

    println!(
        "{:<32} {:>12} {:>14} {:>14} {:>14}",
        "case", "wall_ms", "sim_cycles", "events/sec", "Mcycles/sec"
    );
    for c in &cases {
        println!(
            "{:<32} {:>12.3} {:>14} {:>14.0} {:>14.2}",
            c.name,
            c.wall_ns as f64 / 1e6,
            c.sim_cycles,
            c.events_per_sec(),
            c.sim_mcycles_per_sec()
        );
    }

    if opts.stats {
        print_representative_stats(opts.quick);
    }

    let committed = committed_path();
    if opts.check {
        // Gate against the committed trend. The fresh measurement is
        // still written when --out names a directory (CI uploads it as
        // an artifact), but the committed baseline is never touched.
        if let Some(dir) = &opts.out {
            let doc = perf_report_json(&cases, &[]).render();
            write_doc(dir.join("perf_baseline.json"), &doc);
        }
        let text = std::fs::read_to_string(&committed)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", committed.display()));
        match check_against_history(&cases, &text) {
            Ok(line) => {
                println!("perf check OK: {line}");
                ExitCode::SUCCESS
            }
            Err(line) => {
                eprintln!("perf check FAILED: {line}");
                ExitCode::FAILURE
            }
        }
    } else {
        // Measure the instrumented/plain wall-clock ratio alongside
        // throughput so the overhead trend is tracked in the same
        // history series (`--check` skips it: it never rewrites). Same
        // best-of-6 interleave as the `report --obs-overhead` gate so
        // the two numbers are comparable.
        let (off_ns, on_ns) = obs_overhead_ns(if opts.quick { 2 } else { 6 });
        let obs_pct = overhead_pct(off_ns, on_ns);
        println!(
            "obs overhead: plain {:.3} ms, instrumented {:.3} ms ({obs_pct:+.2}%)",
            off_ns as f64 / 1e6,
            on_ns as f64 / 1e6
        );

        // Carry the throughput history forward from the previous
        // committed baseline (if any) before writing.
        let prior = std::fs::read_to_string(&committed).ok();
        let history = extend_history(prior.as_deref(), &cases, Some(obs_pct));
        if let Some(h) = history.last() {
            println!(
                "suite geomean: {:.0} events/sec ({})",
                h.geomean_events_per_sec, h.label
            );
        }
        let doc = perf_report_json(&cases, &history).render();
        let path = match &opts.out {
            Some(dir) => dir.join("perf_baseline.json"),
            None => committed,
        };
        write_doc(&path, &doc);
        ExitCode::SUCCESS
    }
}
