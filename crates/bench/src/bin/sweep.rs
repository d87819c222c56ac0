//! Parallel experiment sweep: regenerates every paper table/figure
//! concurrently and writes deterministic JSON into `results/`, plus the
//! same rows rendered as the paper-style text table next to each file.
//!
//! ```text
//! cargo run --release -p wisync-bench --bin sweep -- [--seed N] [--threads N] [--quick] [--out DIR]
//! cargo run --release -p wisync-bench --bin sweep -- --profile fig9/FIFO_w64
//!                        # additionally profile one grid job (writes results/obs_profile_<job>.json)
//! ```
//!
//! `--out DIR` redirects every written file from `results/` to `DIR`,
//! so CI can regenerate and diff without mutating the committed tree.
//!
//! The grid itself lives in `wisync_bench::grid` (shared with the
//! `serve` binary, which re-runs slices of it on demand). Each
//! experiment configuration (a figure row, a table cell) is one job on
//! a `wisync-testkit` sweep pool. Jobs receive seeds derived from the
//! base seed and their grid index, results come back in job order, and
//! floats render deterministically — so two runs with the same `--seed`
//! produce byte-identical `results/*.json` and `results/*.txt`,
//! regardless of thread count or OS scheduling. `--quick` shrinks the
//! grid for CI smoke runs.

use wisync_bench::grid;
use wisync_testkit::{run_sweep_timed, sweep, write_doc};

struct Options {
    seed: u64,
    threads: usize,
    quick: bool,
    stats: bool,
    profile: Option<String>,
    /// Output directory for the rendered files (default `results/`), so
    /// CI smoke runs can regenerate-and-compare without mutating the
    /// committed tree.
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 0xC0DE,
        threads: sweep::default_threads(),
        quick: false,
        stats: false,
        profile: None,
        out: "results".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().expect("--seed takes a value");
                opts.seed = v.parse().unwrap_or_else(|_| panic!("bad seed {v:?}"));
            }
            "--threads" => {
                let v = args.next().expect("--threads takes a value");
                opts.threads = v.parse().unwrap_or_else(|_| panic!("bad threads {v:?}"));
            }
            "--quick" => opts.quick = true,
            "--stats" => opts.stats = true,
            "--profile" => opts.profile = Some(args.next().expect("--profile takes a job name")),
            "--out" => opts.out = args.next().expect("--out takes a directory"),
            other => panic!(
                "unknown argument {other:?} (try --seed/--threads/--quick/--stats/--profile/--out)"
            ),
        }
    }
    opts
}

/// `--stats`: full machine statistics for one representative grid point
/// (a Figure 7 TightLoop run on WiSync at the grid's core count), on
/// stderr so the `results/*.json` pipeline is untouched.
fn print_representative_stats(quick: bool) {
    use wisync_core::{Machine, MachineConfig};
    use wisync_workloads::TightLoop;

    let cores = grid::grid_cores(quick);
    let mut m = Machine::new(MachineConfig::wisync(cores));
    TightLoop::new(if quick { 4 } else { 20 }).run_cycles_per_iter(&mut m, wisync_bench::BUDGET);
    eprintln!("fig7 representative run (WiSync, {cores} cores) machine statistics:");
    eprintln!("{}", m.stats());
}

fn main() {
    wisync_bench::exit_on_stray_knob();
    let opts = parse_args();
    if opts.stats {
        print_representative_stats(opts.quick);
    }
    let jobs = grid::build_jobs(opts.quick);
    let total = jobs.len();
    eprintln!(
        "sweep: {total} jobs on {} threads, seed {} ({})",
        opts.threads,
        opts.seed,
        if opts.quick {
            "quick grid"
        } else {
            "full grid"
        }
    );
    let timed = run_sweep_timed(jobs, opts.threads, opts.seed);

    // Per-job wall-clock summary, slowest first, on stderr — the JSON
    // on disk stays byte-identical; this only tells a human where the
    // sweep's wall time goes (the pool is bounded by its slowest job).
    let mut timings: Vec<(&str, std::time::Duration)> = timed
        .iter()
        .map(|(name, _, elapsed)| (name.as_str(), *elapsed))
        .collect();
    timings.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let busy: std::time::Duration = timings.iter().map(|(_, d)| *d).sum();
    eprintln!(
        "sweep: job wall-clock, slowest first ({:.3}s total busy):",
        busy.as_secs_f64()
    );
    for (name, elapsed) in &timings {
        eprintln!("  {:>9.3}s  {name}", elapsed.as_secs_f64());
    }

    // One JSON document and one text table per figure, rows in job
    // order; Table 5 is projected from the fig10 rows, not re-run.
    let reports = grid::figure_reports(
        timed
            .into_iter()
            .enumerate()
            .map(|(index, (name, value, _elapsed))| (index as u64, name, value)),
        opts.seed,
        opts.quick,
    );
    for (figure, report) in reports {
        let path = format!("{}/{figure}", opts.out);
        write_doc(format!("{path}.json"), &report.render());
        write_doc(format!("{path}.txt"), &grid::figure_text(&report));
    }

    // `--profile <job>`: re-run one grid job with full observability and
    // drop its per-address/timeline profile next to the figure JSON.
    if let Some(job) = &opts.profile {
        let p = wisync_bench::report::profile_grid_job(job, opts.quick)
            .unwrap_or_else(|e| panic!("--profile: {e}"));
        eprint!("{}", p.render_text());
        let path = format!("{}/obs_profile_{}.json", opts.out, job.replace('/', "_"));
        write_doc(path, &p.profile.render());
    }
}
