//! MAC lab sweep: measure every lab MAC policy across the workload ×
//! BER matrix and write the design-space report.
//!
//! ```text
//! cargo run --release -p wisync-bench --bin mac_lab -- \
//!     [--seed N] [--threads N] [--quick] [--out DIR] [--conformance]
//! ```
//!
//! Writes `results/mac_lab.json` (`wisync-mac-lab/v1`) — one row per
//! (MAC, workload, bad-state BER) cell with channel counters, the
//! resilience verdict, and the cell's hottest contended lines — plus
//! `results/mac_lab.txt`, the per-workload winner table citing the
//! contended-line leaderboard. Deterministic for a fixed `--seed`:
//! fault-plan seeds derive from each cell's grid index, so reruns and
//! different `--threads` values produce byte-identical output.
//!
//! `--conformance` additionally runs every MAC × workload on the ideal
//! channel under two extra seeds and requires the workload `check()`
//! oracles to pass outright (not merely detect trouble) — the CI
//! `mac-matrix` gate. Exits non-zero on any oracle failure or
//! silent-divergence contract violation in the matrix.

use wisync_bench::mac_lab::{
    lab_matrix, render_lab_text, run_cell, LabWorkload, LAB_CORES, LAB_MACS,
};
use wisync_testkit::{derive_seed, run_sweep_timed, sweep, write_doc, Json, SweepJob};

struct Options {
    seed: u64,
    threads: usize,
    quick: bool,
    conformance: bool,
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 0xACCE55,
        threads: sweep::default_threads(),
        quick: false,
        conformance: false,
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
            "--conformance" => opts.conformance = true,
            "--out" => opts.out = args.next().expect("--out takes a directory"),
            other => panic!(
                "unknown argument {other:?} (try --seed/--threads/--quick/--out/--conformance)"
            ),
        }
    }
    opts
}

/// The strict clean-channel oracle pass behind `--conformance`: every
/// lab MAC must produce *correct* final state on every workload, for
/// two derived seeds each. Returns failure descriptions.
fn conformance_failures(base_seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let mut index = 0u64;
    for mac in LAB_MACS {
        for workload in LabWorkload::all() {
            for rep in 0..2u64 {
                let cell = run_cell(mac, workload, 0.0, derive_seed(base_seed, index));
                index += 1;
                if !cell.correct {
                    failures.push(format!(
                        "{mac}/{workload} rep {rep}: {:?} ({:?})",
                        cell.outcome, cell.error
                    ));
                }
            }
        }
    }
    failures
}

fn main() {
    wisync_bench::exit_on_stray_knob();
    let opts = parse_args();
    let matrix = lab_matrix(opts.quick);
    let total = matrix.len();
    eprintln!(
        "mac_lab: {total} cells on {} threads, seed {} ({})",
        opts.threads,
        opts.seed,
        if opts.quick {
            "quick matrix"
        } else {
            "full matrix"
        }
    );

    let jobs: Vec<SweepJob> = matrix
        .into_iter()
        .map(|(mac, workload, ber)| {
            SweepJob::new(
                format!("mac_lab/{mac}_{workload}_ber{ber:.0e}"),
                move |mut rng| {
                    let plan_seed = rng.next_u64();
                    run_cell(mac, workload, ber, plan_seed).to_json()
                },
            )
        })
        .collect();
    let timed = run_sweep_timed(jobs, opts.threads, opts.seed);

    let mut rows = Vec::new();
    let mut data_rows = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for (index, (name, value, _elapsed)) in timed.into_iter().enumerate() {
        let row = name.split_once('/').expect("job names are figure/row").1;
        if value.get("ok") == Some(&Json::Bool(false)) {
            violations.push(name.clone());
        }
        rows.push(wisync_bench::grid::job_row(
            opts.seed,
            index as u64,
            row,
            value.clone(),
        ));
        data_rows.push(value);
    }

    let report = Json::obj([
        ("schema", Json::Str("wisync-mac-lab/v1".to_string())),
        ("figure", Json::Str("mac_lab".to_string())),
        ("base_seed", Json::U64(opts.seed)),
        ("quick", Json::Bool(opts.quick)),
        ("cores", Json::U64(LAB_CORES as u64)),
        ("rows", Json::Arr(rows)),
    ]);
    write_doc(format!("{}/mac_lab.json", opts.out), &report.render());
    println!("wrote {}/mac_lab.json", opts.out);

    let text = render_lab_text(&data_rows);
    write_doc(format!("{}/mac_lab.txt", opts.out), &text);
    print!("{text}");

    let mut failed = false;
    if !violations.is_empty() {
        eprintln!(
            "mac_lab: SILENT DIVERGENCE in {} of {total} cells:",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        failed = true;
    }
    if opts.conformance {
        let failures = conformance_failures(opts.seed);
        if failures.is_empty() {
            println!(
                "mac_lab: conformance pass OK ({} MACs x {} workloads x 2 seeds)",
                LAB_MACS.len(),
                LabWorkload::all().len()
            );
        } else {
            eprintln!("mac_lab: CONFORMANCE FAILURES:");
            for f in &failures {
                eprintln!("  {f}");
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("mac_lab: {total} cells, contract held everywhere");
}
