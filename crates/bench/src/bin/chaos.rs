//! Chaos soak: run the synchronization kernels under deterministic
//! fault schedules and enforce the resilience contract — every run
//! terminates with a correct final state or reports a detected fault,
//! never silent divergence.
//!
//! ```text
//! cargo run --release -p wisync-bench --bin chaos -- [--seed N] [--threads N] [--quick]
//! ```
//!
//! Writes two reports into `results/`:
//!
//! * `faults_chaos.json` — the soak matrix: seeds x kernels x BER plus
//!   burst / dropout / tone / weak-checksum schedules, one row per run
//!   with its verdict and fault counters.
//! * `faults_ber.json` — the BER ablation: barrier latency (TightLoop
//!   on WiSyncNoT) and CAS throughput (ADD on WiSync) as the uniform
//!   bit-error rate rises from zero.
//!
//! Exits non-zero if any run violates the contract. Deterministic for
//! a fixed `--seed`: the fault-plan seeds are derived per job, so two
//! invocations produce byte-identical JSON. `WISYNC_QUICK=1` (or
//! `--quick`) shrinks the matrix for CI smoke runs.

use wisync_bench::chaos::{
    burst_schedule, dropout_schedule, escape_schedule, run_chaos, tone_schedule, uniform_schedule,
    ChaosKernel, ChaosReport, SOAK_BERS,
};
use wisync_core::{FaultPlan, MachineKind};
use wisync_testkit::{derive_seed, run_sweep_timed, sweep, Json, SweepJob};

const CORES: usize = 8;

struct Options {
    seed: u64,
    threads: usize,
    quick: bool,
    stats: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 0xC4A05,
        threads: sweep::default_threads(),
        quick: std::env::var_os("WISYNC_QUICK").is_some(),
        stats: false,
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
            other => panic!("unknown argument {other:?} (try --seed/--threads/--quick/--stats)"),
        }
    }
    opts
}

/// `--stats`: full machine statistics for one representative soak run
/// (TightLoop on WiSyncNoT under a uniform-BER schedule), on stderr so
/// the `results/*.json` pipeline is untouched.
fn print_representative_stats(seed: u64) {
    use wisync_core::{Machine, MachineConfig, RunOutcome};
    use wisync_workloads::TightLoop;

    let mut m = Machine::new(MachineConfig::for_kind(MachineKind::WiSyncNoT, CORES));
    m.set_fault_plan(uniform_schedule(1e-4, derive_seed(seed, 0)));
    TightLoop::new(16).load(&mut m);
    let r = m.run(wisync_bench::BUDGET);
    assert_eq!(r.outcome, RunOutcome::Completed);
    eprintln!("soak representative run (TightLoop, WiSyncNoT, ber 1e-4) machine statistics:");
    eprintln!("{}", m.stats());
}

/// Renders one soak run as a JSON row. The `ok` flag is the contract
/// verdict `main` scans for before choosing the exit code.
fn soak_row(schedule: &str, plan_seed: u64, r: &ChaosReport) -> Json {
    Json::obj([
        ("kernel", Json::Str(r.kernel.to_string())),
        ("machine", Json::Str(r.kind.to_string())),
        ("schedule", Json::Str(schedule.to_string())),
        ("plan_seed", Json::Str(format!("0x{plan_seed:016x}"))),
        ("outcome", Json::Str(format!("{:?}", r.outcome))),
        ("cycles", Json::U64(r.cycles)),
        ("correct", Json::Bool(r.correct)),
        ("injected", Json::U64(r.stats.injected())),
        ("detected", Json::U64(r.stats.detected())),
        ("checksum_rejects", Json::U64(r.stats.checksum_rejects)),
        ("undetected", Json::U64(r.stats.undetected_corruptions)),
        ("retransmits", Json::U64(r.stats.retransmits)),
        ("resyncs", Json::U64(r.stats.resyncs)),
        ("fault_records", Json::U64(r.records as u64)),
        ("ok", Json::Bool(r.violation().is_none())),
        (
            "error",
            match &r.error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
    ])
}

/// Seeds sampled per BER-ablation point.
const ABLATION_REPS: u64 = 8;

/// Runs `kernel` at `ber` across `ABLATION_REPS` derived seeds and
/// summarizes: the success rate, and latency-relevant numbers from the
/// first run that finished correctly (`None` when the channel is so bad
/// every attempt degrades to a detected failure — itself a result).
fn ber_samples(
    kernel: ChaosKernel,
    kind: MachineKind,
    ber: f64,
    seed: u64,
) -> (u64, Option<ChaosReport>) {
    let mut correct = 0;
    let mut first: Option<ChaosReport> = None;
    for rep in 0..ABLATION_REPS {
        let plan = if ber == 0.0 {
            FaultPlan::none()
        } else {
            uniform_schedule(ber, derive_seed(seed, rep))
        };
        let r = run_chaos(kernel, kind, CORES, plan);
        assert!(
            r.violation().is_none(),
            "ablation run violated the soak contract at ber {ber}"
        );
        if r.correct {
            correct += 1;
            if first.is_none() {
                first = Some(r);
            }
        }
    }
    (correct, first)
}

/// One BER-ablation row: how much latency/throughput the recovery
/// machinery costs as the channel degrades, and how often recovery
/// still lands a correct run at all.
fn ber_row(ber: f64, seed: u64) -> Json {
    let (barrier_ok, barrier) =
        ber_samples(ChaosKernel::TightLoop, MachineKind::WiSyncNoT, ber, seed);
    let (cas_ok, cas) = ber_samples(ChaosKernel::Add, MachineKind::WiSync, ber, seed ^ 1);
    let retransmits =
        |a: &Option<ChaosReport>, b: &Option<ChaosReport>, f: fn(&ChaosReport) -> u64| {
            a.as_ref().map_or(0, f) + b.as_ref().map_or(0, f)
        };
    Json::obj([
        ("ber", Json::F64(ber)),
        (
            "barrier_correct_rate",
            Json::F64(barrier_ok as f64 / ABLATION_REPS as f64),
        ),
        (
            "cas_correct_rate",
            Json::F64(cas_ok as f64 / ABLATION_REPS as f64),
        ),
        (
            "barrier_cycles_per_iter",
            barrier
                .as_ref()
                .map_or(Json::Null, |r| Json::U64(r.cycles / r.work_units)),
        ),
        (
            "cas_per_kcycle",
            cas.as_ref().map_or(Json::Null, |r| {
                Json::F64(r.cas_successes as f64 * 1000.0 / r.cycles as f64)
            }),
        ),
        (
            "retransmits",
            Json::U64(retransmits(&barrier, &cas, |r| r.stats.retransmits)),
        ),
        (
            "resyncs",
            Json::U64(retransmits(&barrier, &cas, |r| r.stats.resyncs)),
        ),
    ])
}

/// Builds the job grid. Names are `<figure>/<row>`; the prefix decides
/// which `results/<figure>.json` a row lands in.
fn build_jobs(quick: bool) -> Vec<SweepJob> {
    let mut jobs: Vec<SweepJob> = Vec::new();

    // The soak matrix: seeds x kernels x uniform BER. Fault-plan seeds
    // come from each job's own derived rng, so the matrix is pinned by
    // the base seed alone.
    let soak_seeds: usize = if quick { 2 } else { 8 };
    let bers: Vec<f64> = if quick {
        vec![1e-5, 1e-3]
    } else {
        SOAK_BERS.to_vec()
    };
    for rep in 0..soak_seeds {
        for kernel in ChaosKernel::soak_matrix() {
            for &ber in &bers {
                jobs.push(SweepJob::new(
                    format!("faults_chaos/{kernel}_ber{ber:.0e}_s{rep}"),
                    move |mut rng| {
                        let plan_seed = rng.next_u64();
                        let r = run_chaos(
                            kernel,
                            kernel.kind_for_data_faults(),
                            CORES,
                            uniform_schedule(ber, plan_seed),
                        );
                        soak_row("uniform", plan_seed, &r)
                    },
                ));
            }
        }
    }

    // Special schedules: bursty channel, transceiver dropout, and a
    // weak checksum, on one barrier and one CAS kernel each; tone
    // faults on full WiSync, where barriers ride the Tone channel.
    let special_seeds: usize = if quick { 1 } else { 2 };
    for rep in 0..special_seeds {
        for kernel in [ChaosKernel::TightLoop, ChaosKernel::Add] {
            for schedule in ["burst", "dropout", "escape"] {
                jobs.push(SweepJob::new(
                    format!("faults_chaos/{kernel}_{schedule}_s{rep}"),
                    move |mut rng| {
                        let plan_seed = rng.next_u64();
                        let plan = match schedule {
                            "burst" => burst_schedule(plan_seed),
                            "dropout" => dropout_schedule(CORES, plan_seed),
                            _ => escape_schedule(plan_seed),
                        };
                        let r = run_chaos(kernel, kernel.kind_for_data_faults(), CORES, plan);
                        soak_row(schedule, plan_seed, &r)
                    },
                ));
            }
        }
        for kernel in [ChaosKernel::TightLoop, ChaosKernel::Livermore2] {
            jobs.push(SweepJob::new(
                format!("faults_chaos/{kernel}_tone_s{rep}"),
                move |mut rng| {
                    let plan_seed = rng.next_u64();
                    let r = run_chaos(kernel, MachineKind::WiSync, CORES, tone_schedule(plan_seed));
                    soak_row("tone", plan_seed, &r)
                },
            ));
        }
    }

    // The BER ablation (EXPERIMENTS.md: extensions beyond the paper).
    let ablation_bers: Vec<f64> = if quick {
        vec![0.0, 1e-4, 1e-3]
    } else {
        vec![0.0, 1e-6, 1e-5, 1e-4, 1e-3]
    };
    for ber in ablation_bers {
        jobs.push(SweepJob::new(
            format!("faults_ber/ber{ber:.0e}"),
            move |mut rng| {
                let seed = rng.next_u64();
                ber_row(ber, seed)
            },
        ));
    }

    jobs
}

fn main() {
    let opts = parse_args();
    if opts.stats {
        print_representative_stats(opts.seed);
    }
    let jobs = build_jobs(opts.quick);
    let total = jobs.len();
    eprintln!(
        "chaos: {total} runs on {} threads, seed {} ({})",
        opts.threads,
        opts.seed,
        if opts.quick {
            "quick matrix"
        } else {
            "full matrix"
        }
    );
    let timed = run_sweep_timed(jobs, opts.threads, opts.seed);

    // A run whose result says `ok: false` diverged silently.
    let violations: Vec<String> = timed
        .iter()
        .filter(|(_, value, _)| value.get("ok") == Some(&Json::Bool(false)))
        .map(|(name, _, _)| name.clone())
        .collect();

    // Same shape (and non-default MAC stamp) as the sweep's figure
    // documents, so a `WISYNC_MAC=token` chaos run can never be mistaken
    // for the committed backoff artifacts.
    let reports = wisync_bench::grid::figure_reports(
        timed
            .into_iter()
            .enumerate()
            .map(|(index, (name, value, _))| (index as u64, name, value)),
        opts.seed,
        opts.quick,
    );
    std::fs::create_dir_all("results").expect("create results/");
    for (figure, report) in reports {
        let path = format!("results/{figure}.json");
        std::fs::write(&path, report.render()).expect("write figure json");
        println!("wrote {path}");
    }

    if violations.is_empty() {
        println!("chaos: {total} runs, contract held everywhere");
    } else {
        eprintln!(
            "chaos: CONTRACT VIOLATED in {} of {total} runs:",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
