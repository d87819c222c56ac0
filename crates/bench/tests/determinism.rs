//! Determinism regression tests for the simulation engine.
//!
//! The engine's contract is bit-exact repeatability: the same
//! configuration and seed must produce the same cycle counts, the same
//! statistics, and byte-identical sweep JSON, regardless of host,
//! thread count, or how the event queue orders its internals. These
//! tests re-run representative experiments twice in-process and compare
//! complete fingerprints (final cycle + the full `Debug` rendering of
//! `MachineStats`, which covers every substrate counter including
//! `sim_events`, or its `Display` table for the compute inputs).

use wisync_bench::BUDGET;
use wisync_core::{Machine, MachineConfig, MachineKind};
use wisync_testkit::{run_sweep, run_sweep_timed, Json, SweepJob};
use wisync_workloads::{AppProfile, AppWorkload, CasKernel, CasKind, Livermore, TightLoop};

/// Runs the Figure 7 experiment (TightLoop) on one architecture and
/// returns a complete fingerprint of the run.
fn fig7_fingerprint(kind: MachineKind) -> (u64, u64, String) {
    let mut m = Machine::new(MachineConfig::for_kind(kind, 64));
    let per_iter = TightLoop::new(3).run_cycles_per_iter(&mut m, BUDGET);
    (per_iter, m.now().as_u64(), format!("{:?}", m.stats()))
}

#[test]
fn fig7_at_64_cores_repeats_exactly() {
    for kind in MachineKind::all() {
        let a = fig7_fingerprint(kind);
        let b = fig7_fingerprint(kind);
        assert_eq!(a, b, "fig7 run diverged on {kind:?}");
        // A run that dispatched no events or advanced no cycles would
        // make the equality vacuous.
        assert!(a.1 > 0, "{kind:?} advanced no cycles");
        assert!(a.2.contains("sim_events"), "stats lost the event counter");
    }
}

/// Runs one contended CAS kernel and returns a complete fingerprint.
fn cas_fingerprint() -> (u64, u64, u64, String) {
    let kernel = CasKernel {
        kind: CasKind::Fifo,
        critical_section: 64,
        ops_per_thread: 16,
    };
    let mut m = Machine::new(MachineConfig::wisync(32));
    let (cycles, successes) = kernel.run_throughput(&mut m, BUDGET);
    (
        cycles,
        successes,
        m.now().as_u64(),
        format!("{:?}", m.stats()),
    )
}

#[test]
fn cas_kernel_repeats_exactly() {
    let a = cas_fingerprint();
    let b = cas_fingerprint();
    assert_eq!(a, b, "CAS kernel run diverged");
    assert!(a.1 > 0, "kernel completed no operations");
}

/// Loads and runs one input to completion, returning simulated cycles.
type Run = fn(&mut Machine) -> u64;

/// Runs one compute-heavy input on a 16-core machine and returns its
/// simulated cycles, its event count and the rendered statistics.
fn compute_fingerprint(kind: MachineKind, run: Run) -> (u64, u64, String) {
    let mut m = Machine::new(MachineConfig::for_kind(kind, 16));
    let cycles = run(&mut m);
    (cycles, m.stats().sim_events, m.stats().to_string())
}

/// Livermore loop 3 (straight-line ALU/load runs between reductions)
/// and a Figure 10 application profile (compute phases, lock handoffs
/// and barrier episodes) repeat exactly on both sync paths.
#[test]
fn compute_and_app_runs_repeat_exactly() {
    let inputs: [(&str, Run); 2] = [
        ("livermore3_n4096", |m| {
            Livermore::loop3(4096, 8).run_cycles(m, BUDGET)
        }),
        ("streamcluster", |m| {
            let profile = AppProfile::by_name("streamcluster").expect("profile exists");
            AppWorkload::new(profile).run_cycles(m, BUDGET)
        }),
    ];
    for (name, run) in inputs {
        for kind in [MachineKind::Baseline, MachineKind::WiSync] {
            let a = compute_fingerprint(kind, run);
            let b = compute_fingerprint(kind, run);
            assert_eq!(a, b, "{name} diverged on {kind:?}");
            assert!(a.0 > 0 && a.1 > 0, "{name} on {kind:?} simulated nothing");
        }
    }
}

/// A miniature sweep whose jobs run real machines: rendered output must
/// be byte-identical across runs and across worker counts.
fn mini_sweep(threads: usize) -> String {
    let jobs: Vec<SweepJob> = (2..6)
        .map(|cores_log2| {
            let cores = 1usize << cores_log2;
            SweepJob::new(format!("mini/{cores}cores"), move |_rng| {
                let mut m = Machine::new(MachineConfig::wisync(cores));
                let per_iter = TightLoop::new(2).run_cycles_per_iter(&mut m, BUDGET);
                Json::obj([
                    ("cycles_per_iter", Json::U64(per_iter)),
                    ("sim_events", Json::U64(m.stats().sim_events)),
                ])
            })
        })
        .collect();
    let rows: Vec<Json> = run_sweep(jobs, threads, 42)
        .into_iter()
        .map(|(name, value)| Json::obj([("row", Json::Str(name)), ("data", value)]))
        .collect();
    Json::Arr(rows).render()
}

#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let one = mini_sweep(1);
    let four = mini_sweep(4);
    let four_again = mini_sweep(4);
    assert_eq!(one, four, "thread count changed rendered sweep JSON");
    assert_eq!(four, four_again, "re-run changed rendered sweep JSON");
}

#[test]
fn timed_sweep_reports_durations_without_perturbing_results() {
    let jobs: Vec<SweepJob> = (0..4)
        .map(|i| {
            SweepJob::new(format!("t/{i}"), move |_rng| {
                let mut m = Machine::new(MachineConfig::wisync(4));
                TightLoop::new(1).run_cycles_per_iter(&mut m, BUDGET);
                Json::U64(m.stats().sim_events)
            })
        })
        .collect();
    let timed = run_sweep_timed(jobs, 2, 7);
    assert_eq!(timed.len(), 4);
    let values: Vec<&Json> = timed.iter().map(|(_, v, _)| v).collect();
    assert!(
        values.windows(2).all(|w| w[0] == w[1]),
        "same job, same result"
    );
}
