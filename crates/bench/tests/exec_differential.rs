//! Differential tests: micro-op executor vs the reference interpreter.
//!
//! The decode-once micro-op path (`ExecMode::Uop`) is a pure
//! performance rewrite of core stepping; the per-`Instr` reference
//! interpreter (`ExecMode::Reference`) is its executable specification.
//! These tests run the same experiments under both modes and require
//! byte-identical results: machine fingerprints (final cycle plus the
//! full `Debug` rendering of `MachineStats`, which covers every
//! substrate counter including `sim_events`), per-core observability
//! attributions, and rendered sweep JSON.

use wisync_bench::report::assert_attribution_exact;
use wisync_bench::BUDGET;
use wisync_core::{ExecMode, Machine, MachineConfig, MachineKind, ObsConfig, RunOutcome};
use wisync_testkit::{run_sweep, Json, SweepJob};
use wisync_workloads::{CasKernel, CasKind, Livermore, TightLoop};

/// A complete fingerprint of a finished machine: outcome-bearing cycle
/// count plus every statistic the paper figures read.
fn fingerprint(m: &Machine) -> String {
    format!("now={} stats={:?}", m.now().as_u64(), m.stats())
}

/// Runs `load` + `run(BUDGET)` under the given mode and returns the
/// fingerprint, with observability enabled so attribution runs too.
fn run_mode(
    kind: MachineKind,
    cores: usize,
    seed: u64,
    exec: ExecMode,
    load: &dyn Fn(&mut Machine),
) -> (String, String) {
    let mut cfg = MachineConfig::for_kind(kind, cores).with_exec(exec);
    cfg.seed = seed;
    let mut m = Machine::new(cfg);
    m.enable_observability(ObsConfig::default());
    load(&mut m);
    m.run(BUDGET);
    assert_attribution_exact(&m);
    let obs = m.observability().expect("obs enabled");
    let mut attrib = String::new();
    for c in 0..obs.attrib.num_cores() {
        attrib.push_str(&format!("{c}:{:?};", obs.attrib.core_buckets(c)));
    }
    (fingerprint(&m), attrib)
}

/// Asserts both exec modes agree on fingerprint and attribution for one
/// workload across the architecture and seed matrix.
fn assert_modes_agree(name: &str, cores: usize, load: &dyn Fn(&mut Machine)) {
    for kind in MachineKind::all() {
        for seed in [0, 0xD1FF_5EED] {
            let reference = run_mode(kind, cores, seed, ExecMode::Reference, load);
            let uop = run_mode(kind, cores, seed, ExecMode::Uop, load);
            assert_eq!(
                reference, uop,
                "{name} diverged between exec modes on {kind:?}, seed {seed:#x}"
            );
        }
    }
}

#[test]
fn tight_loop_differential() {
    assert_modes_agree("TightLoop", 64, &|m| TightLoop::new(3).load(m));
}

#[test]
fn cas_kernel_differential() {
    assert_modes_agree("CasKernel", 32, &|m| {
        CasKernel {
            kind: CasKind::Fifo,
            critical_section: 32,
            ops_per_thread: 8,
        }
        .load(m);
    });
}

#[test]
fn livermore_differential() {
    assert_modes_agree("Livermore", 16, &|m| {
        Livermore::loop3(64, 2).load(m);
    });
}

/// A budget that truncates a run mid-flight lands on the same outcome,
/// clock, and statistics in both modes: inline-run batching must not
/// move where the budget cuts the run.
#[test]
fn truncated_run_differential() {
    let run = |exec: ExecMode| {
        let mut m = Machine::new(MachineConfig::wisync(32).with_exec(exec));
        TightLoop::new(64).load(&mut m);
        let r = m.run(500);
        (r.outcome, m.now().as_u64(), format!("{:?}", m.stats()))
    };
    let reference = run(ExecMode::Reference);
    assert_eq!(reference.0, RunOutcome::CycleLimit);
    assert_eq!(reference, run(ExecMode::Uop), "truncated run diverged");
}

/// Sweep JSON must be byte-identical between exec modes: the micro-op
/// path may not perturb a single rendered character of the results the
/// figures are built from.
#[test]
fn sweep_json_is_byte_identical_across_modes() {
    let sweep = |exec: ExecMode| -> String {
        let jobs: Vec<SweepJob> = (2..6)
            .map(|cores_log2| {
                let cores = 1usize << cores_log2;
                SweepJob::new(format!("diff/{cores}cores"), move |_rng| {
                    let mut m = Machine::new(MachineConfig::wisync(cores).with_exec(exec));
                    let per_iter = TightLoop::new(2).run_cycles_per_iter(&mut m, BUDGET);
                    Json::obj([
                        ("cycles_per_iter", Json::U64(per_iter)),
                        ("sim_events", Json::U64(m.stats().sim_events)),
                        ("instructions", Json::U64(m.stats().instructions)),
                    ])
                })
            })
            .collect();
        let rows: Vec<Json> = run_sweep(jobs, 2, 42)
            .into_iter()
            .map(|(name, json)| Json::obj([("name", Json::Str(name)), ("row", json)]))
            .collect();
        Json::Arr(rows).render()
    };
    assert_eq!(
        sweep(ExecMode::Reference),
        sweep(ExecMode::Uop),
        "sweep JSON diverged between exec modes"
    );
}
