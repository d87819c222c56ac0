//! Machine snapshot/restore round-trip tests.
//!
//! The snapshot contract has two halves. The strong half: a machine
//! restored from a snapshot continues *byte-identically* to the machine
//! it was taken from — same outcome, clock, stats, and (the decisive
//! check) the same snapshot bytes at the end, which covers every core
//! register, BM replica, cache line, queued event, RNG stream, and
//! obs/fault counter. The agreement half: a cut-and-resumed execution
//! lands on the same stats and clock as one that was never interrupted.
//! Both halves are pinned across the workload matrix and both exec
//! modes. The second group proves sealed-container hygiene: corrupted,
//! truncated, or version-skewed snapshots are rejected with the right
//! error, never silently loaded.

use wisync_bench::BUDGET;
use wisync_core::{ExecMode, FaultPlan, Machine, MachineConfig, ObsConfig, RunOutcome, SnapError};
use wisync_workloads::{AluPhases, CasKernel, CasKind, Livermore, TightLoop};

/// Cycle counts at which runs are cut for a snapshot. Deadlines are
/// absolute, so `run(CUT)` then `run(BUDGET)` covers the same simulated
/// span as a single `run(BUDGET)`.
const CUTS: [u64; 2] = [50, 2_000];

/// A boxed workload loader: installs programs on a fresh machine.
type Loader = Box<dyn Fn(&mut Machine)>;

/// The issue's workload matrix: TightLoop, Livermore Loop 2, the FIFO
/// and fetch&add CAS kernels, and the pure-ALU phase workload.
fn matrix() -> Vec<(&'static str, usize, Loader)> {
    vec![
        (
            "tight_loop",
            64,
            Box::new(|m: &mut Machine| TightLoop::new(16).load(m)),
        ),
        (
            "livermore2",
            16,
            Box::new(|m: &mut Machine| {
                Livermore::loop2(64).load(m);
            }),
        ),
        (
            "fifo",
            32,
            Box::new(|m: &mut Machine| {
                CasKernel {
                    kind: CasKind::Fifo,
                    critical_section: 32,
                    ops_per_thread: 8,
                }
                .load(m);
            }),
        ),
        (
            "cas_add",
            32,
            Box::new(|m: &mut Machine| {
                CasKernel {
                    kind: CasKind::Add,
                    critical_section: 32,
                    ops_per_thread: 8,
                }
                .load(m);
            }),
        ),
        (
            "alu_phases",
            16,
            Box::new(|m: &mut Machine| AluPhases::new(2).load(m)),
        ),
    ]
}

/// The exec modes each workload runs under.
const EXECS: [ExecMode; 2] = [ExecMode::Uop, ExecMode::Reference];

fn build(kind: &str, cores: usize, exec: ExecMode, load: &Loader) -> Machine {
    let config = MachineConfig::wisync(cores)
        .with_seed(0xA5ED ^ kind.len() as u64)
        .with_exec(exec);
    let mut m = Machine::new(config);
    m.enable_observability(ObsConfig::default());
    load(&mut m);
    m
}

/// Everything comparable about a finished machine, including its full
/// serialized state.
fn fingerprint(m: &Machine, outcome: RunOutcome) -> (String, u64, String, Vec<u8>) {
    (
        format!("{outcome:?}"),
        m.now().as_u64(),
        format!("{:?}", m.stats()),
        m.snapshot(),
    )
}

#[test]
fn restored_machine_continues_byte_identically() {
    for (name, cores, load) in matrix() {
        for exec in EXECS {
            for &cut in &CUTS {
                let mut original = build(name, cores, exec, &load);
                original.run(cut);
                let snap = original.snapshot();

                let mut restored = Machine::restore(&snap)
                    .unwrap_or_else(|e| panic!("{name} {exec:?} cut={cut}: restore failed: {e:?}"));
                // Restoring must not disturb the state it read: the
                // round-tripped machine re-serializes to the same bytes.
                assert_eq!(
                    snap,
                    restored.snapshot(),
                    "{name} {exec:?} cut={cut}: re-snapshot differs"
                );

                let a = original.run(BUDGET);
                let b = restored.run(BUDGET);
                assert_eq!(
                    fingerprint(&original, a.outcome),
                    fingerprint(&restored, b.outcome),
                    "{name} {exec:?} cut={cut}: continuation diverged"
                );
            }
        }
    }
}

/// A cut-and-resumed execution agrees with an uninterrupted one on the
/// final outcome, clock, and every stats counter (the obs *bucket
/// totals* also agree; segment boundaries may legitimately split at the
/// cut, which the byte-identity test above intentionally excludes by
/// comparing two equally-cut executions).
#[test]
fn resumed_execution_matches_uninterrupted() {
    for (name, cores, load) in matrix() {
        for exec in EXECS {
            let mut whole = build(name, cores, exec, &load);
            let w = whole.run(BUDGET);

            let mut cut_m = build(name, cores, exec, &load);
            cut_m.run(CUTS[0]);
            let mut resumed = Machine::restore(&cut_m.snapshot()).unwrap();
            let r = resumed.run(BUDGET);

            assert_eq!(
                (w.outcome, whole.now(), format!("{:?}", whole.stats())),
                (r.outcome, resumed.now(), format!("{:?}", resumed.stats())),
                "{name} {exec:?}: resumed run diverged from uninterrupted"
            );
            let totals = |m: &Machine| m.observability().unwrap().attrib.totals();
            assert_eq!(
                totals(&whole),
                totals(&resumed),
                "{name} {exec:?}: obs bucket totals diverged"
            );
        }
    }
}

/// Fault-injection state (error models, dropout schedules, the fault
/// RNG mid-stream) survives the round trip: a faulty run cut at an
/// arbitrary cycle resumes byte-identically.
#[test]
fn faulty_run_resumes_byte_identically() {
    let load = |m: &mut Machine| {
        CasKernel {
            kind: CasKind::Add,
            critical_section: 32,
            ops_per_thread: 8,
        }
        .load(m);
    };
    let build_faulty = || {
        let mut m = Machine::new(MachineConfig::wisync(32).with_seed(0xFA17));
        m.set_fault_plan(
            FaultPlan::none()
                .with_seed(7)
                .with_uniform_ber(1e-4)
                .with_dropout(3, wisync_sim_cycle(1_000), wisync_sim_cycle(2_000))
                .with_tone_faults(0.05, 8, 0.01)
                .with_audit_period(4_096),
        );
        m.enable_observability(ObsConfig::default());
        load(&mut m);
        m
    };

    let mut original = build_faulty();
    original.run(1_500); // inside the dropout window
    let snap = original.snapshot();
    let mut restored = Machine::restore(&snap).unwrap();
    assert_eq!(snap, restored.snapshot());

    let a = original.run(BUDGET);
    let b = restored.run(BUDGET);
    assert_eq!(
        fingerprint(&original, a.outcome),
        fingerprint(&restored, b.outcome),
        "faulty continuation diverged"
    );
}

/// `wisync_core` deliberately doesn't re-export `Cycle`; fault plans
/// take it directly.
fn wisync_sim_cycle(c: u64) -> wisync_sim::Cycle {
    wisync_sim::Cycle(c)
}

/// A snapshot taken at cycle 0 (before any run) restores and runs to
/// the same result as the machine it came from.
#[test]
fn snapshot_before_first_run_restores() {
    let load = matrix().remove(0).2;
    let mut original = build("tight_loop", 64, ExecMode::Uop, &load);
    let mut restored = Machine::restore(&original.snapshot()).unwrap();
    let a = original.run(BUDGET);
    let b = restored.run(BUDGET);
    assert_eq!(
        fingerprint(&original, a.outcome),
        fingerprint(&restored, b.outcome)
    );
}

// --- Sealed-container hygiene ----------------------------------------------

fn sample_snapshot() -> Vec<u8> {
    let load = matrix().remove(0).2;
    let mut m = build("tight_loop", 64, ExecMode::Uop, &load);
    m.run(200);
    m.snapshot()
}

#[test]
fn corrupted_payload_rejected_with_digest_mismatch() {
    let mut bytes = sample_snapshot();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    assert!(matches!(
        Machine::restore(&bytes),
        Err(SnapError::DigestMismatch)
    ));
}

#[test]
fn truncated_snapshot_rejected() {
    let bytes = sample_snapshot();
    for cut in [0, 7, 27, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(
                Machine::restore(&bytes[..cut]),
                Err(SnapError::Truncated | SnapError::DigestMismatch)
            ),
            "truncation to {cut} bytes was not rejected"
        );
    }
}

#[test]
fn foreign_magic_rejected() {
    let mut bytes = sample_snapshot();
    bytes[0] ^= 0xFF;
    assert!(matches!(Machine::restore(&bytes), Err(SnapError::BadMagic)));
}

#[test]
fn version_skew_rejected() {
    let mut bytes = sample_snapshot();
    // The format version is the little-endian u32 after the 8-byte magic.
    assert_eq!(wisync_core::SNAPSHOT_VERSION, 4);
    assert_eq!(bytes[8..12], wisync_core::SNAPSHOT_VERSION.to_le_bytes());
    bytes[8] = bytes[8].wrapping_add(1);
    match Machine::restore(&bytes) {
        Err(SnapError::UnsupportedVersion { found, expected }) => {
            assert_eq!(expected, wisync_core::SNAPSHOT_VERSION);
            assert_ne!(found, expected);
        }
        other => panic!("version skew not rejected: {other:?}"),
    }
}

#[test]
fn garbage_bytes_rejected() {
    assert!(Machine::restore(&[]).is_err());
    assert!(Machine::restore(&[0u8; 16]).is_err());
    assert!(Machine::restore(&[0xFFu8; 64]).is_err());
}
