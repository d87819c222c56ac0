//! Every Data-channel MAC policy runs every synchronizing workload to
//! completion with a correct result.
//!
//! The paper's §5.3 exponential backoff is the default MAC; the other
//! policies are the design space `mac_lab` measures. This suite selects
//! each policy in code with `MachineConfig::with_mac`, on both machines
//! that own a Data channel, and requires each run to finish within the
//! budget and to pass the workload's own oracle where it has one. Two
//! more tests carry each policy's state through a preemption and
//! through a snapshot.

use wisync_core::{Machine, MachineConfig, MachineKind, Pid, RunOutcome};
use wisync_isa::{Instr, ProgramBuilder, Reg, RmwSpec, Space};
use wisync_wireless::MacPolicy;
use wisync_workloads::{
    AluPhases, AppProfile, CasKernel, CasKind, EurekaSearch, Livermore, MultiprogramMix, Slice,
    TightLoop,
};

const CORES: usize = 16;

/// Far beyond what any of these runs needs under a working MAC; a MAC
/// that livelocks or starves a core runs into it.
const BUDGET: u64 = 1_000_000_000;

/// Runs `m` to completion, or says where it stopped.
fn run(m: &mut Machine) -> Result<(), String> {
    let r = m.run(BUDGET);
    match r.outcome {
        RunOutcome::Completed => Ok(()),
        other => Err(format!("{other:?} after {} cycles", r.cycles.as_u64())),
    }
}

/// Loads, runs and checks one workload with `go` on a fresh 16-core
/// machine for every MAC policy on WiSyncNoT and WiSync.
fn on_every_mac(workload: &str, go: impl Fn(&mut Machine) -> Result<(), String>) {
    for mac in MacPolicy::ALL {
        for kind in [MachineKind::WiSyncNoT, MachineKind::WiSync] {
            let mut m = Machine::new(MachineConfig::for_kind(kind, CORES).with_mac(mac));
            assert_eq!(m.config().wireless.mac_policy, mac);
            if let Err(e) = go(&mut m) {
                panic!("{workload} on {kind} under the {mac} MAC: {e}");
            }
        }
    }
}

#[test]
fn tight_loop_completes_under_every_mac() {
    on_every_mac("TightLoop", |m| {
        let w = TightLoop::new(3);
        w.load(m);
        run(m)?;
        w.check(m)
    });
}

#[test]
fn cas_kernels_complete_under_every_mac() {
    for kind in [CasKind::Fifo, CasKind::Lifo, CasKind::Add] {
        on_every_mac(&format!("CasKernel {kind}"), |m| {
            let check = CasKernel {
                kind,
                critical_section: 32,
                ops_per_thread: 8,
            }
            .load(m);
            run(m)?;
            check.check(m)
        });
    }
}

#[test]
fn livermore_loops_complete_under_every_mac() {
    for (name, kernel) in [
        ("Livermore loop 2", Livermore::loop2(64)),
        ("Livermore loop 3", Livermore::loop3(64, 2)),
        ("Livermore loop 6", Livermore::loop6(32)),
    ] {
        on_every_mac(name, |m| {
            let check = kernel.load(m);
            run(m)?;
            check.check(m)
        });
    }
}

#[test]
fn alu_phases_complete_under_every_mac() {
    on_every_mac("AluPhases", |m| {
        let w = AluPhases::new(3);
        w.load(m);
        run(m)?;
        w.check(m)
    });
}

#[test]
fn eureka_search_finds_the_target_under_every_mac() {
    on_every_mac("EurekaSearch", |m| {
        let search = EurekaSearch::new(4_000, 1_234);
        let found_by = search.load(m);
        run(m)?;
        let want = search.target_index % CORES as u64;
        match m.mem_value(found_by) {
            got if got == want => Ok(()),
            got => Err(format!("found by core {got}, expected core {want}")),
        }
    });
}

#[test]
fn multiprogram_mix_completes_under_every_mac() {
    let profile = |name: &str, phases: u64| {
        let mut p = AppProfile::by_name(name).expect("known profile");
        p.phases = phases;
        p
    };
    let mix = MultiprogramMix::new(vec![
        Slice {
            profile: profile("streamcluster", 5),
            cores: 8,
        },
        Slice {
            profile: profile("raytrace", 1),
            cores: 8,
        },
    ]);
    on_every_mac("MultiprogramMix", |m| {
        mix.load(m);
        run(m)
    });
}

/// §4.2.1: preempting a core with a BM fetch&inc in flight aborts the
/// transfer and sets AFB; after the resume the retry loop loses and
/// duplicates no increment, whichever MAC arbitrates the retries.
#[test]
fn preempted_bm_increments_are_exact_under_every_mac() {
    on_every_mac("preempted fetch&inc", |m| {
        let pid = Pid(1);
        let addr = m.bm_alloc(pid, 1).map_err(|e| format!("{e:?}"))?;
        for core in 0..4 {
            let mut b = ProgramBuilder::new();
            b.push(Instr::Li {
                dst: Reg(1),
                imm: 100,
            });
            let retry = b.bind_here();
            b.push(Instr::Rmw {
                kind: RmwSpec::FetchInc,
                dst: Reg(2),
                base: Reg(0),
                offset: addr,
                space: Space::Bm,
            });
            b.push(Instr::ReadAfb { dst: Reg(3) });
            b.push(Instr::Bnez {
                cond: Reg(3),
                target: retry,
            });
            b.push(Instr::Addi {
                dst: Reg(1),
                a: Reg(1),
                imm: u64::MAX,
            });
            b.push(Instr::Bnez {
                cond: Reg(1),
                target: retry,
            });
            b.push(Instr::Halt);
            m.load_program(core, pid, b.build().expect("program builds"));
        }
        m.run(40);
        m.request_preempt(1);
        m.run(10_000_000);
        let image = m.take_preempted(1).map_err(|e| format!("{e:?}"))?;
        m.resume_thread(1, image).map_err(|e| format!("{e:?}"))?;
        run(m)?;
        match m.bm_value(pid, addr).map_err(|e| format!("{e:?}"))? {
            400 => Ok(()),
            n => Err(format!("{n} increments, expected 400")),
        }
    });
}

/// A machine restored from a snapshot taken mid-run ends on the same
/// snapshot bytes as the machine it was taken from: every policy's
/// arbitration state (backoff exponents, token cursor, hybrid mode)
/// round-trips.
#[test]
fn snapshots_carry_the_mac_state() {
    on_every_mac("snapshot", |m| {
        CasKernel {
            kind: CasKind::Add,
            critical_section: 32,
            ops_per_thread: 8,
        }
        .load(m);
        m.run(2_000);
        let mut restored = Machine::restore(&m.snapshot()).map_err(|e| format!("{e:?}"))?;
        run(m)?;
        run(&mut restored)?;
        if m.snapshot() == restored.snapshot() {
            Ok(())
        } else {
            Err("the restored machine diverged".to_string())
        }
    });
}
