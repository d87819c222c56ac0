//! Machine-level tracing: the timeline captures the wireless activity a
//! workload actually generated.

use wisync_core::{Machine, MachineConfig, Pid, RunOutcome, TraceEvent};
use wisync_isa::{Cond, Instr, ProgramBuilder, Reg, RmwSpec, Space};

const PID: Pid = Pid(1);

#[test]
fn trace_captures_store_delivery_and_halt() {
    let mut m = Machine::new(MachineConfig::wisync(16));
    let addr = m.bm_alloc(PID, 1).unwrap();
    m.enable_trace(64);
    let mut b = ProgramBuilder::new();
    b.push(Instr::Li {
        dst: Reg(1),
        imm: 7,
    });
    b.push(Instr::St {
        src: Reg(1),
        base: Reg(0),
        offset: addr,
        space: Space::Bm,
    });
    b.push(Instr::Halt);
    m.load_program(0, PID, b.build().unwrap());
    assert_eq!(m.run(10_000).outcome, RunOutcome::Completed);

    let trace = m.trace().expect("enabled");
    let kinds: Vec<&TraceEvent> = trace.events().iter().collect();
    assert!(kinds.iter().any(|e| matches!(
        e,
        TraceEvent::Delivered {
            kind: "store",
            core: 0,
            ..
        }
    )));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::Halted { core: 0, .. })));
    // Events are in nondecreasing time order.
    for w in trace.events().windows(2) {
        assert!(w[0].at() <= w[1].at());
    }
    assert!(!trace.render().is_empty());
}

#[test]
fn trace_captures_tone_barrier_lifecycle() {
    let cores = 4;
    let mut m = Machine::new(MachineConfig::wisync(16));
    let flag = m.bm_alloc(PID, 1).unwrap();
    m.arm_tone(PID, flag, 0..cores).unwrap();
    m.enable_trace(128);
    for c in 0..cores {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Li {
            dst: Reg(11),
            imm: 1,
        });
        b.push(Instr::Compute {
            cycles: 10 + 5 * c as u64,
        });
        b.push(Instr::ToneSt {
            base: Reg(0),
            offset: flag,
        });
        b.push(Instr::WaitWhile {
            cond: Cond::Ne,
            base: Reg(0),
            offset: flag,
            value: Reg(11),
            space: Space::Bm,
        });
        b.push(Instr::Halt);
        m.load_program(c, PID, b.build().unwrap());
    }
    assert_eq!(m.run(100_000).outcome, RunOutcome::Completed);
    let trace = m.trace().unwrap();
    let activated = trace
        .events()
        .iter()
        .position(|e| matches!(e, TraceEvent::ToneActivated { .. }))
        .expect("activation traced");
    let completed = trace
        .events()
        .iter()
        .position(|e| matches!(e, TraceEvent::ToneCompleted { .. }))
        .expect("completion traced");
    assert!(activated < completed, "activation precedes completion");
}

#[test]
fn trace_captures_afb_aborts_under_contention() {
    let mut m = Machine::new(MachineConfig::wisync(16));
    let addr = m.bm_alloc(PID, 1).unwrap();
    m.enable_trace(4096);
    for c in 0..16 {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Li {
            dst: Reg(1),
            imm: 10,
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
        m.load_program(c, PID, b.build().unwrap());
    }
    assert_eq!(m.run(10_000_000).outcome, RunOutcome::Completed);
    let trace = m.trace().unwrap();
    let aborts = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::RmwAborted { .. }))
        .count() as u64;
    assert!(aborts > 0, "contention must produce traced aborts");
    if trace.dropped() == 0 {
        // With nothing dropped, the trace agrees with the counters.
        assert_eq!(aborts, m.stats().bm_rmw_atomicity_failures);
    }
}

#[test]
fn trace_captures_backoff_cap_exhaustion() {
    // Clamp the backoff window so synchronized store bursts drive every
    // frame's MAC exponent to the cap almost immediately.
    let mut cfg = MachineConfig::wisync(16);
    cfg.wireless.max_backoff_exp = 1;
    let mut m = Machine::new(cfg);
    let base = m.bm_alloc(PID, 16).unwrap();
    m.enable_trace(65_536);
    for c in 0..16 {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Li {
            dst: Reg(1),
            imm: c as u64,
        });
        // Every core stores to its own word in the same slot: pure
        // collision pressure, no data dependence.
        b.push(Instr::St {
            src: Reg(1),
            base: Reg(0),
            offset: base + 8 * c as u64,
            space: Space::Bm,
        });
        b.push(Instr::Halt);
        m.load_program(c, PID, b.build().unwrap());
    }
    assert_eq!(m.run(1_000_000).outcome, RunOutcome::Completed);
    let trace = m.trace().unwrap();
    let exhausted = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::MacExhausted { .. }))
        .count() as u64;
    assert!(
        exhausted > 0,
        "16 synchronized stores with a window cap of 2^1 must exhaust backoff"
    );
    if trace.dropped() == 0 {
        // With nothing dropped, the trace agrees with the counter.
        assert_eq!(exhausted, m.stats().data.mac_exhaustions);
    }
    // Every exhaustion event accompanies a collision at the same cycle.
    let collisions: std::collections::HashSet<(u64, usize)> = trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Collision { at, channel } => Some((at.as_u64(), channel)),
            _ => None,
        })
        .collect();
    for e in trace.events() {
        if let TraceEvent::MacExhausted { at, channel, .. } = *e {
            assert!(collisions.contains(&(at.as_u64(), channel)));
        }
    }
}

#[test]
fn tracing_does_not_change_timing() {
    let run = |traced: bool| {
        let mut m = Machine::new(MachineConfig::wisync(16));
        let addr = m.bm_alloc(PID, 1).unwrap();
        if traced {
            m.enable_trace(1024);
        }
        for c in 0..8 {
            let mut b = ProgramBuilder::new();
            b.push(Instr::Li {
                dst: Reg(1),
                imm: 5,
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
            m.load_program(c, PID, b.build().unwrap());
        }
        m.run(10_000_000).cycles
    };
    assert_eq!(run(false), run(true));
}
