//! AluPhases: a compute-heavy phased microbenchmark.
//!
//! Every core runs `phases` episodes of a long register-resident ALU
//! loop (no memory traffic inside the loop body) and then synchronizes
//! in a barrier. The inner loop is thousands of micro-ops, so on the
//! micro-op interpreter every episode is executed as a chain of
//! batch-capped inline runs; with all cores in lockstep, each cap
//! boundary produces a same-cycle `Resume` for every core. `mac_lab`
//! uses it as its compute-heavy, sparse-traffic workload.

use wisync_core::{Machine, Pid};
use wisync_isa::{Instr, ProgramBuilder, Reg};

use crate::addr::AddrSpace;
use crate::kit::BarrierHandle;

/// The AluPhases workload. One thread per core.
///
/// # Examples
///
/// ```
/// use wisync_core::{Machine, MachineConfig, RunOutcome};
/// use wisync_workloads::AluPhases;
///
/// let mut m = Machine::new(MachineConfig::wisync(8));
/// let w = AluPhases::new(2);
/// w.load(&mut m);
/// let report = m.run(100_000_000);
/// assert_eq!(report.outcome, RunOutcome::Completed);
/// w.assert_correct(&m);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AluPhases {
    /// Barrier-delimited compute episodes to run.
    pub phases: u64,
    /// Inner-loop iterations per episode (each is a handful of ALU
    /// micro-ops, so the default of 2048 gives runs an order of
    /// magnitude past the interpreter's batch cap).
    pub work: u64,
}

impl AluPhases {
    /// AluPhases with a compute-heavy default inner loop.
    pub fn new(phases: u64) -> Self {
        AluPhases { phases, work: 2048 }
    }

    /// The accumulator value core `tid` must end with: the inner loop
    /// folds `acc = acc * 3 + (tid + 1)` for `work` iterations, once
    /// per phase, starting from zero.
    pub fn expected(&self, tid: usize) -> u64 {
        let mut acc = 0u64;
        for _ in 0..self.phases * self.work {
            acc = acc.wrapping_mul(3).wrapping_add(tid as u64 + 1);
        }
        acc
    }

    /// Loads the workload onto every core of `m`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` or `work` is zero.
    pub fn load(&self, m: &mut Machine) {
        assert!(self.phases > 0, "need at least one phase");
        assert!(self.work > 0, "need a non-empty inner loop");
        let pid = Pid(1);
        let cores = m.config().cores;
        let mut addr = AddrSpace::new();
        let barrier = BarrierHandle::alloc(m, pid, &mut addr, cores);
        for tid in 0..cores {
            let mut b = ProgramBuilder::new();
            // r1 = phase counter, r4 = accumulator, r8 = 3 (multiplier),
            // r9 = tid + 1 (increment), r11 = barrier sense.
            b.push(Instr::Li {
                dst: Reg(1),
                imm: self.phases,
            });
            b.push(Instr::Li {
                dst: Reg(4),
                imm: 0,
            });
            b.push(Instr::Li {
                dst: Reg(8),
                imm: 3,
            });
            b.push(Instr::Li {
                dst: Reg(9),
                imm: tid as u64 + 1,
            });
            b.push(Instr::Li {
                dst: Reg(11),
                imm: 0,
            });
            let phase = b.bind_here();
            // r2 = inner counter; body: acc = acc * 3 + (tid + 1).
            b.push(Instr::Li {
                dst: Reg(2),
                imm: self.work,
            });
            let inner = b.bind_here();
            b.push(Instr::Mul {
                dst: Reg(4),
                a: Reg(4),
                b: Reg(8),
            });
            b.push(Instr::Add {
                dst: Reg(4),
                a: Reg(4),
                b: Reg(9),
            });
            b.push(Instr::Addi {
                dst: Reg(2),
                a: Reg(2),
                imm: u64::MAX,
            });
            b.push(Instr::Bnez {
                cond: Reg(2),
                target: inner,
            });
            barrier.for_tid(tid).emit(&mut b, Reg(11));
            b.push(Instr::Addi {
                dst: Reg(1),
                a: Reg(1),
                imm: u64::MAX,
            });
            b.push(Instr::Bnez {
                cond: Reg(1),
                target: phase,
            });
            b.push(Instr::Halt);
            m.load_program(tid, pid, b.build().expect("alu phases builds"));
        }
    }

    /// Verifies the final state of a completed run: every core's
    /// accumulator matches the host-side fold and its phase counter
    /// reached zero.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first wrong core.
    pub fn check(&self, m: &Machine) -> Result<(), String> {
        for c in 0..m.config().cores {
            let acc = m.reg(c, Reg(4));
            let want = self.expected(c);
            if acc != want {
                return Err(format!(
                    "core {c}: accumulator {acc:#x}, expected {want:#x}"
                ));
            }
            let left = m.reg(c, Reg(1));
            if left != 0 {
                return Err(format!("core {c}: {left} phases unfinished"));
            }
        }
        Ok(())
    }

    /// Panicking form of [`AluPhases::check`].
    ///
    /// # Panics
    ///
    /// Panics with the first wrong core's description.
    pub fn assert_correct(&self, m: &Machine) {
        if let Err(e) = self.check(m) {
            panic!("AluPhases incorrect: {e}");
        }
    }

    /// Runs the workload to completion and returns total cycles.
    ///
    /// # Panics
    ///
    /// Panics if the run does not complete or the result is wrong.
    pub fn run_cycles(&self, m: &mut Machine, max_cycles: u64) -> u64 {
        self.load(m);
        let r = m.run(max_cycles);
        assert_eq!(
            r.outcome,
            wisync_core::RunOutcome::Completed,
            "AluPhases did not complete on {}",
            m.config().kind
        );
        self.assert_correct(m);
        r.cycles.as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisync_core::{MachineConfig, RunOutcome};

    #[test]
    fn all_configs_complete_and_fold_correctly() {
        for cfg in [
            MachineConfig::baseline(8),
            MachineConfig::baseline_plus(8),
            MachineConfig::wisync_not(8),
            MachineConfig::wisync(8),
        ] {
            let kind = cfg.kind;
            let mut m = Machine::new(cfg);
            let w = AluPhases {
                phases: 2,
                work: 256,
            };
            w.load(&mut m);
            let r = m.run(100_000_000);
            assert_eq!(r.outcome, RunOutcome::Completed, "{kind}");
            w.assert_correct(&m);
        }
    }

    #[test]
    fn expected_matches_a_tiny_hand_fold() {
        // tid 0, 1 phase, 3 iterations: 0*3+1=1, 1*3+1=4, 4*3+1=13.
        let w = AluPhases { phases: 1, work: 3 };
        assert_eq!(w.expected(0), 13);
        // tid 1: 0*3+2=2, 2*3+2=8, 8*3+2=26.
        assert_eq!(w.expected(1), 26);
    }
}
