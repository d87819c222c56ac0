//! Each layer driven in isolation through its public API: the event
//! wheel, the micro-op decoder, the MOESI directory, the Data channel
//! under each MAC, and one Tone barrier episode. Each figure is the
//! median of [`REPS`] timed batches, in host nanoseconds (or
//! microseconds) per operation.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use wisync_isa::{DecodedProgram, Instr, Program, ProgramBuilder, Reg, RmwSpec, Space};
use wisync_mem::{MemConfig, MemOp, MemSystem, RmwKind};
use wisync_noc::{Mesh, NodeId, NodeSet};
use wisync_sim::{Cycle, DetRng, EventQueue};
use wisync_wireless::{DataChannel, MacPolicy, Resolution, ToneChannel, TxLen, WirelessConfig};

use crate::stats::median;

/// Timed batches per layer.
const REPS: usize = 7;

/// Times `batch` [`REPS`] times; returns the median host nanoseconds
/// per unit of work, where `batch` returns the units it did.
fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let units = batch();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// Event-wheel steady state: a fixed population of in-flight events
/// whose deltas follow the machine's mix (mostly 2–110-cycle
/// round-trips, one in sixteen a backoff wait up to 1024 cycles); one
/// unit is a pop plus the push that replaces it.
pub fn queue_ns_per_event() -> f64 {
    fn delta(rng: &mut DetRng) -> u64 {
        if rng.gen_range(16) == 0 {
            1 + rng.gen_range(1024)
        } else {
            2 + rng.gen_range(108)
        }
    }
    const EVENTS: u64 = 400_000;
    ns_per_unit(|| {
        let mut q = EventQueue::new();
        let mut rng = DetRng::new(11);
        for i in 0..4096u64 {
            q.push(Cycle(delta(&mut rng)), i);
        }
        for i in 0..EVENTS {
            let (at, e) = q.pop().expect("steady-state queue never empties");
            black_box(e);
            q.push(at + delta(&mut rng), i);
        }
        EVENTS
    })
}

/// A kernel-shaped program for the decoder: `blocks` copies of a loop
/// mixing ALU work, cached and BM memory, an RMW retry and a barrier
/// spin, like the workloads' generated code.
pub fn reference_program(blocks: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for k in 0..blocks as u64 {
        b.push(Instr::Li {
            dst: Reg(1),
            imm: 16,
        });
        let top = b.bind_here();
        b.push(Instr::Ld {
            dst: Reg(2),
            base: Reg(0),
            offset: 64 * k,
            space: Space::Cached,
        });
        b.push(Instr::Add {
            dst: Reg(3),
            a: Reg(3),
            b: Reg(2),
        });
        b.push(Instr::Mul {
            dst: Reg(4),
            a: Reg(3),
            b: Reg(2),
        });
        b.push(Instr::Compute { cycles: 8 });
        b.push(Instr::St {
            src: Reg(4),
            base: Reg(0),
            offset: 64 * k + 8,
            space: Space::Cached,
        });
        let retry = b.bind_here();
        b.push(Instr::Rmw {
            kind: RmwSpec::FetchInc,
            dst: Reg(5),
            base: Reg(0),
            offset: 8 * k,
            space: Space::Bm,
        });
        b.push(Instr::ReadAfb { dst: Reg(6) });
        b.push(Instr::Bnez {
            cond: Reg(6),
            target: retry,
        });
        b.push(Instr::WaitWhile {
            cond: wisync_isa::Cond::Ne,
            base: Reg(0),
            offset: 8 * k,
            value: Reg(7),
            space: Space::Bm,
        });
        b.push(Instr::Addi {
            dst: Reg(1),
            a: Reg(1),
            imm: u64::MAX,
        });
        b.push(Instr::Bnez {
            cond: Reg(1),
            target: top,
        });
    }
    b.push(Instr::Halt);
    b.build().expect("reference program builds")
}

/// Host microseconds per `DecodedProgram::decode` of
/// [`reference_program`], and the micro-ops it yields.
pub fn decode_us() -> (f64, u64) {
    const DECODES: u64 = 400;
    let program = reference_program(64);
    let uops = DecodedProgram::decode(&program).len() as u64;
    let ns = ns_per_unit(|| {
        for _ in 0..DECODES {
            black_box(DecodedProgram::decode(black_box(&program)));
        }
        DECODES
    });
    (ns / 1e3, uops)
}

/// Directory burst on a 64-core mesh: every core reads a line (shared
/// copies), one core upgrades it with a store (invalidating the other
/// 63), another performs an RMW on it; one unit is one access.
pub fn mem_ns_per_access() -> f64 {
    const LINES: u64 = 96;
    ns_per_unit(|| {
        let mut mem = MemSystem::new(MemConfig::default(), Mesh::new(64, 4));
        let mut t = Cycle::ZERO;
        let mut accesses = 0;
        for round in 0..4u64 {
            for line in 0..LINES {
                let addr = line * 64;
                for c in 0..64 {
                    t = mem.access(NodeId(c), addr, MemOp::Load, t).complete_at;
                }
                let writer = NodeId(((line + round) % 64) as usize);
                t = mem.access(writer, addr, MemOp::Store(line), t).complete_at;
                let rmw = NodeId(((line + round + 1) % 64) as usize);
                let op = MemOp::Rmw(RmwKind::FetchAdd(1));
                t = mem.access(rmw, addr, op, t).complete_at;
                accesses += 66;
            }
        }
        black_box(t);
        accesses
    })
}

/// Contended Data-channel traffic under `mac`: bursts of eight nodes
/// request a five-cycle frame in the same cycle, one burst every 96
/// cycles (the channel carries a burst back to back in 40). Slots
/// are resolved once each, in cycle order, as simulated time reaches
/// them; one unit is one started frame.
pub fn data_ns_per_frame(mac: MacPolicy) -> f64 {
    const FRAMES: u64 = 2_000;
    ns_per_unit(|| {
        let config = WirelessConfig {
            mac_policy: mac,
            ..WirelessConfig::default()
        };
        let mut ch: DataChannel<u64> = DataChannel::new(config, 64);
        let mut due = BTreeSet::new();
        let mut started = 0;
        let mut resolve =
            |ch: &mut DataChannel<u64>, due: &mut BTreeSet<Cycle>, slot| match ch.resolve(slot) {
                Resolution::Idle => {}
                Resolution::Deferred(next) => due.extend(next),
                Resolution::Started { retry_slots, .. } => {
                    started += 1;
                    due.extend(retry_slots);
                }
                Resolution::Collision { retry_slots, .. } => due.extend(retry_slots),
            };
        for i in 0..FRAMES {
            let now = Cycle(i / 8 * 96);
            while let Some(slot) = due.first().copied().filter(|s| *s < now) {
                due.remove(&slot);
                resolve(&mut ch, &mut due, slot);
            }
            let (_, slot) = ch.request(NodeId((i % 64) as usize), TxLen::Normal, i, now);
            due.insert(slot);
        }
        while let Some(slot) = due.pop_first() {
            resolve(&mut ch, &mut due, slot);
        }
        assert_eq!(started, FRAMES, "{mac}: every frame must start once");
        started
    })
}

/// One Tone-channel barrier episode across 64 armed cores: activate,
/// 64 arrivals, the completion slot and completion.
pub fn tone_ns_per_episode() -> f64 {
    const EPISODES: u64 = 20_000;
    ns_per_unit(|| {
        let mut tone = ToneChannel::new(16);
        let addr = 0x40;
        tone.allocate(addr, NodeSet::first_n(64))
            .expect("empty table has room");
        let mut now = Cycle(1);
        for _ in 0..EPISODES {
            tone.activate(addr, now).expect("barrier is allocated");
            let mut done = false;
            for c in 0..64 {
                done = tone.arrive(addr, NodeId(c)).expect("armed participant");
            }
            assert!(done, "all 64 participants arrived");
            now = tone.completion_slot(addr, now).expect("barrier is active");
            tone.complete(addr, now).expect("barrier is active");
            now += 1;
        }
        black_box(tone.stats().barriers_completed);
        EPISODES
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_program_decodes_to_more_uops_as_it_grows() {
        let small = DecodedProgram::decode(&reference_program(1)).len();
        let big = DecodedProgram::decode(&reference_program(4)).len();
        assert!(small > 0 && big > small);
    }

    #[test]
    fn every_mac_drains_the_contended_burst() {
        for mac in [
            MacPolicy::Exponential,
            MacPolicy::TokenRing,
            MacPolicy::AdaptiveHybrid,
        ] {
            assert!(data_ns_per_frame(mac) > 0.0);
        }
    }
}
