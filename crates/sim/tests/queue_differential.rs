//! Differential property test: the timing-wheel [`EventQueue`] and the
//! heap-based [`ReferenceEventQueue`] must behave identically under
//! arbitrary interleavings of push/pop/clear — identical `(Cycle, id)`
//! pop sequences (including same-cycle FIFO order and ordering across
//! `clear`), identical lengths, identical `peek_cycle`s.
//!
//! Failures shrink to a minimal op sequence; replay with
//! `WISYNC_TESTKIT_SEED=<seed> cargo test -p wisync-sim`.

use wisync_sim::{Cycle, EventQueue, ReferenceEventQueue};
use wisync_testkit::gen::{self, BoxedGen, Gen};
use wisync_testkit::{check_with, prop_assert_eq, Config, PropResult};

/// One step of a generated queue workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an event at `last_pop + delta` (relative, like the machine's
    /// own scheduling, so sequences stay meaningful after shrinking).
    Push {
        delta: u64,
    },
    /// Push far beyond the wheel horizon (exercises the overflow heap).
    PushFar {
        delta: u64,
    },
    /// Push at an absolute early cycle (exercises the past heap once the
    /// queue has advanced).
    PushAbs {
        at: u64,
    },
    Pop,
    Clear,
}

fn op_gen() -> BoxedGen<Op> {
    gen::one_of(vec![
        // Dominant case: near-future pushes in the model's 0–1100 cycle
        // latency range, straddling the 1024-slot wheel horizon.
        gen::range(0u64..1100)
            .map(|delta| Op::Push { delta })
            .boxed(),
        gen::range(1_000u64..100_000)
            .map(|delta| Op::PushFar { delta })
            .boxed(),
        gen::range(0u64..50).map(|at| Op::PushAbs { at }).boxed(),
        gen::range(0u32..3).map(|_| Op::Pop).boxed(),
        gen::range(0u32..1).map(|_| Op::Clear).boxed(),
    ])
    .boxed()
}

fn queues_agree(ops: &[Op]) -> PropResult {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut reference: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
    let mut next_id = 0u32;
    let mut clock = 0u64; // cycle of the most recent pop

    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Push { delta } | Op::PushFar { delta } => {
                let at = Cycle(clock + delta);
                wheel.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            }
            Op::PushAbs { at } => {
                let at = Cycle(at);
                wheel.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            }
            Op::Pop => {
                let got = wheel.pop();
                let want = reference.pop();
                prop_assert_eq!(got, want, "pop mismatch at op {}", i);
                if let Some((at, _)) = got {
                    clock = at.as_u64();
                }
            }
            Op::Clear => {
                wheel.clear();
                reference.clear();
            }
        }
        prop_assert_eq!(wheel.len(), reference.len(), "len mismatch at op {}", i);
        prop_assert_eq!(
            wheel.peek_cycle(),
            reference.peek_cycle(),
            "peek mismatch at op {}",
            i
        );
        prop_assert_eq!(wheel.is_empty(), reference.is_empty());
    }

    // Drain: the tails must match exactly too.
    loop {
        let got = wheel.pop();
        let want = reference.pop();
        prop_assert_eq!(got, want, "drain mismatch");
        if got.is_none() {
            break;
        }
    }
    Ok(())
}

#[test]
fn wheel_matches_reference_heap_on_arbitrary_interleavings() {
    check_with(
        Config::with_cases(256),
        "wheel_matches_reference_heap_on_arbitrary_interleavings",
        gen::vecs(op_gen(), 0..200),
        |ops| queues_agree(&ops),
    );
}

/// Pinned corner cases: shapes the generator may take a while to hit.
#[test]
fn pinned_corner_interleavings() {
    use Op::{Clear, Pop, Push, PushAbs, PushFar};
    let cases: Vec<Vec<Op>> = vec![
        // Same-cycle FIFO through a partially drained slot.
        vec![
            Push { delta: 9 },
            Push { delta: 9 },
            Pop,
            Push { delta: 0 },
            Pop,
            Pop,
        ],
        // Overflow promotion racing later same-cycle pushes.
        vec![
            PushFar { delta: 1124 },
            Push { delta: 200 },
            Pop,
            Push { delta: 924 },
            Pop,
            Pop,
        ],
        // Past-heap events after the queue has advanced.
        vec![
            Push { delta: 500 },
            Pop,
            PushAbs { at: 3 },
            Push { delta: 0 },
            Pop,
            Pop,
        ],
        // Clear in the middle keeps later ordering intact.
        vec![
            Push { delta: 5 },
            PushFar { delta: 90_000 },
            Clear,
            Push { delta: 5 },
            Push { delta: 5 },
            Pop,
            Pop,
        ],
        // Exactly at the wheel horizon boundary (1023 in-window, 1024 out).
        vec![
            Push { delta: 1023 },
            Push { delta: 1024 },
            Push { delta: 1025 },
            Pop,
            Pop,
            Pop,
        ],
    ];
    for ops in cases {
        if let Err(f) = queues_agree(&ops) {
            panic!("corner case {ops:?} failed: {}", f.message);
        }
    }
}
