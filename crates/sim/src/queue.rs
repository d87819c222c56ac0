//! Deterministic timestamped event queues.
//!
//! Two implementations share one contract: events pop in increasing
//! cycle order, and events scheduled for the same cycle pop in the order
//! they were pushed (FIFO tie-break). This determinism is what makes
//! whole-machine simulations replayable: two runs with the same
//! configuration produce identical cycle counts.
//!
//! * [`EventQueue`] — the production queue: a bucketed timing wheel
//!   sized for the simulator's dominant near-future latencies (memory
//!   round-trips, wireless slots, backoff waits — a few to a few hundred
//!   cycles), with a binary-heap overflow for far events. Push and pop
//!   are O(1) on the hot path.
//! * [`ReferenceEventQueue`] — the original `BinaryHeap` queue, kept as
//!   the executable specification. The differential property test in
//!   `tests/queue_differential.rs` drives both with arbitrary
//!   push/pop/clear interleavings and asserts identical pop sequences.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycle;

/// Number of near-future wheel slots. One slot per cycle, so the wheel
/// covers `[cur, cur + WHEEL_SLOTS)`. The model's dominant latencies are
/// 2–110 cycles (L1/L2/mesh/wireless round-trips) and its longest common
/// waits are the exponential-backoff draws, capped at `2^10 = 1024`
/// cycles — so 1024 slots keep virtually every event out of the overflow
/// heap. Must be a power of two.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// A deterministic priority queue of `(Cycle, E)` events, implemented as
/// a bucketed timing wheel with a heap overflow for far-future events.
///
/// Events pop in increasing cycle order; events scheduled for the same
/// cycle pop in the order they were pushed. See the module docs for the
/// determinism contract and the reference implementation.
///
/// # Examples
///
/// ```
/// use wisync_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'b');
/// q.push(Cycle(3), 'c');
/// q.push(Cycle(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `wheel[c & WHEEL_MASK]` holds the events of cycle `c` for
    /// `c ∈ [cur, cur + WHEEL_SLOTS)`, in push order (front = oldest).
    /// Capacity is retained when a slot drains, so steady-state pushes
    /// never allocate.
    wheel: Vec<VecDeque<E>>,
    /// Occupancy bitmap over wheel slots, one bit per slot.
    occupied: [u64; WHEEL_WORDS],
    /// Second-level bitmap: bit `i` set iff `occupied[i] != 0`. Lets
    /// `wheel_min` jump straight to the next occupied word instead of
    /// scanning all of `occupied` when the wheel is sparse.
    summary: u64,
    /// Wheel base cycle: no wheel event is earlier than `cur`, and the
    /// overflow holds only events at `cur + WHEEL_SLOTS` or later. `cur`
    /// never moves backwards.
    cur: u64,
    /// Events pushed for cycles earlier than `cur` (possible through the
    /// public API, never produced by the machine's event loop).
    past: BinaryHeap<Reverse<Entry<E>>>,
    /// Events at `cur + WHEEL_SLOTS` or later.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// FIFO tie-break for the two heaps (wheel slots are FIFO by
    /// construction: within the live window, appends happen in push
    /// order — see `promote`).
    next_seq: u64,
    len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_slot_capacity(0)
    }

    /// Creates an empty queue whose wheel slots each start with room for
    /// `cap` events.
    ///
    /// Slot deques retain their capacity once grown, but the wheel wraps
    /// through all of its slots as time advances, so with lazy capacity
    /// every slot pays its own geometric-growth reallocations early in a
    /// run. A caller that knows the steady-state occupancy (the machine:
    /// roughly one event per core, as lockstep phases land whole core
    /// sets on one cycle) can pre-size the slots and keep reallocation
    /// off the hot path entirely.
    pub fn with_slot_capacity(cap: usize) -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS)
                .map(|_| VecDeque::with_capacity(cap))
                .collect(),
            occupied: [0; WHEEL_WORDS],
            summary: 0,
            cur: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    #[inline]
    fn set_occupied(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    #[inline]
    fn clear_occupied(&mut self, slot: usize) {
        let word = slot / 64;
        self.occupied[word] &= !(1 << (slot % 64));
        if self.occupied[word] == 0 {
            self.summary &= !(1 << word);
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, event: E) {
        self.len += 1;
        let t = at.as_u64();
        if t.wrapping_sub(self.cur) < WHEEL_SLOTS as u64 {
            // In the live window (t >= cur holds: a smaller t would make
            // the wrapping difference huge).
            let slot = (t & WHEEL_MASK) as usize;
            self.wheel[slot].push_back(event);
            self.set_occupied(slot);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            let heap = if t < self.cur {
                &mut self.past
            } else {
                &mut self.overflow
            };
            heap.push(Reverse(Entry { at, seq, event }));
        }
    }

    /// The minimum occupied wheel cycle at or after `cur`, if any.
    fn wheel_min(&self) -> Option<u64> {
        let base = (self.cur & WHEEL_MASK) as usize;
        // Scan `WHEEL_SLOTS` bits starting at `base`, wrapping. Slots
        // before `base` hold cycles in the window's upper part.
        let (bw, bb) = (base / 64, base % 64);
        // First word: bits at or above the base bit.
        let w = self.occupied[bw] & !((1u64 << bb) - 1);
        if w != 0 {
            return Some(self.slot_cycle(bw * 64 + w.trailing_zeros() as usize));
        }
        // Other occupied words, preferring those after `bw` (earlier in
        // the wrapped scan order), located through the summary bitmap.
        let others = self.summary & !(1 << bw);
        if others != 0 {
            let after = others & (!0u64 << (bw + 1));
            let wi = if after != 0 {
                after.trailing_zeros() as usize
            } else {
                others.trailing_zeros() as usize
            };
            let w = self.occupied[wi];
            return Some(self.slot_cycle(wi * 64 + w.trailing_zeros() as usize));
        }
        // Wrapped back to the first word: bits below the base bit.
        let w = self.occupied[bw] & ((1u64 << bb) - 1);
        if w != 0 {
            return Some(self.slot_cycle(bw * 64 + w.trailing_zeros() as usize));
        }
        None
    }

    /// The absolute cycle a currently-occupied `slot` corresponds to:
    /// the unique cycle in `[cur, cur + WHEEL_SLOTS)` with that residue.
    #[inline]
    fn slot_cycle(&self, slot: usize) -> u64 {
        let base = self.cur & !WHEEL_MASK;
        let c = base + slot as u64;
        if c >= self.cur {
            c
        } else {
            c + WHEEL_SLOTS as u64
        }
    }

    /// Moves overflow events that the advancing window now covers into
    /// their wheel slots. Called whenever `cur` advances, *before* any
    /// subsequent push could target the newly covered cycles — this is
    /// what keeps every wheel slot in push order (promoted events always
    /// carry smaller sequence numbers than any later push).
    fn promote(&mut self) {
        let horizon = self.cur + WHEEL_SLOTS as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.at.as_u64() >= horizon {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            let slot = (e.at.as_u64() & WHEEL_MASK) as usize;
            self.wheel[slot].push_back(e.event);
            self.set_occupied(slot);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // Past events (earlier than the wheel window) always win.
        if let Some(Reverse(e)) = self.past.pop() {
            self.len -= 1;
            return Some((e.at, e.event));
        }
        // Fast path: the slot at `cur` is occupied, so `cur` itself is
        // the wheel minimum — no bitmap scan needed. This is the common
        // case while draining a same-cycle batch (lockstep phases park
        // a whole core set on one cycle), which would otherwise pay a
        // full occupancy-word scan per event instead of per slot.
        let base = (self.cur & WHEEL_MASK) as usize;
        if self.occupied[base / 64] & 1 << (base % 64) != 0 {
            let event = self.wheel[base].pop_front().expect("occupied slot");
            if self.wheel[base].is_empty() {
                self.clear_occupied(base);
            }
            self.len -= 1;
            return Some((Cycle(self.cur), event));
        }
        if let Some(c) = self.wheel_min() {
            let slot = (c & WHEEL_MASK) as usize;
            if c != self.cur {
                debug_assert!(c > self.cur, "wheel min behind cur");
                self.cur = c;
                self.promote();
            }
            let event = self.wheel[slot].pop_front().expect("occupied slot");
            if self.wheel[slot].is_empty() {
                self.clear_occupied(slot);
            }
            self.len -= 1;
            return Some((Cycle(c), event));
        }
        // Wheel empty: jump to the overflow's earliest event.
        let Reverse(e) = self.overflow.pop()?;
        self.len -= 1;
        self.cur = e.at.as_u64();
        self.promote();
        Some((e.at, e.event))
    }

    /// Returns the cycle of the earliest pending event without removing
    /// it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        if let Some(Reverse(e)) = self.past.peek() {
            return Some(e.at);
        }
        if let Some(c) = self.wheel_min() {
            return Some(Cycle(c));
        }
        self.overflow.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All pending events in exact pop order, without consuming them —
    /// the traversal a snapshot needs: re-`push`ing the returned
    /// sequence, in order, into a fresh queue reproduces this queue's
    /// pop order precisely.
    ///
    /// Correctness leans on the structure's time partition: every `past`
    /// entry is earlier than `cur`, every wheel entry lies in
    /// `[cur, cur + WHEEL_SLOTS)`, and every `overflow` entry at or past
    /// the horizon — so the three regions concatenate. Within `past` and
    /// `overflow` the `(at, seq)` entry order is the heap's pop order;
    /// within the wheel, slots drain in `slot_cycle` order and each slot
    /// front-to-back (push order).
    pub fn iter_ordered(&self) -> Vec<(Cycle, &E)> {
        let mut out: Vec<(Cycle, &E)> = Vec::with_capacity(self.len);
        fn heap_entries<'q, E>(
            heap: &'q BinaryHeap<Reverse<Entry<E>>>,
            out: &mut Vec<(Cycle, &'q E)>,
        ) {
            let mut sorted: Vec<&Entry<E>> = heap.iter().map(|Reverse(e)| e).collect();
            sorted.sort_by_key(|e| (e.at, e.seq));
            out.extend(sorted.into_iter().map(|e| (e.at, &e.event)));
        }
        heap_entries(&self.past, &mut out);
        // Occupied wheel slots, earliest absolute cycle first.
        let mut slots: Vec<usize> = (0..WHEEL_SLOTS)
            .filter(|&s| self.occupied[s / 64] & (1 << (s % 64)) != 0)
            .collect();
        slots.sort_by_key(|&s| self.slot_cycle(s));
        for s in slots {
            let at = Cycle(self.slot_cycle(s));
            out.extend(self.wheel[s].iter().map(|e| (at, e)));
        }
        heap_entries(&self.overflow, &mut out);
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Drops all pending events but keeps the sequence counter, so FIFO
    /// ordering guarantees still hold across the clear.
    pub fn clear(&mut self) {
        if self.len != 0 {
            for slot in &mut self.wheel {
                slot.clear();
            }
            self.occupied = [0; WHEEL_WORDS];
            self.summary = 0;
            self.past.clear();
            self.overflow.clear();
            self.len = 0;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The original `BinaryHeap`-based event queue, kept as the reference
/// implementation (executable specification) for [`EventQueue`].
///
/// Not used on the simulator's hot path; the differential property test
/// (`crates/sim/tests/queue_differential.rs`) checks that arbitrary
/// push/pop/clear interleavings produce identical `(Cycle, E)` pop
/// sequences from both queues, including same-cycle FIFO order and
/// ordering across `clear`.
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// Returns the cycle of the earliest pending event without removing
    /// it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events but keeps the sequence counter, so FIFO
    /// ordering guarantees still hold across the clear.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        ReferenceEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 1u32);
        q.push(Cycle(5), 2);
        q.push(Cycle(20), 3);
        assert_eq!(q.pop(), Some((Cycle(5), 2)));
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Cycle(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(Cycle(4), ());
        assert_eq!(q.peek_cycle(), Some(Cycle(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_cycle(), None);
    }

    #[test]
    fn clear_preserves_fifo_across_epochs() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'x');
        q.clear();
        q.push(Cycle(1), 'a');
        q.push(Cycle(1), 'b');
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(1), 'b')));
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        q.push(Cycle(1_000_000), 'f');
        q.push(Cycle(3), 'n');
        assert_eq!(q.peek_cycle(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'n')));
        assert_eq!(q.pop(), Some((Cycle(1_000_000), 'f')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_promotion_preserves_fifo_with_later_pushes() {
        let mut q = EventQueue::new();
        // 'a' starts beyond the horizon, in the overflow heap.
        let far = Cycle(WHEEL_SLOTS as u64 + 100);
        q.push(far, 'a');
        q.push(Cycle(200), 'x');
        // Popping 'x' advances the window over `far`, promoting 'a'.
        assert_eq!(q.pop(), Some((Cycle(200), 'x')));
        // 'b' lands in the same (now in-window) slot after promotion.
        q.push(far, 'b');
        assert_eq!(q.pop(), Some((far, 'a')));
        assert_eq!(q.pop(), Some((far, 'b')));
    }

    #[test]
    fn push_in_the_past_pops_first() {
        let mut q = EventQueue::new();
        q.push(Cycle(50), 'a');
        assert_eq!(q.pop(), Some((Cycle(50), 'a')));
        // The machine never does this, but the API allows it: an event
        // earlier than the last pop still comes out in time order.
        q.push(Cycle(10), 'p');
        q.push(Cycle(50), 'b');
        assert_eq!(q.peek_cycle(), Some(Cycle(10)));
        assert_eq!(q.pop(), Some((Cycle(10), 'p')));
        assert_eq!(q.pop(), Some((Cycle(50), 'b')));
    }

    #[test]
    fn interleaved_push_pop_at_current_cycle_is_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle(9), 1u32);
        q.push(Cycle(9), 2);
        assert_eq!(q.pop(), Some((Cycle(9), 1)));
        // Pushed while cycle 9's slot is partially drained.
        q.push(Cycle(9), 3);
        assert_eq!(q.pop(), Some((Cycle(9), 2)));
        assert_eq!(q.pop(), Some((Cycle(9), 3)));
    }

    #[test]
    fn wheel_wraps_across_many_windows() {
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for i in 0..10_000u64 {
            let at = Cycle(i * 37 % 5000);
            q.push(at, i);
            expected.push((at, i));
        }
        // Stable sort by cycle: equal cycles stay in push order.
        expected.sort_by_key(|&(at, _)| at);
        let mut got = Vec::new();
        while let Some(x) = q.pop() {
            got.push(x);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn len_tracks_all_regions() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 0u8); // wheel
        q.push(Cycle(1_000_000), 1); // overflow
        assert_eq!(q.len(), 2);
        q.pop();
        q.push(Cycle(1), 2); // past (cur is now 5)
        assert_eq!(q.len(), 2);
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn iter_ordered_matches_pop_order_across_regions() {
        let mut q = EventQueue::new();
        // Seed all three regions: advance cur to 500, then park events
        // in the past, the wheel window, and the overflow.
        q.push(Cycle(500), 0u32);
        assert_eq!(q.pop(), Some((Cycle(500), 0)));
        q.push(Cycle(100), 1); // past
        q.push(Cycle(100), 2); // past, FIFO after 1
        q.push(Cycle(700), 3); // wheel
        q.push(Cycle(501), 4); // wheel
        q.push(Cycle(700), 5); // wheel, same slot FIFO after 3
        q.push(Cycle(90_000), 6); // overflow
        q.push(Cycle(5_000), 7); // overflow, pops before 6
        let snapshot: Vec<(Cycle, u32)> = q.iter_ordered().iter().map(|&(c, &e)| (c, e)).collect();
        // Re-pushing the snapshot into a fresh queue reproduces pop order.
        let mut rebuilt = EventQueue::new();
        for &(at, e) in &snapshot {
            rebuilt.push(at, e);
        }
        let mut popped = Vec::new();
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(snapshot, popped);
        let mut rebuilt_popped = Vec::new();
        while let Some(p) = rebuilt.pop() {
            rebuilt_popped.push(p);
        }
        assert_eq!(rebuilt_popped, popped);
    }

    #[test]
    fn reference_queue_same_contract() {
        let mut q = ReferenceEventQueue::new();
        q.push(Cycle(3), 'b');
        q.push(Cycle(3), 'c');
        q.push(Cycle(1), 'a');
        assert_eq!(q.peek_cycle(), Some(Cycle(1)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(3), 'b')));
        assert_eq!(q.pop(), Some((Cycle(3), 'c')));
        assert!(q.is_empty());
        q.clear();
        assert_eq!(q.pop(), None);
    }
}
