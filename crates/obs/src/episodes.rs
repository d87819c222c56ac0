//! Sync-episode causal records: *which* core made a barrier late and
//! *why*, and how BM locks hand off between holders.
//!
//! The 6-bucket attribution says where a core's cycles went in
//! aggregate; this module pins those cycles to individual
//! synchronization episodes:
//!
//! - **Tone-barrier episodes** ([`BarrierEpisode`]): per-episode arrival
//!   order, release cycle, the straggler (last arriver), and a
//!   decomposition of the straggler's lag into the attribution buckets.
//!   The decomposition is computed from [`Attribution`] bucket snapshots
//!   taken at consecutive releases, so it *tiles*: the bucket deltas sum
//!   exactly to `released − ready` (the straggler's window), the same
//!   way the global bucket sums tile the run length.
//! - **Lock handoff chains** ([`HandoffRecord`]): a committed BM RMW
//!   acquires an address, the holder's next plain store to it releases,
//!   and the record carries the hold span, the failed attempts observed
//!   while held, and the release→acquire handoff latency. A second RMW
//!   committing while a hold is open closes it in place (fetch-add
//!   chains never store-release).
//!
//! Both record streams land in bounded rings with saturation counters
//! (the `dropped_trace_events` pattern): memory stays fixed on long
//! runs, truncation is always visible, and per-address / per-core
//! aggregates keep counting past the cap so leaderboards stay exact.

use wisync_sim::{Cycle, FxHashMap};
use wisync_testkit::Json;

use crate::attrib::{Attribution, Bucket, NUM_BUCKETS};

/// Default capacity of each episode ring (records, not bytes).
pub const DEFAULT_EPISODE_CAPACITY: usize = 4096;

/// One completed tone-barrier episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierEpisode {
    /// BM physical index of the barrier word.
    pub phys: usize,
    /// Start of the straggler's lag window: its attribution cursor at
    /// the previous release of this barrier (the run's attribution
    /// start for the first episode).
    pub ready: Cycle,
    /// First arrival (`tone_st`) of this episode.
    pub opened: Cycle,
    /// Release cycle (tone completion).
    pub released: Cycle,
    /// Number of arrivals in this episode.
    pub arrivals: u64,
    /// First core to arrive, and when.
    pub first_core: usize,
    /// Cycle of the first arrival (same as `opened`).
    pub first_arrival: Cycle,
    /// Last core to arrive — the straggler the release waited for.
    pub straggler: usize,
    /// Cycle of the straggler's arrival.
    pub straggler_arrival: Cycle,
    /// The straggler's `[ready, released)` window decomposed into the
    /// attribution buckets (indexed like [`Bucket::ALL`]). Sums to
    /// `released − ready` — see [`BarrierEpisode::check`].
    pub lag: [u64; NUM_BUCKETS],
    /// Data-channel collision events during the window (machine-wide).
    pub collisions: u64,
    /// Fault-recovery retransmits during the window (machine-wide).
    pub retransmits: u64,
}

impl BarrierEpisode {
    /// Total straggler lag: the sum of the bucket decomposition.
    pub fn lag_cycles(&self) -> u64 {
        self.lag.iter().sum()
    }

    /// Verifies the tiling invariant: the lag decomposition sums
    /// exactly to `released − ready`.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&self) -> Result<(), String> {
        let window = self.released.saturating_since(self.ready);
        let sum = self.lag_cycles();
        if sum == window {
            Ok(())
        } else {
            Err(format!(
                "episode at phys {} released {}: lag decomposition sums to {sum}, window is {window}",
                self.phys,
                self.released.as_u64(),
            ))
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("phys", Json::U64(self.phys as u64)),
            ("ready", Json::U64(self.ready.as_u64())),
            ("opened", Json::U64(self.opened.as_u64())),
            ("released", Json::U64(self.released.as_u64())),
            ("arrivals", Json::U64(self.arrivals)),
            ("first_core", Json::U64(self.first_core as u64)),
            ("straggler", Json::U64(self.straggler as u64)),
            (
                "straggler_arrival",
                Json::U64(self.straggler_arrival.as_u64()),
            ),
            ("lag_cycles", Json::U64(self.lag_cycles())),
            ("lag", bucket_json(self.lag)),
            ("collisions", Json::U64(self.collisions)),
            ("retransmits", Json::U64(self.retransmits)),
        ])
    }
}

/// One closed lock hold on a BM address: acquire (committed RMW) to
/// release (the holder's next plain store, or eviction by the next
/// committed RMW).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffRecord {
    /// BM physical index of the lock word.
    pub phys: usize,
    /// Core that held the address.
    pub holder: usize,
    /// Cycle the acquiring RMW committed.
    pub acquired: Cycle,
    /// Cycle the hold closed.
    pub released: Cycle,
    /// `true` when the holder's own plain store closed the hold;
    /// `false` when the next committed RMW evicted it (fetch-add
    /// style chains never store-release).
    pub released_by_store: bool,
    /// Failed RMW attempts on this address observed while held
    /// (atomicity breaks and failed CAS compares).
    pub failed_attempts: u64,
    /// Previous holder this hold took the address from, if any.
    pub handoff_from: Option<usize>,
    /// Release→acquire gap from the previous release, if any.
    pub handoff_latency: Option<u64>,
}

impl HandoffRecord {
    /// Cycles the address was held.
    pub fn hold_cycles(&self) -> u64 {
        self.released.saturating_since(self.acquired)
    }

    fn json(&self) -> Json {
        Json::obj([
            ("phys", Json::U64(self.phys as u64)),
            ("holder", Json::U64(self.holder as u64)),
            ("acquired", Json::U64(self.acquired.as_u64())),
            ("released", Json::U64(self.released.as_u64())),
            ("hold_cycles", Json::U64(self.hold_cycles())),
            ("released_by_store", Json::Bool(self.released_by_store)),
            ("failed_attempts", Json::U64(self.failed_attempts)),
            (
                "handoff_from",
                self.handoff_from
                    .map_or(Json::Null, |c| Json::U64(c as u64)),
            ),
            (
                "handoff_latency",
                self.handoff_latency.map_or(Json::Null, Json::U64),
            ),
        ])
    }
}

/// Per-address lock aggregates — counted past the ring cap, so the
/// leaderboard stays exact when the ring saturates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockAgg {
    /// Committed RMW acquires.
    pub acquires: u64,
    /// Holds closed by the holder's plain store.
    pub store_releases: u64,
    /// Holds closed by the next committed RMW.
    pub evictions: u64,
    /// Failed RMW attempts on this address.
    pub failed_attempts: u64,
    /// Total cycles the address was held (closed holds only).
    pub hold_cycles: u64,
    /// Acquires that followed a recorded release.
    pub handoffs: u64,
    /// Total release→acquire latency over those handoffs.
    pub handoff_cycles: u64,
    /// Largest single handoff latency.
    pub handoff_max: u64,
}

impl LockAgg {
    fn json(&self) -> Json {
        Json::obj([
            ("acquires", Json::U64(self.acquires)),
            ("store_releases", Json::U64(self.store_releases)),
            ("evictions", Json::U64(self.evictions)),
            ("failed_attempts", Json::U64(self.failed_attempts)),
            ("hold_cycles", Json::U64(self.hold_cycles)),
            ("handoffs", Json::U64(self.handoffs)),
            ("handoff_cycles", Json::U64(self.handoff_cycles)),
            ("handoff_max", Json::U64(self.handoff_max)),
        ])
    }
}

/// An in-progress barrier episode: arrivals in order.
#[derive(Clone, Debug, Default)]
struct OpenBarrier {
    arrivals: Vec<(usize, Cycle)>,
}

/// Attribution snapshots taken at a barrier's previous release — the
/// baseline the next episode's lag decomposition subtracts.
#[derive(Clone, Debug)]
struct Baseline {
    /// `(core, cursor, buckets)` per participant, in arrival order.
    snaps: Vec<(usize, Cycle, [u64; NUM_BUCKETS])>,
    collisions: u64,
    retransmits: u64,
}

/// An open lock hold.
#[derive(Clone, Copy, Debug)]
struct OpenHold {
    core: usize,
    acquired: Cycle,
    handoff_from: Option<usize>,
    handoff_latency: Option<u64>,
    fails: u64,
}

/// Per-address lock tracking state.
#[derive(Clone, Debug, Default)]
struct LockState {
    open: Option<OpenHold>,
    last_release: Option<(usize, Cycle)>,
    agg: LockAgg,
}

/// The episode recorder: bounded rings of completed records plus the
/// per-address / per-core trackers that feed them. The machine writes
/// it through `ObsState` and never reads it back (the standard
/// observability contract), so recording cannot perturb a run.
#[derive(Clone, Debug)]
pub struct Episodes {
    capacity: usize,
    barriers: Vec<BarrierEpisode>,
    dropped_barriers: u64,
    handoffs: Vec<HandoffRecord>,
    dropped_handoffs: u64,
    open_barriers: FxHashMap<usize, OpenBarrier>,
    baselines: FxHashMap<usize, Baseline>,
    locks: FxHashMap<usize, LockState>,
    collisions: u64,
    retransmits: u64,
    /// Completed barrier episodes (recorded + dropped).
    completed_barriers: u64,
    lag_totals: [u64; NUM_BUCKETS],
    /// Per-core: how many episodes this core was the straggler of.
    straggler_counts: Vec<u64>,
    /// Per-core: total lag cycles over those episodes.
    straggler_lag: Vec<u64>,
}

impl Episodes {
    /// Creates a recorder for `cores` cores with ring `capacity`.
    pub fn new(cores: usize, capacity: usize) -> Self {
        Episodes {
            capacity,
            barriers: Vec::new(),
            dropped_barriers: 0,
            handoffs: Vec::new(),
            dropped_handoffs: 0,
            open_barriers: FxHashMap::default(),
            baselines: FxHashMap::default(),
            locks: FxHashMap::default(),
            collisions: 0,
            retransmits: 0,
            completed_barriers: 0,
            lag_totals: [0; NUM_BUCKETS],
            straggler_counts: vec![0; cores],
            straggler_lag: vec![0; cores],
        }
    }

    // --- Hooks (called from the machine via `ObsState`) -----------------

    /// Records `core`'s arrival at barrier `phys`.
    #[inline]
    pub fn barrier_arrive(&mut self, core: usize, phys: usize, at: Cycle) {
        self.open_barriers
            .entry(phys)
            .or_default()
            .arrivals
            .push((core, at));
    }

    /// Closes the episode at barrier `phys`'s release: snapshots every
    /// participant's attribution at `at` (the baseline for the next
    /// episode) and records the straggler's lag decomposition against
    /// the previous release's snapshots.
    ///
    /// Advancing a waiter's cursor to the release closes the same
    /// pending `BarrierWait` span its wake-up would close, so this
    /// perturbs neither the bucket totals nor the streamed spans.
    pub fn barrier_release(&mut self, phys: usize, at: Cycle, attrib: &mut Attribution) {
        let Some(open) = self.open_barriers.remove(&phys) else {
            return;
        };
        let Some(&(straggler, straggler_arrival)) = open.arrivals.last() else {
            return;
        };
        let &(first_core, first_arrival) = open.arrivals.first().expect("non-empty arrivals");
        let baseline = self.baselines.remove(&phys);
        let (ready, base_buckets) = baseline
            .as_ref()
            .and_then(|b| b.snaps.iter().find(|s| s.0 == straggler))
            .map(|&(_, cursor, buckets)| (cursor, buckets))
            .unwrap_or((attrib.start(), [0; NUM_BUCKETS]));
        let (base_collisions, base_retransmits) = baseline
            .map(|b| (b.collisions, b.retransmits))
            .unwrap_or((0, 0));

        let mut snaps = Vec::with_capacity(open.arrivals.len());
        for &(core, _) in &open.arrivals {
            attrib.advance_to(core, at);
            snaps.push((core, attrib.cursor(core), attrib.core_buckets(core)));
        }
        let now_buckets = snaps
            .iter()
            .find(|s| s.0 == straggler)
            .map(|s| s.2)
            .expect("straggler is a participant");
        let mut lag = [0u64; NUM_BUCKETS];
        for (l, (now, base)) in lag
            .iter_mut()
            .zip(now_buckets.iter().zip(base_buckets.iter()))
        {
            *l = now.saturating_sub(*base);
        }

        self.completed_barriers += 1;
        for (t, l) in self.lag_totals.iter_mut().zip(lag.iter()) {
            *t += l;
        }
        if let Some(n) = self.straggler_counts.get_mut(straggler) {
            *n += 1;
        }
        if let Some(n) = self.straggler_lag.get_mut(straggler) {
            *n += lag.iter().sum::<u64>();
        }
        let episode = BarrierEpisode {
            phys,
            ready,
            opened: first_arrival,
            released: at,
            arrivals: open.arrivals.len() as u64,
            first_core,
            first_arrival,
            straggler,
            straggler_arrival,
            lag,
            collisions: self.collisions - base_collisions,
            retransmits: self.retransmits - base_retransmits,
        };
        self.baselines.insert(
            phys,
            Baseline {
                snaps,
                collisions: self.collisions,
                retransmits: self.retransmits,
            },
        );
        if self.barriers.len() < self.capacity {
            self.barriers.push(episode);
        } else {
            self.dropped_barriers += 1;
        }
    }

    /// Records a committed RMW on `phys`: closes any open hold in place
    /// (eviction) and opens a new one for `core`.
    pub fn rmw_commit(&mut self, phys: usize, core: usize, at: Cycle) {
        let lock = self.locks.entry(phys).or_default();
        let mut record = None;
        if let Some(open) = lock.open.take() {
            lock.agg.evictions += 1;
            lock.agg.hold_cycles += at.saturating_since(open.acquired);
            lock.last_release = Some((open.core, at));
            record = Some(HandoffRecord {
                phys,
                holder: open.core,
                acquired: open.acquired,
                released: at,
                released_by_store: false,
                failed_attempts: open.fails,
                handoff_from: open.handoff_from,
                handoff_latency: open.handoff_latency,
            });
        }
        let handoff = lock
            .last_release
            .map(|(from, released)| (from, at.saturating_since(released)));
        if let Some((_, latency)) = handoff {
            lock.agg.handoffs += 1;
            lock.agg.handoff_cycles += latency;
            lock.agg.handoff_max = lock.agg.handoff_max.max(latency);
        }
        lock.agg.acquires += 1;
        lock.open = Some(OpenHold {
            core,
            acquired: at,
            handoff_from: handoff.map(|(from, _)| from),
            handoff_latency: handoff.map(|(_, latency)| latency),
            fails: 0,
        });
        if let Some(record) = record {
            self.push_handoff(record);
        }
    }

    /// Records a plain store to `phys` by `core`: if `core` holds the
    /// address, the store releases it. Stores to untracked addresses
    /// (never RMW-acquired) and stores by non-holders are ignored.
    pub fn store_release(&mut self, phys: usize, core: usize, at: Cycle) {
        let Some(lock) = self.locks.get_mut(&phys) else {
            return;
        };
        let Some(open) = lock.open else {
            return;
        };
        if open.core != core {
            return;
        }
        lock.open = None;
        lock.agg.store_releases += 1;
        lock.agg.hold_cycles += at.saturating_since(open.acquired);
        lock.last_release = Some((core, at));
        self.push_handoff(HandoffRecord {
            phys,
            holder: core,
            acquired: open.acquired,
            released: at,
            released_by_store: true,
            failed_attempts: open.fails,
            handoff_from: open.handoff_from,
            handoff_latency: open.handoff_latency,
        });
    }

    /// Records a failed RMW attempt on `phys` (an atomicity break or a
    /// failed CAS compare), attributed to the open hold if one exists.
    #[inline]
    pub fn rmw_fail(&mut self, phys: usize) {
        let lock = self.locks.entry(phys).or_default();
        lock.agg.failed_attempts += 1;
        if let Some(open) = lock.open.as_mut() {
            open.fails += 1;
        }
    }

    /// Counts a Data-channel collision event (windowed into episodes).
    #[inline]
    pub fn collision(&mut self) {
        self.collisions += 1;
    }

    /// Counts a fault-recovery retransmit (windowed into episodes).
    #[inline]
    pub fn retransmit(&mut self) {
        self.retransmits += 1;
    }

    fn push_handoff(&mut self, record: HandoffRecord) {
        if self.handoffs.len() < self.capacity {
            self.handoffs.push(record);
        } else {
            self.dropped_handoffs += 1;
        }
    }

    // --- Accessors -------------------------------------------------------

    /// Recorded barrier episodes, in completion order.
    pub fn barriers(&self) -> &[BarrierEpisode] {
        &self.barriers
    }

    /// Recorded lock holds, in close order.
    pub fn handoffs(&self) -> &[HandoffRecord] {
        &self.handoffs
    }

    /// Completed barrier episodes, recorded or not.
    pub fn completed_barriers(&self) -> u64 {
        self.completed_barriers
    }

    /// Barrier episodes dropped at the ring cap.
    pub fn dropped_barriers(&self) -> u64 {
        self.dropped_barriers
    }

    /// Lock-hold records dropped at the ring cap.
    pub fn dropped_handoffs(&self) -> u64 {
        self.dropped_handoffs
    }

    /// Total records dropped across both rings (the `MachineStats`
    /// saturation counter).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_barriers + self.dropped_handoffs
    }

    /// Straggler lag summed over all completed episodes, per bucket.
    pub fn lag_totals(&self) -> [u64; NUM_BUCKETS] {
        self.lag_totals
    }

    /// The `n` worst stragglers: `(core, episodes, lag_cycles)` by
    /// episode count, then lag, descending; ties to the lower core.
    pub fn straggler_leaderboard(&self, n: usize) -> Vec<(usize, u64, u64)> {
        let mut rows: Vec<(usize, u64, u64)> = self
            .straggler_counts
            .iter()
            .zip(self.straggler_lag.iter())
            .enumerate()
            .filter(|(_, (&count, _))| count > 0)
            .map(|(core, (&count, &lag))| (core, count, lag))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// The `n` most contended lock addresses: by failed attempts, then
    /// handoff cycles, then acquires (descending), then lower phys.
    pub fn lock_leaderboard(&self, n: usize) -> Vec<(usize, LockAgg)> {
        let mut rows: Vec<(usize, LockAgg)> = self
            .locks
            .iter()
            .filter(|(_, l)| l.agg != LockAgg::default())
            .map(|(&phys, l)| (phys, l.agg))
            .collect();
        rows.sort_by(|a, b| {
            b.1.failed_attempts
                .cmp(&a.1.failed_attempts)
                .then(b.1.handoff_cycles.cmp(&a.1.handoff_cycles))
                .then(b.1.acquires.cmp(&a.1.acquires))
                .then(a.0.cmp(&b.0))
        });
        rows.truncate(n);
        rows
    }

    /// The `n` slowest recorded episodes: by lag, descending; ties to
    /// the earlier release, then lower phys.
    pub fn slowest_episodes(&self, n: usize) -> Vec<&BarrierEpisode> {
        let mut rows: Vec<&BarrierEpisode> = self.barriers.iter().collect();
        rows.sort_by(|a, b| {
            b.lag_cycles()
                .cmp(&a.lag_cycles())
                .then(a.released.cmp(&b.released))
                .then(a.phys.cmp(&b.phys))
        });
        rows.truncate(n);
        rows
    }

    /// The `n` longest recorded holds: by hold cycles, descending; ties
    /// to the earlier release, then lower phys.
    pub fn longest_holds(&self, n: usize) -> Vec<&HandoffRecord> {
        let mut rows: Vec<&HandoffRecord> = self.handoffs.iter().collect();
        rows.sort_by(|a, b| {
            b.hold_cycles()
                .cmp(&a.hold_cycles())
                .then(a.released.cmp(&b.released))
                .then(a.phys.cmp(&b.phys))
        });
        rows.truncate(n);
        rows
    }

    /// Verifies the tiling invariant over every recorded episode.
    ///
    /// # Errors
    ///
    /// Returns the first failing episode's description.
    pub fn check(&self) -> Result<(), String> {
        for episode in &self.barriers {
            episode.check()?;
        }
        Ok(())
    }

    /// Serializes the totals, leaderboards (top `n`), and slowest /
    /// longest record lists (deterministic).
    pub fn to_json(&self, n: usize) -> Json {
        Json::obj([
            ("barrier_episodes", Json::U64(self.completed_barriers)),
            (
                "barrier_episodes_recorded",
                Json::U64(self.barriers.len() as u64),
            ),
            ("dropped_barrier_episodes", Json::U64(self.dropped_barriers)),
            ("handoffs_recorded", Json::U64(self.handoffs.len() as u64)),
            ("dropped_handoffs", Json::U64(self.dropped_handoffs)),
            ("collisions", Json::U64(self.collisions)),
            ("retransmits", Json::U64(self.retransmits)),
            ("lag_totals", bucket_json(self.lag_totals)),
            (
                "stragglers",
                Json::Arr(
                    self.straggler_leaderboard(n)
                        .into_iter()
                        .map(|(core, episodes, lag)| {
                            Json::obj([
                                ("core", Json::U64(core as u64)),
                                ("episodes", Json::U64(episodes)),
                                ("lag_cycles", Json::U64(lag)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slowest_episodes",
                Json::Arr(
                    self.slowest_episodes(n)
                        .into_iter()
                        .map(BarrierEpisode::json)
                        .collect(),
                ),
            ),
            (
                "locks",
                Json::obj([
                    ("addresses", Json::U64(self.locks.len() as u64)),
                    (
                        "leaderboard",
                        Json::Arr(
                            self.lock_leaderboard(n)
                                .into_iter()
                                .map(|(phys, agg)| {
                                    let mut row =
                                        vec![("phys".to_string(), Json::U64(phys as u64))];
                                    if let Json::Obj(fields) = agg.json() {
                                        row.extend(fields);
                                    }
                                    Json::Obj(row)
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "longest_holds",
                Json::Arr(
                    self.longest_holds(n)
                        .into_iter()
                        .map(HandoffRecord::json)
                        .collect(),
                ),
            ),
        ])
    }

    // --- Snapshot codec --------------------------------------------------

    /// Serializes the full recorder state (maps in sorted order, so
    /// identical states produce identical bytes).
    pub fn write_snap(&self, w: &mut wisync_sim::SnapWriter) {
        w.usize(self.capacity);
        w.seq(self.barriers.len());
        for e in &self.barriers {
            w.usize(e.phys);
            w.u64(e.ready.as_u64());
            w.u64(e.opened.as_u64());
            w.u64(e.released.as_u64());
            w.u64(e.arrivals);
            w.usize(e.first_core);
            w.u64(e.first_arrival.as_u64());
            w.usize(e.straggler);
            w.u64(e.straggler_arrival.as_u64());
            for &l in &e.lag {
                w.u64(l);
            }
            w.u64(e.collisions);
            w.u64(e.retransmits);
        }
        w.u64(self.dropped_barriers);
        w.seq(self.handoffs.len());
        for h in &self.handoffs {
            w.usize(h.phys);
            w.usize(h.holder);
            w.u64(h.acquired.as_u64());
            w.u64(h.released.as_u64());
            w.bool(h.released_by_store);
            w.u64(h.failed_attempts);
            w.option(h.handoff_from, |w, v| w.usize(v));
            w.option(h.handoff_latency, |w, v| w.u64(v));
        }
        w.u64(self.dropped_handoffs);
        let mut open: Vec<_> = self.open_barriers.iter().collect();
        open.sort_unstable_by_key(|(phys, _)| **phys);
        w.seq(open.len());
        for (&phys, barrier) in open {
            w.usize(phys);
            w.seq(barrier.arrivals.len());
            for &(core, at) in &barrier.arrivals {
                w.usize(core);
                w.u64(at.as_u64());
            }
        }
        let mut baselines: Vec<_> = self.baselines.iter().collect();
        baselines.sort_unstable_by_key(|(phys, _)| **phys);
        w.seq(baselines.len());
        for (&phys, baseline) in baselines {
            w.usize(phys);
            w.seq(baseline.snaps.len());
            for &(core, cursor, buckets) in &baseline.snaps {
                w.usize(core);
                w.u64(cursor.as_u64());
                for &b in &buckets {
                    w.u64(b);
                }
            }
            w.u64(baseline.collisions);
            w.u64(baseline.retransmits);
        }
        let mut locks: Vec<_> = self.locks.iter().collect();
        locks.sort_unstable_by_key(|(phys, _)| **phys);
        w.seq(locks.len());
        for (&phys, lock) in locks {
            w.usize(phys);
            w.option(lock.open, |w, o| {
                w.usize(o.core);
                w.u64(o.acquired.as_u64());
                w.option(o.handoff_from, |w, v| w.usize(v));
                w.option(o.handoff_latency, |w, v| w.u64(v));
                w.u64(o.fails);
            });
            w.option(lock.last_release, |w, (core, at)| {
                w.usize(core);
                w.u64(at.as_u64());
            });
            w.u64(lock.agg.acquires);
            w.u64(lock.agg.store_releases);
            w.u64(lock.agg.evictions);
            w.u64(lock.agg.failed_attempts);
            w.u64(lock.agg.hold_cycles);
            w.u64(lock.agg.handoffs);
            w.u64(lock.agg.handoff_cycles);
            w.u64(lock.agg.handoff_max);
        }
        w.u64(self.collisions);
        w.u64(self.retransmits);
        w.u64(self.completed_barriers);
        for &t in &self.lag_totals {
            w.u64(t);
        }
        w.seq(self.straggler_counts.len());
        for &n in &self.straggler_counts {
            w.u64(n);
        }
        w.seq(self.straggler_lag.len());
        for &n in &self.straggler_lag {
            w.u64(n);
        }
    }

    /// Rebuilds a recorder from [`Episodes::write_snap`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates malformed-snapshot errors.
    pub fn read_snap(r: &mut wisync_sim::SnapReader<'_>) -> Result<Self, wisync_sim::SnapError> {
        let capacity = r.usize()?;
        let mut episodes = Episodes::new(0, capacity);
        for _ in 0..r.seq()? {
            let phys = r.usize()?;
            let ready = Cycle(r.u64()?);
            let opened = Cycle(r.u64()?);
            let released = Cycle(r.u64()?);
            let arrivals = r.u64()?;
            let first_core = r.usize()?;
            let first_arrival = Cycle(r.u64()?);
            let straggler = r.usize()?;
            let straggler_arrival = Cycle(r.u64()?);
            let mut lag = [0u64; NUM_BUCKETS];
            for l in &mut lag {
                *l = r.u64()?;
            }
            episodes.barriers.push(BarrierEpisode {
                phys,
                ready,
                opened,
                released,
                arrivals,
                first_core,
                first_arrival,
                straggler,
                straggler_arrival,
                lag,
                collisions: r.u64()?,
                retransmits: r.u64()?,
            });
        }
        episodes.dropped_barriers = r.u64()?;
        for _ in 0..r.seq()? {
            episodes.handoffs.push(HandoffRecord {
                phys: r.usize()?,
                holder: r.usize()?,
                acquired: Cycle(r.u64()?),
                released: Cycle(r.u64()?),
                released_by_store: r.bool()?,
                failed_attempts: r.u64()?,
                handoff_from: r.option(|r| r.usize())?,
                handoff_latency: r.option(|r| r.u64())?,
            });
        }
        episodes.dropped_handoffs = r.u64()?;
        for _ in 0..r.seq()? {
            let phys = r.usize()?;
            let mut arrivals = Vec::new();
            for _ in 0..r.seq()? {
                let core = r.usize()?;
                arrivals.push((core, Cycle(r.u64()?)));
            }
            episodes
                .open_barriers
                .insert(phys, OpenBarrier { arrivals });
        }
        for _ in 0..r.seq()? {
            let phys = r.usize()?;
            let mut snaps = Vec::new();
            for _ in 0..r.seq()? {
                let core = r.usize()?;
                let cursor = Cycle(r.u64()?);
                let mut buckets = [0u64; NUM_BUCKETS];
                for b in &mut buckets {
                    *b = r.u64()?;
                }
                snaps.push((core, cursor, buckets));
            }
            episodes.baselines.insert(
                phys,
                Baseline {
                    snaps,
                    collisions: r.u64()?,
                    retransmits: r.u64()?,
                },
            );
        }
        for _ in 0..r.seq()? {
            let phys = r.usize()?;
            let open = r.option(|r| {
                Ok(OpenHold {
                    core: r.usize()?,
                    acquired: Cycle(r.u64()?),
                    handoff_from: r.option(|r| r.usize())?,
                    handoff_latency: r.option(|r| r.u64())?,
                    fails: r.u64()?,
                })
            })?;
            let last_release = r.option(|r| {
                let core = r.usize()?;
                Ok((core, Cycle(r.u64()?)))
            })?;
            episodes.locks.insert(
                phys,
                LockState {
                    open,
                    last_release,
                    agg: LockAgg {
                        acquires: r.u64()?,
                        store_releases: r.u64()?,
                        evictions: r.u64()?,
                        failed_attempts: r.u64()?,
                        hold_cycles: r.u64()?,
                        handoffs: r.u64()?,
                        handoff_cycles: r.u64()?,
                        handoff_max: r.u64()?,
                    },
                },
            );
        }
        episodes.collisions = r.u64()?;
        episodes.retransmits = r.u64()?;
        episodes.completed_barriers = r.u64()?;
        for t in &mut episodes.lag_totals {
            *t = r.u64()?;
        }
        for _ in 0..r.seq()? {
            episodes.straggler_counts.push(r.u64()?);
        }
        for _ in 0..r.seq()? {
            episodes.straggler_lag.push(r.u64()?);
        }
        Ok(episodes)
    }
}

/// Serializes a bucket array keyed by the bucket labels.
fn bucket_json(buckets: [u64; NUM_BUCKETS]) -> Json {
    Json::Obj(
        Bucket::ALL
            .iter()
            .zip(buckets.iter())
            .map(|(b, &n)| (b.label().to_string(), Json::U64(n)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrib(cores: usize) -> Attribution {
        Attribution::new(cores, Cycle(0), 1 << 10)
    }

    #[test]
    fn episode_decomposition_tiles_from_snapshots() {
        let mut a = attrib(2);
        let mut e = Episodes::new(2, 16);
        // Core 1 computes 0..80, then waits 80..100; core 0 arrives early.
        a.segment(0, Cycle(0), Cycle(10), Bucket::Compute);
        a.set_pending(0, Bucket::BarrierWait);
        e.barrier_arrive(0, 7, Cycle(10));
        a.segment(1, Cycle(0), Cycle(80), Bucket::Compute);
        a.set_pending(1, Bucket::BarrierWait);
        e.barrier_arrive(1, 7, Cycle(80));
        e.barrier_release(7, Cycle(100), &mut a);
        let ep = e.barriers()[0];
        assert_eq!(ep.straggler, 1);
        assert_eq!(ep.straggler_arrival, Cycle(80));
        assert_eq!(ep.first_core, 0);
        assert_eq!(ep.opened, Cycle(10));
        assert_eq!(ep.ready, Cycle(0));
        assert_eq!(ep.lag_cycles(), 100);
        ep.check().unwrap();
        // Second episode: the window starts at the previous release.
        a.segment(0, Cycle(100), Cycle(150), Bucket::Compute);
        a.set_pending(0, Bucket::BarrierWait);
        e.barrier_arrive(0, 7, Cycle(150));
        a.segment(1, Cycle(100), Cycle(130), Bucket::Compute);
        a.segment(1, Cycle(130), Cycle(160), Bucket::MacBackoff);
        a.set_pending(1, Bucket::BarrierWait);
        e.barrier_arrive(1, 7, Cycle(160));
        e.barrier_release(7, Cycle(170), &mut a);
        let ep = e.barriers()[1];
        assert_eq!(ep.ready, Cycle(100));
        assert_eq!(ep.straggler, 1);
        ep.check().unwrap();
        // compute 30 + backoff 30 + barrier wait 10 tiles the 70-cycle window.
        assert_eq!(ep.lag_cycles(), 70);
        assert_eq!(ep.lag[Bucket::MacBackoff as usize], 30);
        e.check().unwrap();
        assert_eq!(e.completed_barriers(), 2);
        assert_eq!(e.straggler_leaderboard(4), vec![(1, 2, 170)]);
    }

    #[test]
    fn barrier_ring_saturates_with_counter() {
        let mut a = attrib(1);
        let mut e = Episodes::new(1, 2);
        for i in 0..5u64 {
            e.barrier_arrive(0, 3, Cycle(i * 10));
            e.barrier_release(3, Cycle(i * 10 + 5), &mut a);
        }
        assert_eq!(e.barriers().len(), 2);
        assert_eq!(e.dropped_barriers(), 3);
        assert_eq!(e.completed_barriers(), 5);
        assert_eq!(e.dropped_total(), 3);
    }

    #[test]
    fn lock_handoffs_chain_acquire_to_release() {
        let mut e = Episodes::new(2, 16);
        // Core 0 CAS-acquires, core 1 fails twice, core 0 store-releases,
        // core 1 acquires with measurable handoff latency.
        e.rmw_commit(9, 0, Cycle(100));
        e.rmw_fail(9);
        e.rmw_fail(9);
        e.store_release(9, 0, Cycle(140));
        e.rmw_commit(9, 1, Cycle(150));
        assert_eq!(e.handoffs().len(), 1);
        let h = e.handoffs()[0];
        assert_eq!(h.holder, 0);
        assert_eq!(h.hold_cycles(), 40);
        assert!(h.released_by_store);
        assert_eq!(h.failed_attempts, 2);
        assert_eq!(h.handoff_from, None);
        // The second acquire closes nothing yet but records the handoff.
        let (phys, agg) = e.lock_leaderboard(4)[0];
        assert_eq!(phys, 9);
        assert_eq!(agg.acquires, 2);
        assert_eq!(agg.store_releases, 1);
        assert_eq!(agg.failed_attempts, 2);
        assert_eq!(agg.handoffs, 1);
        assert_eq!(agg.handoff_cycles, 10);
        // A third acquire evicts the open hold (fetch-add style).
        e.rmw_commit(9, 0, Cycle(200));
        assert_eq!(e.handoffs().len(), 2);
        let h = e.handoffs()[1];
        assert_eq!(h.holder, 1);
        assert!(!h.released_by_store);
        assert_eq!(h.handoff_from, Some(0));
        assert_eq!(h.handoff_latency, Some(10));
        // Eviction counts as a release at the acquire cycle: zero latency.
        let (_, agg) = e.lock_leaderboard(4)[0];
        assert_eq!(agg.evictions, 1);
        assert_eq!(agg.handoff_max, 10);
    }

    #[test]
    fn stores_by_non_holders_do_not_release() {
        let mut e = Episodes::new(2, 16);
        e.rmw_commit(4, 0, Cycle(10));
        e.store_release(4, 1, Cycle(20)); // not the holder
        e.store_release(5, 0, Cycle(20)); // untracked address
        assert!(e.handoffs().is_empty());
        e.store_release(4, 0, Cycle(30));
        assert_eq!(e.handoffs().len(), 1);
    }

    #[test]
    fn snapshot_roundtrips_full_state() {
        let mut a = attrib(2);
        let mut e = Episodes::new(2, 4);
        a.segment(0, Cycle(0), Cycle(5), Bucket::Compute);
        e.barrier_arrive(0, 2, Cycle(5));
        e.barrier_arrive(1, 2, Cycle(9));
        e.barrier_release(2, Cycle(12), &mut a);
        e.barrier_arrive(0, 2, Cycle(20)); // leave one open
        e.rmw_commit(6, 1, Cycle(7));
        e.rmw_fail(6);
        e.collision();
        e.retransmit();
        let mut w = wisync_sim::SnapWriter::new();
        e.write_snap(&mut w);
        let bytes = w.finish();
        let mut r = wisync_sim::SnapReader::new(&bytes);
        let restored = Episodes::read_snap(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        let mut w2 = wisync_sim::SnapWriter::new();
        restored.write_snap(&mut w2);
        assert_eq!(bytes, w2.finish());
        assert_eq!(restored.barriers(), e.barriers());
        assert_eq!(restored.completed_barriers(), 1);
        assert_eq!(restored.to_json(8).render(), e.to_json(8).render());
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let mut a = attrib(2);
        let mut e = Episodes::new(2, 8);
        e.barrier_arrive(1, 0, Cycle(3));
        e.barrier_arrive(0, 0, Cycle(8));
        e.barrier_release(0, Cycle(10), &mut a);
        e.rmw_commit(5, 0, Cycle(4));
        e.store_release(5, 0, Cycle(9));
        let text = e.to_json(8).render();
        assert_eq!(text, e.to_json(8).render());
        assert!(text.contains("\"barrier_episodes\": 1"));
        assert!(text.contains("\"stragglers\""));
        assert!(text.contains("\"longest_holds\""));
        assert!(text.contains("\"hold_cycles\": 5"));
    }
}
