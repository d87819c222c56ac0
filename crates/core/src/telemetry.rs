//! Process-wide sync-activity telemetry.
//!
//! `wisync-serve` answers `GET /jobs/<id>/progress` while a grid slice
//! is still running, and wants live synchronization counters without
//! reaching into a `Machine` owned by another thread. Every
//! [`crate::Machine::run`] therefore publishes its per-run deltas into
//! these process-wide relaxed atomics when it returns. The counters are
//! monotone and write-only from the machine's side — nothing in the
//! simulator ever reads them — so they cannot perturb a run.
//!
//! Readers take a [`snapshot`]; deltas between two snapshots bound the
//! sync activity that completed in between. With several machines
//! running concurrently (parallel serve jobs) the counters aggregate
//! across all of them, which is exactly what a service-level progress
//! probe wants.

use std::sync::atomic::{AtomicU64, Ordering};

static RUNS: AtomicU64 = AtomicU64::new(0);
static TONE_BARRIERS: AtomicU64 = AtomicU64::new(0);
static RMW_COMMITS: AtomicU64 = AtomicU64::new(0);
static EPISODES_DROPPED: AtomicU64 = AtomicU64::new(0);
static MAC_EXHAUSTIONS: AtomicU64 = AtomicU64::new(0);

/// One reading of the process-wide sync telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Completed [`crate::Machine::run`] calls.
    pub runs: u64,
    /// Tone barriers completed across all runs.
    pub tone_barriers: u64,
    /// Committed atomic RMWs (both address spaces) across all runs.
    pub rmw_commits: u64,
    /// Sync-episode records dropped by saturated observability rings.
    pub episodes_dropped: u64,
    /// Per-policy MAC exhaustion reports (capped backoff frames,
    /// starved token-ring losers) across all runs.
    pub mac_exhaustions: u64,
}

/// Reads the current counter values (relaxed; each counter is
/// individually monotone).
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        runs: RUNS.load(Ordering::Relaxed),
        tone_barriers: TONE_BARRIERS.load(Ordering::Relaxed),
        rmw_commits: RMW_COMMITS.load(Ordering::Relaxed),
        episodes_dropped: EPISODES_DROPPED.load(Ordering::Relaxed),
        mac_exhaustions: MAC_EXHAUSTIONS.load(Ordering::Relaxed),
    }
}

/// Publishes one run's deltas. Called by [`crate::Machine::run`] on
/// return; not intended for direct use.
pub(crate) fn record_run(
    tone_barriers: u64,
    rmw_commits: u64,
    episodes_dropped: u64,
    mac_exhaustions: u64,
) {
    RUNS.fetch_add(1, Ordering::Relaxed);
    TONE_BARRIERS.fetch_add(tone_barriers, Ordering::Relaxed);
    RMW_COMMITS.fetch_add(rmw_commits, Ordering::Relaxed);
    EPISODES_DROPPED.fetch_add(episodes_dropped, Ordering::Relaxed);
    MAC_EXHAUSTIONS.fetch_add(mac_exhaustions, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_run_bumps_counters() {
        let before = snapshot();
        record_run(3, 5, 1, 2);
        let after = snapshot();
        // Other tests in this process may run machines concurrently, so
        // assert lower bounds on the deltas rather than exact values.
        assert!(after.runs > before.runs);
        assert!(after.tone_barriers >= before.tone_barriers + 3);
        assert!(after.rmw_commits >= before.rmw_commits + 5);
        assert!(after.episodes_dropped > before.episodes_dropped);
        assert!(after.mac_exhaustions >= before.mac_exhaustions + 2);
    }
}
