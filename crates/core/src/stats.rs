//! Whole-machine statistics.

use std::fmt;

use wisync_fault::{FaultRecord, FaultStats};
use wisync_isa::RmwSpec;
use wisync_mem::MemStats;
use wisync_sim::Cycle;
use wisync_wireless::{DataChannelStats, ToneChannelStats};

/// Statistics for one machine run.
///
/// Substrate statistics (Data channel, Tone channel, memory system) are
/// merged in when [`crate::Machine::run`] returns.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Kernel instructions executed (a `Compute {{ cycles }}` counts as
    /// `cycles` instructions).
    pub instructions: u64,
    /// Discrete events dispatched by the engine's event loop — the
    /// numerator of the benchmark's `sim_events_per_s` metric
    /// (`perfbench/README.md`).
    pub sim_events: u64,
    /// BM words read locally.
    pub bm_loads: u64,
    /// BM words written (each is one broadcast, or a quarter of a Bulk).
    pub bm_stores: u64,
    /// BM RMWs whose atomicity failed (AFB set, §4.2.1).
    pub bm_rmw_atomicity_failures: u64,
    /// Tone barriers completed.
    pub tone_barriers: u64,
    /// Atomic RMW instructions attempted (both spaces).
    pub rmw_attempts: u64,
    /// Atomic RMW instructions that performed their write.
    pub rmw_successes: u64,
    /// CAS instructions attempted (subset of `rmw_attempts`).
    pub cas_attempts: u64,
    /// CAS instructions that compared equal *and* committed atomically
    /// (the quantity Figure 9 plots per 1000 cycles).
    pub cas_successes: u64,
    /// Trace events discarded by the bounded trace sink after it filled
    /// (0 when tracing is off or the sink never overflowed).
    pub dropped_trace_events: u64,
    /// Sync-episode records (barrier episodes + lock holds) discarded by
    /// the bounded episode rings after they filled (0 when observability
    /// is off or the rings never saturated) — a non-zero value means the
    /// sync profile is truncated.
    pub dropped_sync_episodes: u64,
    /// Simulation and injected faults (protection violations, exhausted
    /// retransmit budgets, audited replica divergence).
    pub faults: Vec<FaultRecord>,
    /// Fault-injection counters (all zero when no [`wisync_fault::FaultPlan`]
    /// is installed).
    pub fault_stats: FaultStats,
    /// Wireless Data channel statistics.
    pub data: DataChannelStats,
    /// Fraction of run cycles the Data channel was busy (Table 5).
    pub data_utilization: f64,
    /// Tone channel statistics.
    pub tone: ToneChannelStats,
    /// Wired memory hierarchy statistics.
    pub mem: MemStats,
}

impl MachineStats {
    pub(crate) fn note_rmw_attempt(&mut self, kind: RmwSpec) {
        self.rmw_attempts += 1;
        if matches!(kind, RmwSpec::Cas { .. }) {
            self.cas_attempts += 1;
        }
    }

    pub(crate) fn note_rmw_success(&mut self, kind: RmwSpec) {
        self.rmw_successes += 1;
        if matches!(kind, RmwSpec::Cas { .. }) {
            self.cas_successes += 1;
        }
    }

    pub(crate) fn note_bm_rmw_committed(&mut self, was_cas: bool) {
        self.rmw_successes += 1;
        if was_cas {
            self.cas_successes += 1;
        }
    }

    pub(crate) fn absorb_substrates(
        &mut self,
        data: DataChannelStats,
        tone: ToneChannelStats,
        mem: MemStats,
        now: Cycle,
    ) {
        self.data_utilization = if now.as_u64() == 0 {
            0.0
        } else {
            data.busy_cycles as f64 / now.as_u64() as f64
        };
        self.data = data;
        self.tone = tone;
        self.mem = mem;
    }

    /// CAS throughput in successful CASes per 1000 cycles (Figure 9's
    /// y-axis) over a run of `cycles`.
    pub fn cas_throughput_per_kcycle(&self, cycles: Cycle) -> f64 {
        if cycles.as_u64() == 0 {
            0.0
        } else {
            self.cas_successes as f64 * 1000.0 / cycles.as_u64() as f64
        }
    }
}

/// Aligned, human-readable rendering used by the bench / chaos / sweep
/// binaries when summarizing a run.
impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn row(f: &mut fmt::Formatter<'_>, key: &str, value: impl fmt::Display) -> fmt::Result {
            writeln!(f, "  {key:<26} {value}")
        }
        writeln!(f, "machine")?;
        row(f, "instructions", self.instructions)?;
        row(f, "sim_events", self.sim_events)?;
        row(f, "bm_loads", self.bm_loads)?;
        row(f, "bm_stores", self.bm_stores)?;
        row(f, "rmw_attempts", self.rmw_attempts)?;
        row(f, "rmw_successes", self.rmw_successes)?;
        row(f, "cas_attempts", self.cas_attempts)?;
        row(f, "cas_successes", self.cas_successes)?;
        row(f, "rmw_atomicity_failures", self.bm_rmw_atomicity_failures)?;
        row(f, "tone_barriers", self.tone_barriers)?;
        row(f, "faults", self.faults.len())?;
        if self.dropped_trace_events > 0 {
            row(f, "dropped_trace_events", self.dropped_trace_events)?;
        }
        if self.dropped_sync_episodes > 0 {
            row(f, "dropped_sync_episodes", self.dropped_sync_episodes)?;
        }
        writeln!(f, "data channel")?;
        row(f, "transfers", self.data.transfers)?;
        row(f, "collisions", self.data.collisions)?;
        row(f, "busy_cycles", self.data.busy_cycles)?;
        row(f, "mac_exhaustions", self.data.mac_exhaustions)?;
        row(f, "mac_grants", self.data.mac_grants)?;
        row(f, "token_pass_cycles", self.data.token_pass_cycles)?;
        row(f, "mac_mode_switches", self.data.mac_mode_switches)?;
        row(
            f,
            "utilization",
            format_args!("{:.4}", self.data_utilization),
        )?;
        row(f, "latency", &self.data.latency)?;
        row(f, "retries", &self.data.retries)?;
        writeln!(f, "tone channel")?;
        row(f, "barriers_completed", self.tone.barriers_completed)?;
        row(f, "active_cycles", self.tone.active_cycles)?;
        row(f, "peak_active", self.tone.peak_active)?;
        writeln!(f, "memory")?;
        row(f, "loads", self.mem.loads)?;
        row(f, "stores", self.mem.stores)?;
        row(f, "rmws", self.mem.rmws)?;
        row(f, "l1_hits", self.mem.l1_hits)?;
        row(f, "dir_transactions", self.mem.dir_transactions)?;
        row(f, "latency", &self.mem.latency)
    }
}
