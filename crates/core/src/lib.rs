//! WiSync: an architecture for fast synchronization through on-chip
//! wireless communication.
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates:
//!
//! - [`bm`] — the per-core **Broadcast Memory** (replicated, PID-tagged,
//!   TLB-translated; §4.2/§4.4),
//! - [`Machine`] — the cycle-level manycore simulator that executes
//!   kernel-ISA programs over the wired memory hierarchy
//!   (`wisync-mem`), the 2D-mesh NoC (`wisync-noc`), and the wireless
//!   Data/Tone channels (`wisync-wireless`),
//! - [`MachineConfig`]/[`MachineKind`] — the four compared architectures
//!   of Table 2 (Baseline, Baseline+, WiSyncNoT, WiSync) and the Table 6
//!   sensitivity variants.
//!
//! # Quick start
//!
//! ```
//! use wisync_core::{Machine, MachineConfig, Pid, RunOutcome};
//! use wisync_isa::{Instr, ProgramBuilder, Reg, RmwSpec, Space};
//!
//! // Two cores of a WiSync machine fetch&inc a shared BM word.
//! let mut m = Machine::new(MachineConfig::wisync(16));
//! let counter = m.bm_alloc(Pid(1), 1)?;
//!
//! let prog = |addr: u64| {
//!     let mut b = ProgramBuilder::new();
//!     let retry = b.bind_here();
//!     b.push(Instr::Rmw {
//!         kind: RmwSpec::FetchInc,
//!         dst: Reg(1),
//!         base: Reg(0),
//!         offset: addr,
//!         space: Space::Bm,
//!     });
//!     b.push(Instr::ReadAfb { dst: Reg(2) });
//!     b.push(Instr::Bnez { cond: Reg(2), target: retry });
//!     b.push(Instr::Halt);
//!     b.build().unwrap()
//! };
//! m.load_program(0, Pid(1), prog(counter));
//! m.load_program(1, Pid(1), prog(counter));
//! let report = m.run(100_000);
//! assert_eq!(report.outcome, RunOutcome::Completed);
//! assert_eq!(m.bm_value(Pid(1), counter)?, 2);
//! # Ok::<(), wisync_core::bm::BmError>(())
//! ```

pub mod bm;
pub mod config;
pub mod machine;
pub mod model;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use bm::{BmError, BroadcastMemory, Pid};
pub use config::{BmConsistency, ExecMode, MachineConfig, MachineKind};
pub use machine::{
    Machine, RunOutcome, RunReport, ScheduleError, ThreadImage, WirelessMsg, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use stats::MachineStats;
pub use telemetry::TelemetrySnapshot;
pub use trace::{ChromeTrace, Trace, TraceEvent, TraceSink};
// Fault-injection vocabulary, re-exported so workloads and harnesses can
// build plans without depending on `wisync-fault` directly.
pub use wisync_fault::{
    Dropout, ErrorModel, FaultPlan, FaultRecord, FaultState, FaultStats, ToneFaults,
};
// Observability vocabulary, re-exported on the same grounds.
pub use wisync_obs::{Attribution, Bucket, ObsConfig, ObsState, Timeline};
// Snapshot error vocabulary, so `Machine::restore` callers don't need a
// direct `wisync-sim` dependency.
pub use wisync_sim::SnapError;
// The MAC knob, so callers resolving `WISYNC_MAC` don't need a direct
// `wisync-wireless` dependency.
pub use wisync_wireless::MacPolicy;
