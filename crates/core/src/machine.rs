//! The cycle-level WiSync machine: cores executing kernel programs over
//! the timed memory, NoC, and wireless substrates.
//!
//! Execution is event-driven. Each core runs its program instruction by
//! instruction; straight-line ALU work is batched, while every memory,
//! BM, tone, or wait instruction becomes a timed transaction against the
//! appropriate substrate. The substrates are passive: they compute
//! completion cycles and hand back wake-ups, and the machine turns those
//! into events.

use wisync_fault::{FaultPlan, FaultRecord, FaultState, RxOutcome, ToneOutcome};
use wisync_isa::uop::Uop;
use wisync_isa::{Cond, DecodedProgram, Instr, Program, Reg, RmwSpec, Space};
use wisync_mem::{MemOp, MemSystem, RmwKind};
use wisync_noc::{Mesh, NodeId, NodeSet};
use wisync_obs::{Bucket, Episodes, ObsConfig, ObsState, Timeline};
use wisync_sim::{Cycle, DetRng, EventQueue};
use wisync_wireless::{DataChannel, Resolution, ToneChannel, TxLen, TxToken};

use crate::bm::{BmError, BroadcastMemory, Pid};
use crate::config::{BmConsistency, ExecMode, MachineConfig};
use crate::stats::MachineStats;
use crate::trace::{Trace, TraceEvent, TraceSink};

/// Maximum inline (ALU/branch) instructions retired in one event before
/// yielding back to the wheel — the safety valve that keeps a pure-ALU
/// loop from starving the event loop. Both interpreters enforce it with
/// identical accounting, so the event schedule is mode-independent.
const MAX_BATCH: u64 = 1024;

/// Messages carried on the wireless Data channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WirelessMsg {
    /// A plain BM store: on delivery, every replica updates (§4.2.1).
    BmWrite {
        phys: usize,
        value: u64,
        core: usize,
    },
    /// The write half of a BM RMW; on delivery it applies only if the
    /// instruction's atomicity still holds (AFB clear, §4.2.1).
    BmRmwWrite {
        phys: usize,
        value: u64,
        core: usize,
    },
    /// A Bulk store of four consecutive words (§3.2).
    Bulk {
        phys: usize,
        values: [u64; 4],
        core: usize,
    },
    /// First-arrival message of a tone barrier: Data channel message with
    /// the Tone bit set (§4.2.2). The data field is immaterial.
    ToneInit { phys: usize, core: usize },
    /// Fault recovery: the replica audit re-broadcasts the canonical
    /// value of a diverged BM word so every replica converges. Sent only
    /// when a [`FaultPlan`] is installed; carries no program-visible
    /// write (the canonical BM already holds `value`).
    Resync { phys: usize, value: u64 },
}

impl WirelessMsg {
    /// The BM physical index every message variant carries — the
    /// channel-routing key and the per-address attribution key.
    fn phys(&self) -> usize {
        match *self {
            WirelessMsg::BmWrite { phys, .. }
            | WirelessMsg::BmRmwWrite { phys, .. }
            | WirelessMsg::Bulk { phys, .. }
            | WirelessMsg::ToneInit { phys, .. }
            | WirelessMsg::Resync { phys, .. } => phys,
        }
    }
}

/// A queued Data-channel transmission: the message plus its delivery
/// attempt (0 = first broadcast, >0 = fault-recovery retransmit after a
/// receiver checksum reject).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TxFrame {
    msg: WirelessMsg,
    attempt: u32,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    /// Core continues execution at its current pc.
    Resume(usize),
    /// Completion of the timed read a `WaitWhile` issued: re-check the
    /// condition and either proceed or go to sleep.
    WaitCheck(usize),
    /// Resolve the given Data channel's slot at this event's cycle.
    ChannelResolve(usize),
    /// Chip-wide delivery of a wireless message. Boxed to keep `Event`
    /// small: the queue moves events by value on every push/pop, and
    /// `Resume` — the overwhelmingly common event — should not pay for
    /// the full frame's width. One allocation per wireless transfer is
    /// noise next to the transfer's ~100-cycle simulation.
    Deliver(Box<TxFrame>),
    /// A tone barrier observed silence: release it.
    ToneComplete { phys: usize },
    /// A core's delayed observation of a tone completion (fault
    /// injection: the detector reported late).
    ToneObserve { core: usize, phys: usize },
    /// Periodic BM replica-divergence audit (fault injection).
    FaultAudit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CoreStatus {
    /// No program loaded.
    Idle,
    /// Executing (an event will advance it).
    Running,
    /// Waiting for a scheduled completion event.
    Blocked,
    /// Asleep in a spin-wait; woken by a write to the watched location.
    Sleeping,
    /// Program finished.
    Halted,
    /// Parked by a preemption request; its image awaits collection.
    Preempted,
    /// Program hit a simulation fault (e.g. BM protection violation).
    Faulted,
}

#[derive(Clone, Copy, Debug)]
struct PendingRmw {
    phys: usize,
    token: TxToken,
    /// Whether the pending instruction is a CAS (for Figure 9 counting).
    is_cas: bool,
    /// Set when an incoming write to `phys` broke atomicity but the
    /// message could no longer be cancelled; the delivery is dropped.
    aborted: bool,
}

#[derive(Clone, Copy, Debug)]
struct WaitInfo {
    cond: Cond,
    space: Space,
    /// Byte address (cached space) or physical BM index (BM space).
    loc: u64,
    value: u64,
}

#[derive(Clone, Debug)]
struct Core {
    pid: Pid,
    program: Option<Program>,
    /// The program lowered to micro-ops at load time (same indices as
    /// `program`; see `wisync_isa::uop`). Present whenever `program` is.
    decoded: Option<DecodedProgram>,
    pc: usize,
    regs: [u64; wisync_isa::instr::NUM_REGS],
    status: CoreStatus,
    afb: bool,
    /// A preemption was requested; the core parks at its next
    /// instruction boundary (§5.2).
    preempt_pending: bool,
    /// TSO store buffer (depth 1): the physical BM index and value of
    /// the in-flight store, if any (§4.2.1).
    store_buffer: Option<(usize, u64)>,
    /// The core is stalled waiting for the store buffer to drain (next
    /// BM store/RMW/halt while a store is outstanding).
    drain_block: bool,
    pending_rmw: Option<PendingRmw>,
    /// A cached load in flight: the destination register is filled at
    /// completion with the value the line holds when it arrives (reading
    /// at issue instead would return values stale by the full directory
    /// queueing delay, making CAS retry loops convoy pathologically —
    /// see DESIGN.md §5).
    pending_load: Option<(Reg, u64)>,
    /// Exponential-backoff exponent for BM RMW atomicity failures: the
    /// hardware holds a failed RMW for a random wait in `[0, 2^i)` before
    /// letting software observe the AFB, incrementing `i` per failure and
    /// decrementing it per committed RMW (the paper's §5.3 policy applied
    /// at the instruction-retry level, where synchronization contention
    /// actually manifests).
    rmw_exp: u32,
    wait: Option<WaitInfo>,
    finish: Option<Cycle>,
}

impl Core {
    fn new() -> Self {
        Core {
            pid: Pid(0),
            program: None,
            decoded: None,
            pc: 0,
            regs: [0; wisync_isa::instr::NUM_REGS],
            status: CoreStatus::Idle,
            afb: false,
            preempt_pending: false,
            store_buffer: None,
            drain_block: false,
            pending_rmw: None,
            pending_load: None,
            rmw_exp: 0,
            wait: None,
            finish: None,
        }
    }
}

/// How a pre-executed inline micro-op run ended: at the batch cap, at a
/// specialized cached load/store (handled lean, without refetching the
/// original [`Instr`]), or at a generic boundary.
#[derive(Clone, Copy, Debug)]
enum RunEnd {
    Cap,
    Ld { dst: u8, base: u8, offset: u32 },
    St { src: u8, base: u8, offset: u32 },
    Boundary,
}

/// Result of running one core's inline micro-op prefix: the retired
/// inline count and how the run ended. Register and pc effects apply
/// directly to the core; time, stats, obs, and the boundary instruction
/// are settled afterwards by `Machine::commit_uop_run`.
#[derive(Clone, Copy, Debug)]
struct UopRun {
    n: u64,
    end: RunEnd,
}

/// Walks `c`'s pre-decoded program from its pc in a tight loop that
/// touches only the core's own registers and program counter, stopping
/// at the first run boundary or at the batch cap.
///
/// This is the core-local half of the micro-op interpreter: it reads
/// and writes nothing but `c`, which keeps the hot loop free of borrows
/// on the rest of the machine. AFB/WCB are captured once at entry —
/// during the inline prefix of a run no other machine state can change
/// (boundaries are where events, stores, and deliveries act).
fn uop_inline_run(c: &mut Core) -> UopRun {
    let Core {
        decoded,
        regs,
        pc: core_pc,
        afb,
        store_buffer,
        ..
    } = c;
    let uops = decoded
        .as_ref()
        .expect("running core has a decoded program")
        .uops();
    let afb = *afb as u64;
    let wcb = store_buffer.is_none() as u64;
    let mut pc = *core_pc;
    let mut n = 0u64;
    // Register indices are validated `< 32` at program build; the
    // `& 31` lets the optimizer drop the bounds checks.
    let end = loop {
        match uops[pc] {
            Uop::Add { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    regs[(a & 31) as usize].wrapping_add(regs[(b & 31) as usize]);
                pc += 1;
            }
            Uop::Sub { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    regs[(a & 31) as usize].wrapping_sub(regs[(b & 31) as usize]);
                pc += 1;
            }
            Uop::Mul { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    regs[(a & 31) as usize].wrapping_mul(regs[(b & 31) as usize]);
                pc += 1;
            }
            Uop::And { dst, a, b } => {
                regs[(dst & 31) as usize] = regs[(a & 31) as usize] & regs[(b & 31) as usize];
                pc += 1;
            }
            Uop::Or { dst, a, b } => {
                regs[(dst & 31) as usize] = regs[(a & 31) as usize] | regs[(b & 31) as usize];
                pc += 1;
            }
            Uop::Xor { dst, a, b } => {
                regs[(dst & 31) as usize] = regs[(a & 31) as usize] ^ regs[(b & 31) as usize];
                pc += 1;
            }
            Uop::Shl { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    regs[(a & 31) as usize] << (regs[(b & 31) as usize] & 63);
                pc += 1;
            }
            Uop::Shr { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    regs[(a & 31) as usize] >> (regs[(b & 31) as usize] & 63);
                pc += 1;
            }
            Uop::CmpEq { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    (regs[(a & 31) as usize] == regs[(b & 31) as usize]) as u64;
                pc += 1;
            }
            Uop::CmpLt { dst, a, b } => {
                regs[(dst & 31) as usize] =
                    (regs[(a & 31) as usize] < regs[(b & 31) as usize]) as u64;
                pc += 1;
            }
            Uop::Li { dst, imm } => {
                regs[(dst & 31) as usize] = imm;
                pc += 1;
            }
            Uop::Addi { dst, a, imm } => {
                regs[(dst & 31) as usize] = regs[(a & 31) as usize].wrapping_add(imm);
                pc += 1;
            }
            Uop::Mov { dst, src } => {
                regs[(dst & 31) as usize] = regs[(src & 31) as usize];
                pc += 1;
            }
            Uop::Jump { target } => pc = target as usize,
            Uop::Beqz { cond, target } => {
                pc = if regs[(cond & 31) as usize] == 0 {
                    target as usize
                } else {
                    pc + 1
                };
            }
            Uop::Bnez { cond, target } => {
                pc = if regs[(cond & 31) as usize] != 0 {
                    target as usize
                } else {
                    pc + 1
                };
            }
            Uop::ReadAfb { dst } => {
                regs[(dst & 31) as usize] = afb;
                pc += 1;
            }
            Uop::ReadWcb { dst } => {
                regs[(dst & 31) as usize] = wcb;
                pc += 1;
            }
            Uop::LdCached { dst, base, offset } => break RunEnd::Ld { dst, base, offset },
            Uop::StCached { src, base, offset } => break RunEnd::St { src, base, offset },
            Uop::Boundary(_) => break RunEnd::Boundary,
        }
        n += 1;
        if n >= MAX_BATCH {
            break RunEnd::Cap;
        }
    };
    *core_pc = pc;
    UopRun { n, end }
}

/// Arrivals recorded while a barrier's init message is still in flight.
///
/// §4.2.2 speaks of "the first core" sending the init; simultaneous
/// arrivals would each believe themselves first, but their init messages
/// are interchangeable (same address, immaterial data field), so the
/// simulator models the hardware as resolving them into one message:
/// exactly one init is broadcast per barrier episode, and arrivals that
/// happen while it is in flight are recorded and applied at delivery.
#[derive(Clone, Debug, Default)]
struct ToneInitPending {
    /// An init message for this barrier is in flight.
    in_flight: bool,
    /// Cores that arrived before the init message delivered. Capacity is
    /// retained across barrier episodes, so steady-state arrivals do not
    /// allocate.
    early: Vec<usize>,
}

/// Why a [`Machine::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every loaded core halted.
    Completed,
    /// Some cores are asleep with nothing left to wake them.
    Deadlock,
    /// The cycle budget ran out.
    CycleLimit,
    /// At least one core faulted (see [`MachineStats::faults`]).
    Faulted,
}

/// Result of running a machine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Termination cause.
    pub outcome: RunOutcome,
    /// Cycle of the last processed event (total execution time).
    pub cycles: Cycle,
    /// Per-core completion cycles (None for cores that did not halt).
    pub core_finish: Vec<Option<Cycle>>,
}

/// The architectural state of a preempted thread (§5.2): everything the
/// OS must save to reschedule it later, on the same or (for programs not
/// using the Tone channel) a different core. The AFB is part of the
/// image — §4.2.1: "AFB is saved and restored on context switch".
#[derive(Clone, Debug)]
pub struct ThreadImage {
    pid: Pid,
    program: Program,
    pc: usize,
    regs: [u64; wisync_isa::instr::NUM_REGS],
    afb: bool,
    origin_core: usize,
}

impl ThreadImage {
    /// The core the thread last ran on.
    pub fn origin_core(&self) -> usize {
        self.origin_core
    }

    /// The owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The saved AFB (1 after a preemption aborted an in-flight RMW).
    pub fn afb(&self) -> bool {
        self.afb
    }
}

/// Errors from thread scheduling operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The core has no parked thread to take / no thread to preempt.
    NothingToTake(usize),
    /// The target core is still running another thread.
    CoreBusy(usize),
    /// §5.2: a thread armed for a tone barrier cannot migrate, because
    /// the Armed bits live in its origin core's tone controller.
    ToneArmed {
        /// Core whose tone controller holds the thread's Armed bits.
        origin: usize,
        /// Attempted destination.
        target: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NothingToTake(c) => write!(f, "core {c} has no parked thread"),
            ScheduleError::CoreBusy(c) => write!(f, "core {c} is still running a thread"),
            ScheduleError::ToneArmed { origin, target } => write!(
                f,
                "thread armed for a tone barrier on core {origin} cannot migrate to core {target}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A simulated WiSync (or baseline) manycore.
///
/// # Examples
///
/// Run one core storing to cached memory:
///
/// ```
/// use wisync_core::{Machine, MachineConfig, Pid};
/// use wisync_isa::{Instr, ProgramBuilder, Reg, Space};
///
/// let mut b = ProgramBuilder::new();
/// b.push(Instr::Li { dst: Reg(1), imm: 5 });
/// b.push(Instr::St { src: Reg(1), base: Reg(0), offset: 0x100, space: Space::Cached });
/// b.push(Instr::Halt);
/// let prog = b.build().unwrap();
///
/// let mut m = Machine::new(MachineConfig::baseline(16));
/// m.load_program(0, Pid(1), prog);
/// let report = m.run(100_000);
/// assert_eq!(report.outcome, wisync_core::RunOutcome::Completed);
/// assert_eq!(m.mem_value(0x100), 5);
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    mem: MemSystem,
    bm: BroadcastMemory,
    /// One or more Data channels (paper: one; §4.1 discusses more).
    /// Messages are interleaved by physical BM index.
    data: Vec<DataChannel<TxFrame>>,
    tone: ToneChannel,
    cores: Vec<Core>,
    queue: EventQueue<Event>,
    /// Sleeping spin-waiters per physical BM index. Dense: BM physical
    /// indices are bounded by `config.bm_entries`, so a `Vec` replaces
    /// the former `HashMap` on this hot wake-up path.
    bm_waiters: Vec<Vec<usize>>,
    /// Per-physical-BM-index tone-init bookkeeping, dense like
    /// `bm_waiters`.
    tone_init: Vec<ToneInitPending>,
    rng: DetRng,
    now: Cycle,
    stats: MachineStats,
    trace: Option<Box<dyn TraceSink>>,
    /// Observability state (cycle attribution, metrics timeline,
    /// synchronization histograms); `None` (the default) costs nothing.
    /// The machine only ever *writes* this state — it never reads it
    /// back, draws no randomness for it, and schedules no events from
    /// it, so enabling observability cannot change any simulation
    /// outcome (the fault-injection contract in reverse).
    obs: Option<Box<ObsState>>,
    /// Fault injection state; `None` (the default) costs nothing: no
    /// hooks run, no randomness is drawn, event order is untouched.
    fault: Option<Box<FaultState>>,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let mesh = Mesh::new(config.cores, config.hop_latency);
        let mem = MemSystem::new(config.mem, mesh);
        let mut wireless = config.wireless;
        wireless.seed ^= config.seed;
        let n_channels = wireless.data_channels.max(1);
        let data = (0..n_channels)
            .map(|ch| {
                let mut w = wireless;
                w.seed ^= (ch as u64 + 1) << 32;
                DataChannel::new(w, config.cores)
            })
            .collect();
        Machine {
            mem,
            bm: BroadcastMemory::new(config.bm_entries),
            data,
            tone: ToneChannel::new(config.tone_table_capacity),
            cores: (0..config.cores).map(|_| Core::new()).collect(),
            // Lockstep phases park one Resume per core on a single
            // cycle, so size each wheel slot for a full core set up
            // front rather than growing every slot mid-run.
            queue: EventQueue::with_slot_capacity(config.cores.next_power_of_two()),
            bm_waiters: vec![Vec::new(); config.bm_entries],
            tone_init: vec![ToneInitPending::default(); config.bm_entries],
            rng: DetRng::new(config.seed ^ 0xB0FF_0FF5),
            now: Cycle::ZERO,
            stats: MachineStats::default(),
            trace: None,
            obs: None,
            fault: None,
            config,
        }
    }

    /// Installs a fault-injection plan (see [`wisync_fault`]).
    ///
    /// An empty plan ([`FaultPlan::is_none`]) uninstalls injection
    /// entirely, restoring the exact unfaulted execution: the disabled
    /// path draws no randomness and perturbs no event ordering.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = if plan.is_none() {
            None
        } else {
            Some(Box::new(FaultState::new(plan)))
        };
    }

    /// The live fault-injection state, if a plan is installed (ground
    /// truth for chaos harnesses; counters are also merged into
    /// [`MachineStats::fault_stats`] when [`Machine::run`] returns).
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.fault.as_deref()
    }

    /// Enables event tracing into the default bounded [`Trace`] sink
    /// with the given capacity (see [`crate::trace`]). Replaces any
    /// installed sink.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(Trace::new(capacity)));
    }

    /// Installs a custom streaming trace sink (e.g. a
    /// [`crate::ChromeTrace`] exporter). Replaces any installed sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// The recorded bounded trace, if the installed sink is one.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_deref().and_then(TraceSink::as_trace)
    }

    /// The installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.trace.as_deref()
    }

    /// Removes and returns the installed trace sink (e.g. to append
    /// attribution spans to a [`crate::ChromeTrace`] and export it
    /// after a run). Tracing is off afterwards.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Enables observability: per-core cycle attribution, the interval
    /// metrics timeline, and synchronization histograms (see
    /// [`wisync_obs`]). Install before the first [`Machine::run`] so
    /// attribution covers the whole execution. Like fault injection's
    /// disabled path, enabling observability never perturbs the
    /// simulation: identical results with it on or off.
    pub fn enable_observability(&mut self, config: ObsConfig) {
        self.obs = Some(Box::new(ObsState::new(self.cores.len(), self.now, config)));
    }

    /// The observability state, if enabled. Attribution is closed up to
    /// the current cycle at the end of every [`Machine::run`].
    pub fn observability(&self) -> Option<&ObsState> {
        self.obs.as_deref()
    }

    fn record(&mut self, e: TraceEvent) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record_event(&e);
        }
    }

    // --- Observability hooks ----------------------------------------------
    //
    // All of these are no-ops when observability is off; when on, they
    // only append to `self.obs` (never read it, never touch timing).

    /// Streams the closed attribution spans into the trace sink (no-op
    /// unless observability, streaming, and a sink are all on). Cold:
    /// the hooks call this only at the store's drain watermark (or at
    /// end of run), so its dynamic dispatch amortizes over thousands of
    /// span closes and the bounded store still never fills on long runs.
    ///
    /// Once a bounded sink saturates, streaming is switched off for the
    /// rest of the run: every further span would be dropped at the sink
    /// anyway, so the store falls back to bounded retention and the
    /// instrumented run stops paying for spans nobody keeps.
    fn obs_flush_segments(&mut self) {
        if let (Some(o), Some(t)) = (self.obs.as_deref_mut(), self.trace.as_deref_mut()) {
            if o.stream_segments {
                if t.wants_segments() {
                    o.attrib.drain_segments(|segs| t.record_segments(segs));
                } else {
                    o.stream_segments = false;
                }
            }
        }
    }

    /// Closes `[now, t)` as compute (the inline ALU prefix of the
    /// current batch) and `[t, end)` as `bucket`.
    #[inline]
    fn obs_op(&mut self, core: usize, t: Cycle, end: Cycle, bucket: Bucket) {
        let now = self.now;
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        o.attrib.segment(core, now, t, Bucket::Compute);
        o.attrib.segment(core, t, end, bucket);
        if o.stream_segments && o.attrib.wants_drain() {
            self.obs_flush_segments();
        }
    }

    /// Closes `[now, t)` as compute and leaves `bucket` pending from
    /// `t` — for spans whose end is not yet known (channel waits,
    /// spin-waits): the gap closes when the core next advances.
    #[inline]
    fn obs_stall(&mut self, core: usize, t: Cycle, bucket: Bucket) {
        let now = self.now;
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        o.attrib.segment(core, now, t, Bucket::Compute);
        o.attrib.set_pending(core, bucket);
        if o.stream_segments && o.attrib.wants_drain() {
            self.obs_flush_segments();
        }
    }

    /// Closes the core's open span up to the current cycle with its
    /// pending bucket.
    #[inline]
    fn obs_sync(&mut self, core: usize) {
        let now = self.now;
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        o.attrib.advance_to(core, now);
        if o.stream_segments && o.attrib.wants_drain() {
            self.obs_flush_segments();
        }
    }

    /// Sets the core's pending bucket without closing anything.
    #[inline]
    fn obs_pending(&mut self, core: usize, bucket: Bucket) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.attrib.set_pending(core, bucket);
        }
    }

    /// Bumps the interval metrics timeline.
    #[inline]
    fn obs_timeline(&mut self, f: impl FnOnce(&mut Timeline)) {
        if let Some(o) = self.obs.as_deref_mut() {
            f(&mut o.timeline);
        }
    }

    /// Bumps the sync-episode recorder. Call sites are deliveries, tone
    /// completions, and RMW issue.
    #[inline]
    fn obs_episodes(&mut self, f: impl FnOnce(&mut Episodes)) {
        if let Some(o) = self.obs.as_deref_mut() {
            f(&mut o.episodes);
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Statistics accumulated so far (wireless stats are merged in when
    /// [`Machine::run`] returns).
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// The wired memory system (for warm-up pokes and inspection).
    pub fn mem_value(&self, addr: u64) -> u64 {
        self.mem.peek(addr)
    }

    /// Initializes a cached-memory word without timing (test/workload
    /// setup).
    pub fn mem_init(&mut self, addr: u64, value: u64) {
        self.mem.poke(addr, value);
    }

    /// Allocates `words` contiguous BM chunks for `pid`.
    ///
    /// Allocation happens at program load time in this simulator; the
    /// paper's allocation broadcast cost (§4.4) is off the measured path.
    ///
    /// # Errors
    ///
    /// See [`BmError`].
    pub fn bm_alloc(&mut self, pid: Pid, words: usize) -> Result<u64, BmError> {
        self.bm.alloc(pid, words)
    }

    /// Initializes a BM word without timing (setup).
    ///
    /// # Errors
    ///
    /// Translation/protection errors.
    pub fn bm_init(&mut self, pid: Pid, vaddr: u64, value: u64) -> Result<(), BmError> {
        self.bm.write(pid, vaddr, value)
    }

    /// Reads a BM word as `pid` (setup/assertions).
    ///
    /// # Errors
    ///
    /// Translation/protection errors.
    pub fn bm_value(&self, pid: Pid, vaddr: u64) -> Result<u64, BmError> {
        self.bm.read(pid, vaddr)
    }

    /// Allocates-and-arms a tone barrier at BM address `vaddr` of `pid`,
    /// with the given participating cores (§4.4: participation must be
    /// known when the tone barrier is allocated).
    ///
    /// # Errors
    ///
    /// BM translation errors; tone-table errors are surfaced as
    /// [`BmError::OutOfSpace`] (callers fall back to Data-channel
    /// barriers, §4.4).
    ///
    /// # Panics
    ///
    /// Panics if the machine kind has no Tone channel.
    pub fn arm_tone(
        &mut self,
        pid: Pid,
        vaddr: u64,
        participants: impl IntoIterator<Item = usize>,
    ) -> Result<(), BmError> {
        assert!(
            self.config.kind.has_tone(),
            "{} has no Tone channel",
            self.config.kind
        );
        let phys = self.bm.translate(pid, vaddr)?;
        let set: NodeSet = participants.into_iter().map(NodeId).collect();
        self.tone
            .allocate(phys as u64, set)
            .map_err(|_| BmError::OutOfSpace)
    }

    /// Loads `program` onto `core` under process `pid`. Cores run their
    /// program once; looping workloads encode iteration counts.
    ///
    /// # Panics
    ///
    /// Panics if the core index is out of range.
    pub fn load_program(&mut self, core: usize, pid: Pid, program: Program) {
        let decoded = DecodedProgram::decode(&program);
        let c = &mut self.cores[core];
        c.pid = pid;
        c.program = Some(program);
        c.decoded = Some(decoded);
        c.pc = 0;
        c.status = CoreStatus::Running;
        c.finish = None;
    }

    /// Sets a register of a core before running (per-thread parameters).
    pub fn set_reg(&mut self, core: usize, r: Reg, value: u64) {
        self.cores[core].regs[r.0 as usize] = value;
    }

    /// Reads a register of a core.
    pub fn reg(&self, core: usize, r: Reg) -> u64 {
        self.cores[core].regs[r.0 as usize]
    }

    /// Requests preemption of the thread on `core` (§5.2). The thread
    /// parks at its next instruction boundary: immediately if it is
    /// spin-waiting (the waiter registration is withdrawn), otherwise
    /// when its in-flight operation completes. An in-flight BM RMW is
    /// aborted with AFB = 1, exactly as an exception between the RMW and
    /// its AFB check would (§4.2.1).
    ///
    /// Call [`Machine::run`] to let the machine reach the boundary, then
    /// [`Machine::take_preempted`] to obtain the thread image.
    pub fn request_preempt(&mut self, core: usize) {
        self.cores[core].preempt_pending = true;
        if self.cores[core].status == CoreStatus::Sleeping {
            // Withdraw the spin-wait registration and park immediately.
            if let Some(info) = self.cores[core].wait {
                match info.space {
                    Space::Cached => self.mem.unregister_waiter(self.node(core), info.loc),
                    Space::Bm => {
                        self.bm_waiters[info.loc as usize].retain(|&c| c != core);
                    }
                }
            }
            self.park(core);
        }
    }

    /// Parks `core`'s thread (it re-executes its current instruction on
    /// resumption — for spin-waits that is exactly the re-check the
    /// paper's rescheduled thread would perform).
    fn park(&mut self, core: usize) {
        self.obs_sync(core);
        self.obs_pending(core, Bucket::Idle);
        if let Some(p) = self.cores[core].pending_rmw.take() {
            // §4.2.1: an exception while the wireless transfer is
            // outstanding sets AFB and aborts the transfer.
            self.cores[core].afb = true;
            if !self.cancel_tx(p.token) {
                // Mid-transmission: reinstate as aborted so the delivery
                // drops the write.
                self.cores[core].pending_rmw = Some(PendingRmw { aborted: true, ..p });
                // The delivery event will try to resume this core; the
                // parked status makes that a no-op.
            }
        }
        // An outstanding TSO store is already committed to the channel
        // and will perform globally; only the core-local bookkeeping is
        // discarded with the thread.
        self.cores[core].store_buffer = None;
        self.cores[core].drain_block = false;
        self.cores[core].status = CoreStatus::Preempted;
        self.cores[core].preempt_pending = false;
    }

    /// Takes the image of a parked thread off `core`, leaving the core
    /// idle.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NothingToTake`] if no thread is parked there
    /// (request preemption and run the machine first).
    pub fn take_preempted(&mut self, core: usize) -> Result<ThreadImage, ScheduleError> {
        if self.cores[core].status != CoreStatus::Preempted {
            return Err(ScheduleError::NothingToTake(core));
        }
        let c = &mut self.cores[core];
        let image = ThreadImage {
            pid: c.pid,
            program: c.program.take().expect("parked thread has a program"),
            pc: c.pc,
            regs: c.regs,
            afb: c.afb,
            origin_core: core,
        };
        c.decoded = None;
        c.status = CoreStatus::Idle;
        c.afb = false;
        c.wait = None;
        c.pending_load = None;
        Ok(image)
    }

    /// Reschedules a preempted thread onto `target` (the same core or,
    /// for threads not armed in any tone barrier, a different one —
    /// §5.2). The thread resumes at its saved program counter on the
    /// next [`Machine::run`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::CoreBusy`] if `target` holds another thread;
    /// [`ScheduleError::ToneArmed`] for a forbidden migration.
    pub fn resume_thread(
        &mut self,
        target: usize,
        image: ThreadImage,
    ) -> Result<(), ScheduleError> {
        match self.cores[target].status {
            CoreStatus::Idle | CoreStatus::Halted => {}
            _ => return Err(ScheduleError::CoreBusy(target)),
        }
        if target != image.origin_core && self.tone.armed_anywhere(NodeId(image.origin_core)) {
            return Err(ScheduleError::ToneArmed {
                origin: image.origin_core,
                target,
            });
        }
        let decoded = DecodedProgram::decode(&image.program);
        let c = &mut self.cores[target];
        c.pid = image.pid;
        c.program = Some(image.program);
        c.decoded = Some(decoded);
        c.pc = image.pc;
        c.regs = image.regs;
        c.afb = image.afb;
        c.status = CoreStatus::Running;
        c.finish = None;
        Ok(())
    }

    /// Runs until all loaded cores halt, deadlock, fault, or the cycle
    /// budget is exhausted. Returns the report; machine state is
    /// inspectable afterwards.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        // Baseline for the per-run deltas published to the process-wide
        // telemetry counters when this run returns (stats are cumulative
        // across runs on the same machine).
        let telemetry_base = (
            self.stats.tone_barriers,
            self.stats.rmw_successes,
            self.stats.dropped_sync_episodes,
            self.stats.data.mac_exhaustions,
        );
        // Kick off every loaded core.
        for i in 0..self.cores.len() {
            if self.cores[i].status == CoreStatus::Running && self.cores[i].program.is_some() {
                self.queue.push(self.now, Event::Resume(i));
            }
        }
        // Start the periodic replica-audit chain, if configured.
        if let Some(f) = self.fault.as_mut() {
            if let Some(period) = f.plan().audit_period {
                if f.audits_queued() == 0 {
                    f.audit_queued();
                    self.queue.push(self.now + period, Event::FaultAudit);
                }
            }
        }
        let deadline = Cycle(max_cycles);
        let mut outcome = RunOutcome::Completed;
        while let Some((at, ev)) = self.queue.pop() {
            if at > deadline {
                if matches!(ev, Event::FaultAudit) {
                    // The audit heartbeat alone must not turn a finished
                    // run into CycleLimit; the end-of-run audit below
                    // still reports any outstanding divergence.
                    if let Some(f) = self.fault.as_mut() {
                        f.audit_dequeued();
                    }
                    continue;
                }
                // Not yet due: put it back so a later run() continues
                // exactly where this one stopped.
                self.queue.push(at, ev);
                outcome = RunOutcome::CycleLimit;
                break;
            }
            if matches!(ev, Event::FaultAudit)
                && !self.cores.iter().any(|c| {
                    matches!(
                        c.status,
                        CoreStatus::Running | CoreStatus::Blocked | CoreStatus::Sleeping
                    )
                })
            {
                // Every core is done: the trailing audit heartbeat must
                // not stretch the measured completion time. It still
                // counts as an audit; final_fault_audit below reports
                // any outstanding divergence.
                if let Some(f) = self.fault.as_mut() {
                    f.audit_dequeued();
                    f.stats_mut().audits += 1;
                }
                continue;
            }
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.stats.sim_events += 1;
            self.dispatch(ev);
        }
        // Attribution runs through the last core's retirement, which can
        // trail the last processed event by the tail of a final ALU batch
        // (a `Halt` retires mid-batch without scheduling an event).
        let end = self
            .cores
            .iter()
            .filter_map(|c| c.finish)
            .fold(self.now, Cycle::max);
        if let Some(o) = self.obs.as_deref_mut() {
            o.finalize(end);
            self.stats.dropped_sync_episodes = o.episodes.dropped_total();
        }
        // Stream the spans finalize just closed before reading the
        // sink's drop count, so a streaming run's count is final.
        self.obs_flush_segments();
        if let Some(t) = self.trace.as_deref() {
            self.stats.dropped_trace_events = t.dropped();
        }
        self.final_fault_audit();
        let loaded = self
            .cores
            .iter()
            .filter(|c| !matches!(c.status, CoreStatus::Idle | CoreStatus::Preempted))
            .count();
        let halted = self
            .cores
            .iter()
            .filter(|c| c.status == CoreStatus::Halted)
            .count();
        let faulted = self.cores.iter().any(|c| c.status == CoreStatus::Faulted);
        if outcome == RunOutcome::Completed {
            if faulted {
                outcome = RunOutcome::Faulted;
            } else if halted < loaded {
                outcome = RunOutcome::Deadlock;
            }
        }
        let mut data_stats = self.data[0].stats().clone();
        for ch in &self.data[1..] {
            let s = ch.stats();
            data_stats.transfers += s.transfers;
            data_stats.collisions += s.collisions;
            data_stats.busy_cycles += s.busy_cycles;
            data_stats.mac_exhaustions += s.mac_exhaustions;
            data_stats.mac_grants += s.mac_grants;
            data_stats.token_pass_cycles += s.token_pass_cycles;
            data_stats.mac_mode_switches += s.mac_mode_switches;
            data_stats.latency.merge(&s.latency);
            data_stats.retries.merge(&s.retries);
        }
        self.stats.absorb_substrates(
            data_stats,
            *self.tone.stats(),
            self.mem.stats().clone(),
            self.now,
        );
        if let Some(f) = &self.fault {
            self.stats.fault_stats = f.stats().clone();
        }
        crate::telemetry::record_run(
            self.stats.tone_barriers - telemetry_base.0,
            self.stats.rmw_successes - telemetry_base.1,
            self.stats
                .dropped_sync_episodes
                .saturating_sub(telemetry_base.2),
            self.stats
                .data
                .mac_exhaustions
                .saturating_sub(telemetry_base.3),
        );
        RunReport {
            outcome,
            cycles: self.now,
            core_finish: self.cores.iter().map(|c| c.finish).collect(),
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Resume(core) => match self.cores[core].status {
                CoreStatus::Halted
                | CoreStatus::Faulted
                | CoreStatus::Idle
                | CoreStatus::Preempted => {}
                _ => {
                    if let Some((dst, addr)) = self.cores[core].pending_load.take() {
                        self.cores[core].regs[dst.0 as usize] = self.mem.peek(addr);
                    }
                    if self.cores[core].preempt_pending {
                        self.park(core);
                        return;
                    }
                    self.cores[core].status = CoreStatus::Running;
                    self.advance_core(core);
                }
            },
            Event::WaitCheck(core) => self.wait_check(core),
            Event::ChannelResolve(ch) => {
                let now = self.now;
                match self.data[ch].resolve(now) {
                    Resolution::Idle => {}
                    Resolution::Deferred(next_slots) => {
                        for s in next_slots {
                            self.queue.push(s, Event::ChannelResolve(ch));
                        }
                    }
                    Resolution::Started {
                        message,
                        complete_at,
                        retry_slots,
                        exhausted,
                        ..
                    } => {
                        if let Some(o) = self.obs.as_deref_mut() {
                            let busy = complete_at.saturating_since(now);
                            o.timeline.transfer(now, busy);
                            o.addr.transfer(message.msg.phys(), busy);
                        }
                        // Token policies: losers of a collision-free
                        // grant retry at the winner's completion, and
                        // starvation reports surface like backoff caps.
                        for n in exhausted {
                            self.record(TraceEvent::MacExhausted {
                                at: now,
                                channel: ch,
                                core: n.as_usize(),
                            });
                        }
                        for s in retry_slots {
                            self.queue.push(s, Event::ChannelResolve(ch));
                        }
                        self.queue
                            .push(complete_at, Event::Deliver(Box::new(message)));
                    }
                    Resolution::Collision {
                        retry_slots,
                        exhausted,
                        contenders,
                    } => {
                        let busy = self.config.wireless.collision_cycles;
                        if self.obs.is_some() {
                            // The collided frames are still queued for
                            // their retries, so peek their addresses
                            // (read-only; timing is untouched).
                            let physes: Vec<usize> = contenders
                                .iter()
                                .filter_map(|t| self.data[ch].peek(*t))
                                .map(|f| f.msg.phys())
                                .collect();
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.timeline.collision(now, busy);
                                o.episodes.collision();
                                for &p in &physes {
                                    o.addr.collision(p);
                                }
                                // The window's busy cycles are booked
                                // once — to the smallest contending
                                // address — so per-address busy sums to
                                // the channel's busy total.
                                if let Some(&p) = physes.iter().min() {
                                    o.addr.collision_busy(p, busy);
                                }
                            }
                        }
                        self.record(TraceEvent::Collision {
                            at: now,
                            channel: ch,
                        });
                        for n in exhausted {
                            self.record(TraceEvent::MacExhausted {
                                at: now,
                                channel: ch,
                                core: n.as_usize(),
                            });
                        }
                        for s in retry_slots {
                            self.queue.push(s, Event::ChannelResolve(ch));
                        }
                    }
                }
            }
            Event::Deliver(frame) => self.deliver(*frame),
            Event::ToneComplete { phys } => self.tone_complete(phys),
            Event::ToneObserve { core, phys } => self.tone_observe_late(core, phys),
            Event::FaultAudit => self.fault_audit(),
        }
    }

    // --- Core execution ---------------------------------------------------

    fn fault(&mut self, core: usize, reason: String) {
        // A faulted core's remaining cycles (including the ALU prefix of
        // the faulting batch) count as idle.
        self.obs_pending(core, Bucket::Idle);
        self.cores[core].status = CoreStatus::Faulted;
        self.stats.faults.push(FaultRecord::Exec { core, reason });
    }

    fn node(&self, core: usize) -> NodeId {
        NodeId(core)
    }

    /// Reads physical BM word `phys` as `core`'s replica holds it: the
    /// canonical value, unless fault injection has diverged this replica.
    fn bm_read(&self, core: usize, phys: usize) -> u64 {
        let canonical = self.bm.read_phys(phys);
        match &self.fault {
            Some(f) => f.read(core, phys, canonical),
            None => canonical,
        }
    }

    /// Executes instructions for `core` starting at the current time,
    /// until a run boundary or the inline batch limit, via the
    /// configured interpreter. Both modes retire the same instructions
    /// at the same cycles and schedule identical events —
    /// [`ExecMode::Uop`] just does it without per-instruction decode.
    fn advance_core(&mut self, core: usize) {
        match self.config.exec {
            ExecMode::Uop => self.advance_core_uop(core),
            ExecMode::Reference => self.advance_core_ref(core),
        }
    }

    /// Micro-op fast path: walks the core's pre-decoded program in a
    /// tight loop that touches only the register file and the program
    /// counter ([`uop_inline_run`]), then settles time and stats in bulk
    /// at the run boundary or the batch cap ([`Machine::commit_uop_run`]).
    fn advance_core_uop(&mut self, core: usize) {
        self.obs_sync(core);
        let run = uop_inline_run(&mut self.cores[core]);
        self.commit_uop_run(core, run);
    }

    /// Settles time, stats, obs, and the run-ending boundary of an
    /// executed inline prefix (see [`uop_inline_run`]): everything the
    /// run does to state outside its own core happens here.
    fn commit_uop_run(&mut self, core: usize, run: UopRun) {
        self.stats.instructions += run.n;
        let t = self.now + run.n;
        let pc = self.cores[core].pc;
        match run.end {
            RunEnd::Cap => self.yield_core(core, t),
            // Specialized cached load/store: the dominant boundary in
            // compute-heavy profiles, executed here without refetching
            // and re-matching the original `Instr`. Must mirror the
            // `Space::Cached` arms of `exec_boundary` exactly.
            RunEnd::Ld { dst, base, offset } => {
                self.stats.instructions += 1;
                let addr = self.cores[core].regs[(base & 31) as usize].wrapping_add(offset as u64);
                let o = self.mem.access(self.node(core), addr, MemOp::Load, t);
                // The value is read when the line arrives.
                self.cores[core].pending_load = Some((Reg(dst), addr));
                self.cores[core].pc = pc + 1;
                self.obs_op(core, t, o.complete_at, Bucket::MemStall);
                self.block_until(core, o.complete_at);
            }
            RunEnd::St { src, base, offset } => {
                self.stats.instructions += 1;
                let c = &self.cores[core];
                let addr = c.regs[(base & 31) as usize].wrapping_add(offset as u64);
                let value = c.regs[(src & 31) as usize];
                let o = self
                    .mem
                    .access(self.node(core), addr, MemOp::Store(value), t);
                for (w, at) in &o.woken {
                    self.queue.push(*at, Event::Resume(w.as_usize()));
                }
                self.cores[core].pc = pc + 1;
                self.obs_op(core, t, o.complete_at, Bucket::MemStall);
                self.block_until(core, o.complete_at);
            }
            RunEnd::Boundary => {
                // Any other boundary instruction executes through the
                // event-driven path, refetched from the original
                // instruction stream.
                self.stats.instructions += 1;
                let instr = self.cores[core]
                    .program
                    .as_ref()
                    .expect("running core has a program")
                    .fetch(pc);
                self.exec_boundary(core, instr, pc, t);
            }
        }
    }

    /// Reference interpreter: per-`Instr` decode and dispatch, kept as
    /// the executable specification the micro-op path is differentially
    /// tested against.
    fn advance_core_ref(&mut self, core: usize) {
        self.obs_sync(core);
        let mut t = self.now;
        let mut batched = 0u64;
        loop {
            let (pc, instr) = {
                let c = &self.cores[core];
                let program = c.program.as_ref().expect("running core has a program");
                (c.pc, program.fetch(c.pc))
            };
            macro_rules! regs {
                ($r:expr) => {
                    self.cores[core].regs[$r.0 as usize]
                };
            }
            self.stats.instructions += 1;
            match instr {
                // --- ALU: executed inline, 1 cycle each -------------------
                Instr::Li { dst, imm } => {
                    regs!(dst) = imm;
                }
                Instr::Mov { dst, src } => {
                    regs!(dst) = regs!(src);
                }
                Instr::Add { dst, a, b } => regs!(dst) = regs!(a).wrapping_add(regs!(b)),
                Instr::Addi { dst, a, imm } => regs!(dst) = regs!(a).wrapping_add(imm),
                Instr::Sub { dst, a, b } => regs!(dst) = regs!(a).wrapping_sub(regs!(b)),
                Instr::Mul { dst, a, b } => regs!(dst) = regs!(a).wrapping_mul(regs!(b)),
                Instr::And { dst, a, b } => regs!(dst) = regs!(a) & regs!(b),
                Instr::Or { dst, a, b } => regs!(dst) = regs!(a) | regs!(b),
                Instr::Xor { dst, a, b } => regs!(dst) = regs!(a) ^ regs!(b),
                Instr::Shl { dst, a, b } => regs!(dst) = regs!(a) << (regs!(b) & 63),
                Instr::Shr { dst, a, b } => regs!(dst) = regs!(a) >> (regs!(b) & 63),
                Instr::CmpEq { dst, a, b } => regs!(dst) = (regs!(a) == regs!(b)) as u64,
                Instr::CmpLt { dst, a, b } => regs!(dst) = (regs!(a) < regs!(b)) as u64,
                Instr::ReadAfb { dst } => {
                    let v = self.cores[core].afb as u64;
                    regs!(dst) = v;
                }
                Instr::ReadWcb { dst } => {
                    // 1 once the last BM store/RMW has completed. Under
                    // SC stores block, so this is always 1; under TSO it
                    // reflects the store buffer.
                    regs!(dst) = self.cores[core].store_buffer.is_none() as u64;
                }
                Instr::Jump { target } => {
                    self.cores[core].pc = target.0 as usize;
                    t += 1;
                    batched += 1;
                    if batched >= MAX_BATCH {
                        self.yield_core(core, t);
                        return;
                    }
                    continue;
                }
                Instr::Beqz { cond, target } => {
                    let taken = regs!(cond) == 0;
                    self.cores[core].pc = if taken { target.0 as usize } else { pc + 1 };
                    t += 1;
                    batched += 1;
                    if batched >= MAX_BATCH {
                        self.yield_core(core, t);
                        return;
                    }
                    continue;
                }
                Instr::Bnez { cond, target } => {
                    let taken = regs!(cond) != 0;
                    self.cores[core].pc = if taken { target.0 as usize } else { pc + 1 };
                    t += 1;
                    batched += 1;
                    if batched >= MAX_BATCH {
                        self.yield_core(core, t);
                        return;
                    }
                    continue;
                }

                // --- Run boundaries: event-driven path --------------------
                other => {
                    self.exec_boundary(core, other, pc, t);
                    return;
                }
            }
            // Fallthrough for 1-cycle inline instructions.
            self.cores[core].pc = pc + 1;
            t += 1;
            batched += 1;
            if batched >= MAX_BATCH {
                self.yield_core(core, t);
                return;
            }
        }
    }

    /// Executes the run-boundary instruction `instr` — the one at `pc`,
    /// reached at time `t` after the run's inline prefix — through the
    /// event-driven path. Shared by both interpreters. The caller has
    /// already counted the instruction itself in `stats.instructions`;
    /// only `Compute`'s bulk-cycle surcharge is added here.
    fn exec_boundary(&mut self, core: usize, instr: Instr, pc: usize, t: Cycle) {
        macro_rules! regs {
            ($r:expr) => {
                self.cores[core].regs[$r.0 as usize]
            };
        }
        match instr {
            Instr::Compute { cycles } => {
                self.stats.instructions += cycles.saturating_sub(1);
                self.cores[core].pc = pc + 1;
                let end = t + cycles.max(1);
                self.obs_op(core, t, end, Bucket::Compute);
                self.block_until(core, end);
            }
            Instr::Ld {
                dst,
                base,
                offset,
                space,
            } => {
                let addr = regs!(base).wrapping_add(offset);
                match space {
                    Space::Cached => {
                        let o = self.mem.access(self.node(core), addr, MemOp::Load, t);
                        // The value is read when the line arrives.
                        self.cores[core].pending_load = Some((dst, addr));
                        self.cores[core].pc = pc + 1;
                        self.obs_op(core, t, o.complete_at, Bucket::MemStall);
                        self.block_until(core, o.complete_at);
                    }
                    Space::Bm => match self.bm_translate(core, addr) {
                        Ok(phys) => {
                            // TSO store forwarding: a load to the
                            // address of the in-flight store reads
                            // the buffered value (§4.2.1).
                            let v = match self.cores[core].store_buffer {
                                Some((p, val)) if p == phys => val,
                                _ => self.bm_read(core, phys),
                            };
                            regs!(dst) = v;
                            self.stats.bm_loads += 1;
                            self.obs_timeline(|tl| tl.bm_load(t, 1));
                            self.cores[core].pc = pc + 1;
                            let end = t + self.config.bm_rt;
                            self.obs_op(core, t, end, Bucket::MemStall);
                            self.block_until(core, end);
                        }
                        Err(e) => self.fault(core, e.to_string()),
                    },
                }
            }
            Instr::St {
                src,
                base,
                offset,
                space,
            } => {
                let addr = regs!(base).wrapping_add(offset);
                let value = regs!(src);
                match space {
                    Space::Cached => {
                        let o = self
                            .mem
                            .access(self.node(core), addr, MemOp::Store(value), t);
                        for (w, at) in &o.woken {
                            self.queue.push(*at, Event::Resume(w.as_usize()));
                        }
                        self.cores[core].pc = pc + 1;
                        self.obs_op(core, t, o.complete_at, Bucket::MemStall);
                        self.block_until(core, o.complete_at);
                    }
                    Space::Bm => match self.bm_translate(core, addr) {
                        Ok(phys) => {
                            if self.cores[core].store_buffer.is_some() {
                                // Depth-1 store buffer: drain first,
                                // then re-execute this store.
                                self.cores[core].drain_block = true;
                                self.cores[core].status = CoreStatus::Blocked;
                                self.obs_stall(core, t, Bucket::ChannelWait);
                                return;
                            }
                            self.stats.bm_stores += 1;
                            self.obs_timeline(|tl| tl.bm_store(t, 1));
                            self.request_tx(
                                core,
                                TxLen::Normal,
                                WirelessMsg::BmWrite { phys, value, core },
                                t + 1,
                            );
                            self.cores[core].pc = pc + 1;
                            match self.config.bm_consistency {
                                BmConsistency::Sc => {
                                    self.cores[core].drain_block = true;
                                    self.cores[core].status = CoreStatus::Blocked;
                                    self.cores[core].store_buffer = Some((phys, value));
                                    self.obs_stall(core, t, Bucket::ChannelWait);
                                }
                                BmConsistency::Tso => {
                                    // Continue past the store.
                                    self.cores[core].store_buffer = Some((phys, value));
                                    self.obs_op(core, t, t + 1, Bucket::Compute);
                                    self.block_until(core, t + 1);
                                }
                            }
                        }
                        Err(e) => self.fault(core, e.to_string()),
                    },
                }
            }
            Instr::Rmw {
                kind,
                dst,
                base,
                offset,
                space,
            } => {
                let addr = regs!(base).wrapping_add(offset);
                match space {
                    Space::Cached => {
                        let rk = self.rmw_kind(core, kind);
                        self.stats.note_rmw_attempt(kind);
                        let o = self.mem.access(self.node(core), addr, MemOp::Rmw(rk), t);
                        if o.rmw_success {
                            self.stats.note_rmw_success(kind);
                        }
                        regs!(dst) = o.value;
                        for (w, at) in &o.woken {
                            self.queue.push(*at, Event::Resume(w.as_usize()));
                        }
                        self.cores[core].pc = pc + 1;
                        self.obs_op(core, t, o.complete_at, Bucket::MemStall);
                        self.block_until(core, o.complete_at);
                    }
                    Space::Bm => {
                        self.exec_bm_rmw(core, kind, dst, addr, t);
                    }
                }
            }
            Instr::BulkLd { dst, base, offset } => {
                let addr = regs!(base).wrapping_add(offset);
                match self.bm_translate_run(core, addr, 4) {
                    Ok(phys) => {
                        for k in 0..4usize {
                            let v = self.bm_read(core, phys + k);
                            self.cores[core].regs[dst.0 as usize + k] = v;
                        }
                        self.stats.bm_loads += 4;
                        self.obs_timeline(|tl| tl.bm_load(t, 4));
                        self.cores[core].pc = pc + 1;
                        // Four pipelined local reads.
                        let end = t + self.config.bm_rt + 3;
                        self.obs_op(core, t, end, Bucket::MemStall);
                        self.block_until(core, end);
                    }
                    Err(e) => self.fault(core, e.to_string()),
                }
            }
            Instr::BulkSt { src, base, offset } => {
                let addr = regs!(base).wrapping_add(offset);
                if self.cores[core].store_buffer.is_some() {
                    self.cores[core].drain_block = true;
                    self.cores[core].status = CoreStatus::Blocked;
                    self.obs_stall(core, t, Bucket::ChannelWait);
                    return;
                }
                match self.bm_translate_run(core, addr, 4) {
                    Ok(phys) => {
                        let mut values = [0u64; 4];
                        for (k, v) in values.iter_mut().enumerate() {
                            *v = self.cores[core].regs[src.0 as usize + k];
                        }
                        self.stats.bm_stores += 4;
                        self.obs_timeline(|tl| tl.bm_store(t, 4));
                        self.request_tx(
                            core,
                            TxLen::Bulk,
                            WirelessMsg::Bulk { phys, values, core },
                            t + 1,
                        );
                        self.cores[core].pc = pc + 1;
                        // Bulk transfers are uninterruptible (§4.3.4):
                        // they block the core under both models.
                        self.cores[core].drain_block = true;
                        self.cores[core].status = CoreStatus::Blocked;
                        self.obs_stall(core, t, Bucket::ChannelWait);
                    }
                    Err(e) => self.fault(core, e.to_string()),
                }
            }
            Instr::ToneSt { base, offset } => {
                let addr = regs!(base).wrapping_add(offset);
                self.exec_tone_st(core, addr, t);
            }
            Instr::ToneLd { dst, base, offset } => {
                let addr = regs!(base).wrapping_add(offset);
                match self.bm_translate(core, addr) {
                    Ok(phys) => {
                        let v = self.bm_read(core, phys);
                        regs!(dst) = v;
                        self.cores[core].pc = pc + 1;
                        let end = t + self.config.bm_rt;
                        self.obs_op(core, t, end, Bucket::MemStall);
                        self.block_until(core, end);
                    }
                    Err(e) => self.fault(core, e.to_string()),
                }
            }
            Instr::WaitWhile {
                cond,
                base,
                offset,
                value,
                space,
            } => {
                let addr = regs!(base).wrapping_add(offset);
                let v = regs!(value);
                match space {
                    Space::Cached => {
                        // Timed (possibly contended) load; the value is
                        // re-checked at completion.
                        let o = self.mem.access(self.node(core), addr, MemOp::Load, t);
                        self.cores[core].wait = Some(WaitInfo {
                            cond,
                            space,
                            loc: addr,
                            value: v,
                        });
                        self.cores[core].status = CoreStatus::Blocked;
                        self.obs_stall(core, t, Bucket::BarrierWait);
                        self.queue.push(o.complete_at, Event::WaitCheck(core));
                    }
                    Space::Bm => match self.bm_translate(core, addr) {
                        Ok(phys) => {
                            self.cores[core].wait = Some(WaitInfo {
                                cond,
                                space,
                                loc: phys as u64,
                                value: v,
                            });
                            self.cores[core].status = CoreStatus::Blocked;
                            self.obs_stall(core, t, Bucket::BarrierWait);
                            self.queue
                                .push(t + self.config.bm_rt, Event::WaitCheck(core));
                        }
                        Err(e) => self.fault(core, e.to_string()),
                    },
                }
            }
            Instr::Halt => {
                if self.cores[core].store_buffer.is_some() {
                    // Retire only after the outstanding BM store
                    // performs (its effects must be globally visible).
                    self.cores[core].drain_block = true;
                    self.cores[core].status = CoreStatus::Blocked;
                    self.obs_stall(core, t, Bucket::ChannelWait);
                    return;
                }
                self.cores[core].status = CoreStatus::Halted;
                self.cores[core].finish = Some(t);
                self.obs_stall(core, t, Bucket::Idle);
                self.record(TraceEvent::Halted { at: t, core });
            }
            _ => unreachable!("inline instruction {instr:?} is not a run boundary"),
        }
    }

    fn yield_core(&mut self, core: usize, at: Cycle) {
        // The whole exhausted batch was inline ALU work.
        self.obs_op(core, at, at, Bucket::Compute);
        self.cores[core].status = CoreStatus::Blocked;
        self.queue.push(at, Event::Resume(core));
    }

    fn block_until(&mut self, core: usize, at: Cycle) {
        self.cores[core].status = CoreStatus::Blocked;
        self.queue.push(at, Event::Resume(core));
    }

    fn rmw_kind(&self, core: usize, kind: RmwSpec) -> RmwKind {
        let r = |reg: Reg| self.cores[core].regs[reg.0 as usize];
        match kind {
            RmwSpec::Cas { expected, new } => RmwKind::Cas {
                expected: r(expected),
                new: r(new),
            },
            RmwSpec::Swap { src } => RmwKind::Swap(r(src)),
            RmwSpec::FetchAdd { src } => RmwKind::FetchAdd(r(src)),
            RmwSpec::FetchInc => RmwKind::FetchAdd(1),
            RmwSpec::TestSet => RmwKind::TestSet,
        }
    }

    fn bm_translate(&mut self, core: usize, vaddr: u64) -> Result<usize, BmError> {
        if !self.config.kind.has_bm() {
            return Err(BmError::UnmappedAddress {
                pid: self.cores[core].pid,
                vaddr,
            });
        }
        self.bm.translate(self.cores[core].pid, vaddr)
    }

    /// Translates a run of `words` consecutive BM words (Bulk access).
    fn bm_translate_run(
        &mut self,
        core: usize,
        vaddr: u64,
        words: usize,
    ) -> Result<usize, BmError> {
        let first = self.bm_translate(core, vaddr)?;
        for k in 1..words {
            let p = self.bm_translate(core, vaddr + 8 * k as u64)?;
            if p != first + k {
                return Err(BmError::UnmappedAddress {
                    pid: self.cores[core].pid,
                    vaddr: vaddr + 8 * k as u64,
                });
            }
        }
        Ok(first)
    }

    /// The Data channel that carries messages for physical BM index
    /// `phys` (interleaved when more than one channel is configured).
    fn channel_of(&self, phys: usize) -> usize {
        phys % self.data.len()
    }

    fn request_tx(&mut self, core: usize, len: TxLen, msg: WirelessMsg, at: Cycle) -> TxToken {
        self.request_frame(core, len, TxFrame { msg, attempt: 0 }, at)
    }

    fn request_frame(&mut self, core: usize, len: TxLen, frame: TxFrame, at: Cycle) -> TxToken {
        let ch = self.channel_of(frame.msg.phys());
        let node = self.node(core);
        let (token, slot) = self.data[ch].request(node, len, frame, at);
        // Channel invariant: every request is issued at least one cycle
        // after the instruction or delivery that makes it, and no MAC
        // slots a request before its issue cycle, so arbitration always
        // resolves strictly after the current cycle — never at a cycle
        // the run loop has already entered.
        debug_assert!(
            slot > self.now,
            "channel arbitration scheduled at {slot:?} within the current cycle {:?}",
            self.now
        );
        self.queue.push(slot, Event::ChannelResolve(ch));
        token
    }

    fn exec_bm_rmw(&mut self, core: usize, kind: RmwSpec, dst: Reg, vaddr: u64, t: Cycle) {
        if self.cores[core].store_buffer.is_some() {
            // RMWs are ordered behind the outstanding store: drain first,
            // then re-execute.
            self.cores[core].drain_block = true;
            self.cores[core].status = CoreStatus::Blocked;
            self.obs_stall(core, t, Bucket::ChannelWait);
            return;
        }
        let phys = match self.bm_translate(core, vaddr) {
            Ok(p) => p,
            Err(e) => {
                self.fault(core, e.to_string());
                return;
            }
        };
        self.stats.note_rmw_attempt(kind);
        self.obs_timeline(|tl| tl.rmw_attempt(t));
        let old = self.bm_read(core, phys);
        self.cores[core].regs[dst.0 as usize] = old;
        let rk = self.rmw_kind(core, kind);
        let (new, writes) = match rk {
            RmwKind::Cas { expected, new } => (new, old == expected),
            RmwKind::Swap(v) => (v, true),
            RmwKind::FetchAdd(d) => (old.wrapping_add(d), true),
            RmwKind::TestSet => (1, true),
        };
        self.cores[core].afb = false;
        if !writes {
            // CAS comparison failed: no broadcast, no atomicity window.
            self.obs_episodes(|e| e.rmw_fail(phys));
            self.cores[core].pc += 1;
            let end = t + self.config.bm_rt;
            self.obs_op(core, t, end, Bucket::MemStall);
            self.block_until(core, end);
            return;
        }
        let token = self.request_tx(
            core,
            TxLen::Normal,
            WirelessMsg::BmRmwWrite {
                phys,
                value: new,
                core,
            },
            t + self.config.bm_rt,
        );
        self.cores[core].pending_rmw = Some(PendingRmw {
            phys,
            token,
            is_cas: matches!(kind, RmwSpec::Cas { .. }),
            aborted: false,
        });
        self.cores[core].pc += 1;
        self.cores[core].status = CoreStatus::Blocked;
        self.obs_stall(core, t, Bucket::ChannelWait);
    }

    fn exec_tone_st(&mut self, core: usize, vaddr: u64, t: Cycle) {
        if !self.config.kind.has_tone() {
            self.fault(
                core,
                format!("tone_st on {} (no Tone channel)", self.config.kind),
            );
            return;
        }
        let phys = match self.bm_translate(core, vaddr) {
            Ok(p) => p,
            Err(e) => {
                self.fault(core, e.to_string());
                return;
            }
        };
        let key = phys as u64;
        // The arriving core must be armed (§4.4).
        match self.tone.armed(key) {
            Ok(set) if set.contains(self.node(core)) => {}
            Ok(_) => {
                self.fault(core, format!("core {core} not armed for tone barrier"));
                return;
            }
            Err(e) => {
                self.fault(core, e.to_string());
                return;
            }
        }
        if self.tone.is_active(key) {
            match self.tone.arrive(key, self.node(core)) {
                Ok(all) => {
                    if all {
                        let slot = self
                            .tone
                            .completion_slot(key, t)
                            .expect("active barrier has a slot");
                        self.queue.push(slot, Event::ToneComplete { phys });
                    }
                }
                Err(e) => {
                    self.fault(core, e.to_string());
                    return;
                }
            }
        } else {
            // Barrier not active yet. The first arrival (in this episode)
            // broadcasts the init; arrivals while it is in flight are
            // recorded and applied at delivery (see [`ToneInitPending`]).
            let pending = &mut self.tone_init[phys];
            let first = !pending.in_flight;
            pending.in_flight = true;
            pending.early.push(core);
            if first {
                self.request_tx(
                    core,
                    TxLen::Normal,
                    WirelessMsg::ToneInit { phys, core },
                    t + 1,
                );
            }
        }
        // tone_st is fire-and-forget: the core proceeds (to its spin).
        if let Some(o) = self.obs.as_deref_mut() {
            o.barrier_arrive(core, phys, t);
        }
        self.obs_op(core, t, t + 1, Bucket::Compute);
        self.cores[core].pc += 1;
        self.block_until(core, t + 1);
    }

    // --- Deliveries ---------------------------------------------------------

    /// Fails the pending RMWs of every core other than `writer` that
    /// targets `phys` (§4.2.1: incoming stores are compared against
    /// pending RMW addresses).
    fn break_conflicting_rmws(&mut self, phys: usize, writer: usize, at: Cycle) {
        for i in 0..self.cores.len() {
            if i == writer {
                continue;
            }
            let Some(p) = self.cores[i].pending_rmw else {
                continue;
            };
            if p.phys != phys {
                continue;
            }
            self.cores[i].afb = true;
            self.stats.bm_rmw_atomicity_failures += 1;
            self.obs_timeline(|tl| tl.rmw_failure(at));
            self.obs_episodes(|e| e.rmw_fail(phys));
            self.record(TraceEvent::RmwAborted { at, core: i, phys });
            // Hold the failed instruction for an exponentially-backed-off
            // wait before software sees the AFB (§5.3).
            let exp = self.cores[i].rmw_exp.min(10);
            let wait = self.rng.gen_range(1 << exp);
            self.cores[i].rmw_exp = (self.cores[i].rmw_exp + 1).min(10);
            if self.cancel_tx(p.token) {
                // The write never reaches the network: the RMW completes
                // without its write (WCB sets, AFB=1).
                self.cores[i].pending_rmw = None;
                // The victim's channel wait ends here; it now sits in the
                // §5.3 backoff window until its resume.
                self.obs_sync(i);
                self.obs_pending(i, Bucket::MacBackoff);
                self.queue.push(at + wait, Event::Resume(i));
            } else {
                // Already transmitting: drop the write at delivery.
                self.cores[i].pending_rmw = Some(PendingRmw { aborted: true, ..p });
            }
        }
    }

    /// Cancels a queued transmission on whichever channel holds it.
    fn cancel_tx(&mut self, token: TxToken) -> bool {
        self.data.iter_mut().any(|ch| ch.cancel(token).is_some())
    }

    fn wake_bm_waiters(&mut self, phys: usize, at: Cycle) {
        // Take the list out so the borrow of `self.queue` is free, then
        // hand the (cleared) allocation back for reuse. Nothing in the
        // loop re-registers a waiter for `phys`, so no entries are lost.
        let mut ws = std::mem::take(&mut self.bm_waiters[phys]);
        for &w in &ws {
            self.queue.push(at, Event::Resume(w));
        }
        ws.clear();
        self.bm_waiters[phys] = ws;
    }

    fn deliver(&mut self, frame: TxFrame) {
        if frame.attempt > 0 {
            self.deliver_retransmit(frame);
            return;
        }
        let at = self.now;
        match frame.msg {
            WirelessMsg::BmWrite { phys, value, core } => {
                self.record(TraceEvent::Delivered {
                    at,
                    core,
                    phys,
                    kind: "store",
                });
                let before = self.bm.read_phys(phys);
                self.bm.write_phys(phys, value);
                // Guarded: after a preemption this core may already host
                // another thread with its own in-flight store.
                if self.cores[core].store_buffer == Some((phys, value)) {
                    self.cores[core].store_buffer = None;
                }
                // A plain store by the current holder releases the lock
                // (recorded before the atomicity breaks it causes).
                self.obs_episodes(|e| e.store_release(phys, core, at));
                self.break_conflicting_rmws(phys, core, at);
                self.wake_bm_waiters(phys, at);
                if self.cores[core].drain_block {
                    self.cores[core].drain_block = false;
                    self.queue.push(at, Event::Resume(core));
                }
                self.fault_rx_pass(core, frame, TxLen::Normal, &[(phys, before, value)], at);
            }
            WirelessMsg::BmRmwWrite { phys, value, core } => {
                let Some(pending) = self.cores[core].pending_rmw.take() else {
                    // The thread was preempted and its RMW cancelled
                    // between transmission start and delivery.
                    return;
                };
                debug_assert_eq!(pending.phys, phys);
                if pending.aborted || self.cores[core].afb {
                    // Atomicity failed mid-flight: the write is dropped.
                    let exp = self.cores[core].rmw_exp.min(10);
                    let wait = self.rng.gen_range(1 << exp);
                    if self.cores[core].status == CoreStatus::Blocked {
                        // Still blocked on this RMW (not preempted away):
                        // it now waits out the §5.3 backoff window.
                        self.obs_sync(core);
                        self.obs_pending(core, Bucket::MacBackoff);
                    }
                    self.queue.push(at + wait, Event::Resume(core));
                    return;
                }
                self.record(TraceEvent::Delivered {
                    at,
                    core,
                    phys,
                    kind: "rmw",
                });
                let before = self.bm.read_phys(phys);
                self.bm.write_phys(phys, value);
                self.cores[core].rmw_exp = self.cores[core].rmw_exp.saturating_sub(1);
                self.stats.note_bm_rmw_committed(pending.is_cas);
                // The committed RMW acquires the address; the atomicity
                // failures it inflicts below attach to the new hold.
                self.obs_episodes(|e| e.rmw_commit(phys, core, at));
                self.break_conflicting_rmws(phys, core, at);
                self.wake_bm_waiters(phys, at);
                self.queue.push(at, Event::Resume(core));
                self.fault_rx_pass(core, frame, TxLen::Normal, &[(phys, before, value)], at);
            }
            WirelessMsg::Bulk { phys, values, core } => {
                self.record(TraceEvent::Delivered {
                    at,
                    core,
                    phys,
                    kind: "bulk",
                });
                let mut words = [(0usize, 0u64, 0u64); 4];
                for (k, w) in words.iter_mut().enumerate() {
                    *w = (phys + k, self.bm.read_phys(phys + k), values[k]);
                }
                for (k, v) in values.iter().enumerate() {
                    self.bm.write_phys(phys + k, *v);
                    self.obs_episodes(|e| e.store_release(phys + k, core, at));
                    self.break_conflicting_rmws(phys + k, core, at);
                    self.wake_bm_waiters(phys + k, at);
                }
                if self.cores[core].drain_block {
                    self.cores[core].drain_block = false;
                    self.queue.push(at, Event::Resume(core));
                }
                self.fault_rx_pass(core, frame, TxLen::Bulk, &words, at);
            }
            WirelessMsg::Resync { phys, .. } => {
                self.record(TraceEvent::Delivered {
                    at,
                    core: 0,
                    phys,
                    kind: "resync",
                });
                // Resync frames are the recovery mechanism itself, so
                // they are modelled as robust (heavily coded): every
                // replica of `phys` converges on the canonical value —
                // except cores whose transceiver is off, which stay
                // diverged and keep the audit chain alive until their
                // outage ends.
                if let Some(f) = self.fault.as_mut() {
                    for core in 0..self.cores.len() {
                        if !f.in_dropout(core, at) {
                            f.converge(core, phys);
                        }
                    }
                }
                self.wake_bm_waiters(phys, at);
            }
            WirelessMsg::ToneInit { phys, core } => {
                self.record(TraceEvent::Delivered {
                    at,
                    core,
                    phys,
                    kind: "tone-init",
                });
                let key = phys as u64;
                let mut early = std::mem::take(&mut self.tone_init[phys].early);
                self.tone_init[phys].in_flight = false;
                if !self.tone.is_active(key) {
                    self.tone
                        .activate(key, at)
                        .expect("armed barrier activates");
                    self.record(TraceEvent::ToneActivated { at, phys });
                }
                let mut all = false;
                for &e in &early {
                    all = self
                        .tone
                        .arrive(key, NodeId(e))
                        .expect("early arrival is armed");
                }
                early.clear();
                self.tone_init[phys].early = early;
                if all {
                    let slot = self
                        .tone
                        .completion_slot(key, at)
                        .expect("active barrier has a slot");
                    self.queue.push(slot, Event::ToneComplete { phys });
                }
            }
        }
    }

    /// Receiver-side fault pass for a delivered Data-channel frame: every
    /// core other than the sender (whose reception is core-local, not
    /// wireless) draws an outcome — deaf inside a dropout window, a
    /// checksum reject, or a silently corrupted replica. Any reject makes
    /// the sender retransmit, up to the plan's budget.
    fn fault_rx_pass(
        &mut self,
        sender: usize,
        frame: TxFrame,
        len: TxLen,
        words: &[(usize, u64, u64)],
        at: Cycle,
    ) {
        let Some(mut f) = self.fault.take() else {
            return;
        };
        let phys0 = words[0].0;
        let ch = self.channel_of(phys0);
        let bulk = matches!(len, TxLen::Bulk);
        let cores = self.cores.len();
        let mut any_reject = false;
        for core in 0..cores {
            if core == sender {
                continue;
            }
            let outcome = f.rx(core, ch, cores, bulk, at);
            if matches!(outcome, RxOutcome::Reject) {
                any_reject = true;
                self.record(TraceEvent::ChecksumReject {
                    at,
                    core,
                    phys: phys0,
                });
            }
            f.apply_rx(core, outcome, words);
        }
        if any_reject {
            let attempt = frame.attempt + 1;
            if attempt <= f.plan().max_retransmits {
                f.stats_mut().retransmits += 1;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.timeline.retransmit(at);
                    o.addr.retransmit(phys0);
                    o.episodes.retransmit();
                }
                self.record(TraceEvent::Retransmit {
                    at,
                    core: sender,
                    phys: phys0,
                    attempt,
                });
                self.fault = Some(f);
                self.request_frame(sender, len, TxFrame { attempt, ..frame }, at + 1);
            } else {
                f.stats_mut().retransmits_exhausted += 1;
                self.stats.faults.push(FaultRecord::RetransmitExhausted {
                    core: sender,
                    phys: phys0,
                });
                self.fault = Some(f);
            }
        } else {
            self.fault = Some(f);
        }
        self.arm_audit(at);
    }

    /// Delivers a fault-recovery retransmit. The canonical BM already
    /// holds the payload (the first attempt performed the write), so this
    /// pass only converges replicas that missed earlier attempts; a
    /// replica that misses the retransmit too keeps its stale value for
    /// the audit to find. Program-visible state is untouched.
    fn deliver_retransmit(&mut self, frame: TxFrame) {
        let at = self.now;
        let (sender, len, words) = match frame.msg {
            WirelessMsg::BmWrite { phys, core, .. }
            | WirelessMsg::BmRmwWrite { phys, core, .. } => {
                let cur = self.bm.read_phys(phys);
                (core, TxLen::Normal, vec![(phys, cur, cur)])
            }
            WirelessMsg::Bulk { phys, core, .. } => {
                let words = (0..4)
                    .map(|k| {
                        let cur = self.bm.read_phys(phys + k);
                        (phys + k, cur, cur)
                    })
                    .collect();
                (core, TxLen::Bulk, words)
            }
            // Neither is ever retransmitted.
            WirelessMsg::ToneInit { .. } | WirelessMsg::Resync { .. } => return,
        };
        self.fault_rx_pass(sender, frame, len, &words, at);
        // A replica converged by this retransmit may now satisfy a
        // sleeping spin-waiter; deaf replicas just re-sleep.
        for &(phys, _, _) in &words {
            self.wake_bm_waiters(phys, at);
        }
    }

    /// Ensures exactly one periodic replica-audit event is queued while
    /// divergence exists (heals a chain that died while the machine was
    /// fault-free).
    fn arm_audit(&mut self, at: Cycle) {
        let Some(f) = self.fault.as_mut() else {
            return;
        };
        let Some(period) = f.plan().audit_period else {
            return;
        };
        if f.has_divergence() && f.audits_queued() == 0 {
            f.audit_queued();
            self.queue.push(at + period, Event::FaultAudit);
        }
    }

    /// Periodic BM replica-divergence audit: scrubs the overlay, records
    /// and resyncs every diverged word, and reschedules itself while
    /// there is anything left to watch.
    fn fault_audit(&mut self) {
        let at = self.now;
        let Some(mut f) = self.fault.take() else {
            return;
        };
        f.audit_dequeued();
        f.stats_mut().audits += 1;
        let diverged = f.diverged();
        for &(phys, cores) in &diverged {
            f.stats_mut().divergences_detected += 1;
            f.stats_mut().resyncs += 1;
            self.stats
                .faults
                .push(FaultRecord::ReplicaDivergence { phys, cores });
            self.record(TraceEvent::ReplicaResync { at, phys });
        }
        let live = self
            .cores
            .iter()
            .any(|c| matches!(c.status, CoreStatus::Running | CoreStatus::Blocked));
        let period = f.plan().audit_period;
        let reschedule = period.is_some() && f.audits_queued() == 0 && (live || f.has_divergence());
        if reschedule {
            f.audit_queued();
            self.queue.push(at + period.unwrap(), Event::FaultAudit);
        }
        self.fault = Some(f);
        for &(phys, _) in &diverged {
            let value = self.bm.read_phys(phys);
            self.request_frame(
                0,
                TxLen::Normal,
                TxFrame {
                    msg: WirelessMsg::Resync { phys, value },
                    attempt: 0,
                },
                at + 1,
            );
        }
    }

    /// End-of-run audit: divergence still outstanding when the machine
    /// stops is recorded, so a faulty run can never end silently wrong.
    fn final_fault_audit(&mut self) {
        let Some(mut f) = self.fault.take() else {
            return;
        };
        if f.has_divergence() {
            f.stats_mut().audits += 1;
            for (phys, cores) in f.diverged() {
                f.stats_mut().divergences_detected += 1;
                self.stats
                    .faults
                    .push(FaultRecord::ReplicaDivergence { phys, cores });
            }
        }
        self.fault = Some(f);
    }

    /// A core's delayed tone observation fires: its replica of the
    /// barrier flag converges, and its spin-wait (if sleeping on this
    /// word) is re-checked.
    fn tone_observe_late(&mut self, core: usize, phys: usize) {
        let at = self.now;
        if let Some(f) = self.fault.as_mut() {
            f.converge(core, phys);
        }
        if self.cores[core].status == CoreStatus::Sleeping {
            if let Some(info) = self.cores[core].wait {
                if info.space == Space::Bm && info.loc as usize == phys {
                    self.bm_waiters[phys].retain(|&c| c != core);
                    self.queue.push(at, Event::WaitCheck(core));
                }
            }
        }
    }

    fn tone_complete(&mut self, phys: usize) {
        let at = self.now;
        self.tone
            .complete(phys as u64, at)
            .expect("completing an active barrier");
        let before = self.bm.read_phys(phys);
        self.bm.toggle_phys(phys);
        self.stats.tone_barriers += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.timeline.tone_completion(at);
            o.barrier_release(phys, at);
        }
        self.record(TraceEvent::ToneCompleted { at, phys });
        if let Some(mut f) = self.fault.take() {
            let after = self.bm.read_phys(phys);
            let words = [(phys, before, after)];
            for core in 0..self.cores.len() {
                match f.tone_observe(core, at) {
                    ToneOutcome::Prompt => f.apply_rx(core, RxOutcome::Clean, &words),
                    ToneOutcome::Late(d) => {
                        f.apply_rx(core, RxOutcome::Deaf, &words);
                        self.queue.push(at + d, Event::ToneObserve { core, phys });
                    }
                    // Missed entirely: the replica stays stale until the
                    // audit resyncs it.
                    ToneOutcome::Dropped => f.apply_rx(core, RxOutcome::Deaf, &words),
                }
            }
            self.fault = Some(f);
            self.arm_audit(at);
        }
        self.wake_bm_waiters(phys, at);
    }

    // --- Wait handling --------------------------------------------------------

    fn wait_check(&mut self, core: usize) {
        if self.cores[core].status == CoreStatus::Preempted {
            return;
        }
        if self.cores[core].preempt_pending {
            self.park(core);
            return;
        }
        let info = self.cores[core].wait.expect("wait_check without wait info");
        let current = match info.space {
            Space::Cached => self.mem.peek(info.loc),
            Space::Bm => self.bm_read(core, info.loc as usize),
        };
        let waiting = match info.cond {
            Cond::Eq => current == info.value,
            Cond::Ne => current != info.value,
        };
        if waiting {
            match info.space {
                Space::Cached => self.mem.register_waiter(self.node(core), info.loc),
                Space::Bm => self.bm_waiters[info.loc as usize].push(core),
            }
            self.cores[core].status = CoreStatus::Sleeping;
        } else {
            self.cores[core].wait = None;
            self.cores[core].pc += 1;
            self.cores[core].status = CoreStatus::Running;
            self.advance_core(core);
        }
    }
}

// --- Machine snapshot/restore ----------------------------------------------
//
// Serializes the *entire* simulation state — cores, BM, caches, directory,
// wireless channels, event queue, RNGs, obs/fault state — at a cycle
// boundary (between `run` calls), so a restored machine continues
// byte-identically to one that was never interrupted. The format is a
// sealed `wisync_sim::snap` container: magic + version + payload digest,
// so corrupted or version-skewed snapshots are rejected, never silently
// loaded. The trace sink (a host-side observer; reinstall one after
// restoring) is deliberately NOT captured.

use wisync_sim::{SnapError, SnapReader, SnapWriter};

use crate::config::MachineKind;

/// Magic bytes of a sealed machine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"WISYNCSN";

/// Machine snapshot format version. Bump on any layout change; old
/// versions are rejected with [`SnapError::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u32 = 4;

fn write_space(w: &mut SnapWriter, s: Space) {
    w.u8(match s {
        Space::Cached => 0,
        Space::Bm => 1,
    });
}

fn read_space(r: &mut SnapReader<'_>) -> Result<Space, SnapError> {
    match r.u8()? {
        0 => Ok(Space::Cached),
        1 => Ok(Space::Bm),
        _ => Err(SnapError::Invalid("space tag")),
    }
}

fn write_rmw_spec(w: &mut SnapWriter, k: RmwSpec) {
    match k {
        RmwSpec::Cas { expected, new } => {
            w.u8(0);
            w.u8(expected.0);
            w.u8(new.0);
        }
        RmwSpec::Swap { src } => {
            w.u8(1);
            w.u8(src.0);
        }
        RmwSpec::FetchAdd { src } => {
            w.u8(2);
            w.u8(src.0);
        }
        RmwSpec::FetchInc => w.u8(3),
        RmwSpec::TestSet => w.u8(4),
    }
}

fn read_rmw_spec(r: &mut SnapReader<'_>) -> Result<RmwSpec, SnapError> {
    Ok(match r.u8()? {
        0 => RmwSpec::Cas {
            expected: Reg(r.u8()?),
            new: Reg(r.u8()?),
        },
        1 => RmwSpec::Swap { src: Reg(r.u8()?) },
        2 => RmwSpec::FetchAdd { src: Reg(r.u8()?) },
        3 => RmwSpec::FetchInc,
        4 => RmwSpec::TestSet,
        _ => return Err(SnapError::Invalid("rmw spec tag")),
    })
}

/// Serializes one instruction. Branch targets are already resolved to
/// pcs in a built [`Program`], so labels round-trip as raw indices and
/// [`Program::from_resolved`] re-validates them on restore.
fn write_instr(w: &mut SnapWriter, i: &Instr) {
    use wisync_isa::Instr as I;
    let r3 = |w: &mut SnapWriter, tag: u8, d: Reg, a: Reg, b: Reg| {
        w.u8(tag);
        w.u8(d.0);
        w.u8(a.0);
        w.u8(b.0);
    };
    match *i {
        I::Li { dst, imm } => {
            w.u8(0);
            w.u8(dst.0);
            w.u64(imm);
        }
        I::Mov { dst, src } => {
            w.u8(1);
            w.u8(dst.0);
            w.u8(src.0);
        }
        I::Add { dst, a, b } => r3(w, 2, dst, a, b),
        I::Addi { dst, a, imm } => {
            w.u8(3);
            w.u8(dst.0);
            w.u8(a.0);
            w.u64(imm);
        }
        I::Sub { dst, a, b } => r3(w, 4, dst, a, b),
        I::Mul { dst, a, b } => r3(w, 5, dst, a, b),
        I::And { dst, a, b } => r3(w, 6, dst, a, b),
        I::Or { dst, a, b } => r3(w, 7, dst, a, b),
        I::Xor { dst, a, b } => r3(w, 8, dst, a, b),
        I::Shl { dst, a, b } => r3(w, 9, dst, a, b),
        I::Shr { dst, a, b } => r3(w, 10, dst, a, b),
        I::CmpEq { dst, a, b } => r3(w, 11, dst, a, b),
        I::CmpLt { dst, a, b } => r3(w, 12, dst, a, b),
        I::Jump { target } => {
            w.u8(13);
            w.u32(target.0);
        }
        I::Beqz { cond, target } => {
            w.u8(14);
            w.u8(cond.0);
            w.u32(target.0);
        }
        I::Bnez { cond, target } => {
            w.u8(15);
            w.u8(cond.0);
            w.u32(target.0);
        }
        I::Compute { cycles } => {
            w.u8(16);
            w.u64(cycles);
        }
        I::Ld {
            dst,
            base,
            offset,
            space,
        } => {
            w.u8(17);
            w.u8(dst.0);
            w.u8(base.0);
            w.u64(offset);
            write_space(w, space);
        }
        I::St {
            src,
            base,
            offset,
            space,
        } => {
            w.u8(18);
            w.u8(src.0);
            w.u8(base.0);
            w.u64(offset);
            write_space(w, space);
        }
        I::Rmw {
            kind,
            dst,
            base,
            offset,
            space,
        } => {
            w.u8(19);
            write_rmw_spec(w, kind);
            w.u8(dst.0);
            w.u8(base.0);
            w.u64(offset);
            write_space(w, space);
        }
        I::BulkLd { dst, base, offset } => {
            w.u8(20);
            w.u8(dst.0);
            w.u8(base.0);
            w.u64(offset);
        }
        I::BulkSt { src, base, offset } => {
            w.u8(21);
            w.u8(src.0);
            w.u8(base.0);
            w.u64(offset);
        }
        I::ReadAfb { dst } => {
            w.u8(22);
            w.u8(dst.0);
        }
        I::ReadWcb { dst } => {
            w.u8(23);
            w.u8(dst.0);
        }
        I::ToneSt { base, offset } => {
            w.u8(24);
            w.u8(base.0);
            w.u64(offset);
        }
        I::ToneLd { dst, base, offset } => {
            w.u8(25);
            w.u8(dst.0);
            w.u8(base.0);
            w.u64(offset);
        }
        I::WaitWhile {
            cond,
            base,
            offset,
            value,
            space,
        } => {
            w.u8(26);
            w.u8(match cond {
                Cond::Eq => 0,
                Cond::Ne => 1,
            });
            w.u8(base.0);
            w.u64(offset);
            w.u8(value.0);
            write_space(w, space);
        }
        I::Halt => w.u8(27),
    }
}

fn read_instr(r: &mut SnapReader<'_>) -> Result<Instr, SnapError> {
    use wisync_isa::{Instr as I, Label};
    let reg = |r: &mut SnapReader<'_>| -> Result<Reg, SnapError> { Ok(Reg(r.u8()?)) };
    Ok(match r.u8()? {
        0 => I::Li {
            dst: reg(r)?,
            imm: r.u64()?,
        },
        1 => I::Mov {
            dst: reg(r)?,
            src: reg(r)?,
        },
        2 => I::Add {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        3 => I::Addi {
            dst: reg(r)?,
            a: reg(r)?,
            imm: r.u64()?,
        },
        4 => I::Sub {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        5 => I::Mul {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        6 => I::And {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        7 => I::Or {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        8 => I::Xor {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        9 => I::Shl {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        10 => I::Shr {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        11 => I::CmpEq {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        12 => I::CmpLt {
            dst: reg(r)?,
            a: reg(r)?,
            b: reg(r)?,
        },
        13 => I::Jump {
            target: Label(r.u32()?),
        },
        14 => I::Beqz {
            cond: reg(r)?,
            target: Label(r.u32()?),
        },
        15 => I::Bnez {
            cond: reg(r)?,
            target: Label(r.u32()?),
        },
        16 => I::Compute { cycles: r.u64()? },
        17 => I::Ld {
            dst: reg(r)?,
            base: reg(r)?,
            offset: r.u64()?,
            space: read_space(r)?,
        },
        18 => I::St {
            src: reg(r)?,
            base: reg(r)?,
            offset: r.u64()?,
            space: read_space(r)?,
        },
        19 => I::Rmw {
            kind: read_rmw_spec(r)?,
            dst: reg(r)?,
            base: reg(r)?,
            offset: r.u64()?,
            space: read_space(r)?,
        },
        20 => I::BulkLd {
            dst: reg(r)?,
            base: reg(r)?,
            offset: r.u64()?,
        },
        21 => I::BulkSt {
            src: reg(r)?,
            base: reg(r)?,
            offset: r.u64()?,
        },
        22 => I::ReadAfb { dst: reg(r)? },
        23 => I::ReadWcb { dst: reg(r)? },
        24 => I::ToneSt {
            base: reg(r)?,
            offset: r.u64()?,
        },
        25 => I::ToneLd {
            dst: reg(r)?,
            base: reg(r)?,
            offset: r.u64()?,
        },
        26 => I::WaitWhile {
            cond: match r.u8()? {
                0 => Cond::Eq,
                1 => Cond::Ne,
                _ => return Err(SnapError::Invalid("cond tag")),
            },
            base: reg(r)?,
            offset: r.u64()?,
            value: reg(r)?,
            space: read_space(r)?,
        },
        27 => I::Halt,
        _ => return Err(SnapError::Invalid("instruction tag")),
    })
}

fn write_msg(w: &mut SnapWriter, m: &WirelessMsg) {
    match *m {
        WirelessMsg::BmWrite { phys, value, core } => {
            w.u8(0);
            w.usize(phys);
            w.u64(value);
            w.usize(core);
        }
        WirelessMsg::BmRmwWrite { phys, value, core } => {
            w.u8(1);
            w.usize(phys);
            w.u64(value);
            w.usize(core);
        }
        WirelessMsg::Bulk { phys, values, core } => {
            w.u8(2);
            w.usize(phys);
            for v in values {
                w.u64(v);
            }
            w.usize(core);
        }
        WirelessMsg::ToneInit { phys, core } => {
            w.u8(3);
            w.usize(phys);
            w.usize(core);
        }
        WirelessMsg::Resync { phys, value } => {
            w.u8(4);
            w.usize(phys);
            w.u64(value);
        }
    }
}

fn read_msg(r: &mut SnapReader<'_>) -> Result<WirelessMsg, SnapError> {
    Ok(match r.u8()? {
        0 => WirelessMsg::BmWrite {
            phys: r.usize()?,
            value: r.u64()?,
            core: r.usize()?,
        },
        1 => WirelessMsg::BmRmwWrite {
            phys: r.usize()?,
            value: r.u64()?,
            core: r.usize()?,
        },
        2 => {
            let phys = r.usize()?;
            let mut values = [0u64; 4];
            for v in &mut values {
                *v = r.u64()?;
            }
            WirelessMsg::Bulk {
                phys,
                values,
                core: r.usize()?,
            }
        }
        3 => WirelessMsg::ToneInit {
            phys: r.usize()?,
            core: r.usize()?,
        },
        4 => WirelessMsg::Resync {
            phys: r.usize()?,
            value: r.u64()?,
        },
        _ => return Err(SnapError::Invalid("wireless message tag")),
    })
}

fn write_frame(w: &mut SnapWriter, f: &TxFrame) {
    write_msg(w, &f.msg);
    w.u32(f.attempt);
}

fn read_frame(r: &mut SnapReader<'_>) -> Result<TxFrame, SnapError> {
    Ok(TxFrame {
        msg: read_msg(r)?,
        attempt: r.u32()?,
    })
}

fn write_event(w: &mut SnapWriter, e: &Event) {
    match e {
        Event::Resume(core) => {
            w.u8(0);
            w.usize(*core);
        }
        Event::WaitCheck(core) => {
            w.u8(1);
            w.usize(*core);
        }
        Event::ChannelResolve(ch) => {
            w.u8(2);
            w.usize(*ch);
        }
        Event::Deliver(frame) => {
            w.u8(3);
            write_frame(w, frame);
        }
        Event::ToneComplete { phys } => {
            w.u8(4);
            w.usize(*phys);
        }
        Event::ToneObserve { core, phys } => {
            w.u8(5);
            w.usize(*core);
            w.usize(*phys);
        }
        Event::FaultAudit => w.u8(6),
    }
}

fn read_event(r: &mut SnapReader<'_>) -> Result<Event, SnapError> {
    Ok(match r.u8()? {
        0 => Event::Resume(r.usize()?),
        1 => Event::WaitCheck(r.usize()?),
        2 => Event::ChannelResolve(r.usize()?),
        3 => Event::Deliver(Box::new(read_frame(r)?)),
        4 => Event::ToneComplete { phys: r.usize()? },
        5 => Event::ToneObserve {
            core: r.usize()?,
            phys: r.usize()?,
        },
        6 => Event::FaultAudit,
        _ => return Err(SnapError::Invalid("event tag")),
    })
}

fn write_core(w: &mut SnapWriter, c: &Core) {
    w.u32(c.pid.0);
    w.option(c.program.as_ref(), |w, p| {
        w.seq(p.len());
        for i in p.instrs() {
            write_instr(w, i);
        }
    });
    w.usize(c.pc);
    for &v in &c.regs {
        w.u64(v);
    }
    w.u8(match c.status {
        CoreStatus::Idle => 0,
        CoreStatus::Running => 1,
        CoreStatus::Blocked => 2,
        CoreStatus::Sleeping => 3,
        CoreStatus::Halted => 4,
        CoreStatus::Preempted => 5,
        CoreStatus::Faulted => 6,
    });
    w.bool(c.afb);
    w.bool(c.preempt_pending);
    w.option(c.store_buffer, |w, (phys, value)| {
        w.usize(phys);
        w.u64(value);
    });
    w.bool(c.drain_block);
    w.option(c.pending_rmw, |w, p| {
        w.usize(p.phys);
        w.u64(p.token.as_u64());
        w.bool(p.is_cas);
        w.bool(p.aborted);
    });
    w.option(c.pending_load, |w, (dst, addr)| {
        w.u8(dst.0);
        w.u64(addr);
    });
    w.u32(c.rmw_exp);
    w.option(c.wait, |w, info| {
        w.u8(match info.cond {
            Cond::Eq => 0,
            Cond::Ne => 1,
        });
        write_space(w, info.space);
        w.u64(info.loc);
        w.u64(info.value);
    });
    w.option(c.finish, |w, f| w.u64(f.as_u64()));
}

fn read_core(r: &mut SnapReader<'_>) -> Result<Core, SnapError> {
    let mut c = Core::new();
    c.pid = Pid(r.u32()?);
    c.program = r.option(|r| {
        let n = r.seq()?;
        let mut instrs = Vec::with_capacity(n);
        for _ in 0..n {
            instrs.push(read_instr(r)?);
        }
        Program::from_resolved(instrs).map_err(|_| SnapError::Invalid("invalid program"))
    })?;
    // The micro-op lowering is a pure function of the program — derived,
    // not stored.
    c.decoded = c.program.as_ref().map(DecodedProgram::decode);
    c.pc = r.usize()?;
    for v in &mut c.regs {
        *v = r.u64()?;
    }
    c.status = match r.u8()? {
        0 => CoreStatus::Idle,
        1 => CoreStatus::Running,
        2 => CoreStatus::Blocked,
        3 => CoreStatus::Sleeping,
        4 => CoreStatus::Halted,
        5 => CoreStatus::Preempted,
        6 => CoreStatus::Faulted,
        _ => return Err(SnapError::Invalid("core status tag")),
    };
    c.afb = r.bool()?;
    c.preempt_pending = r.bool()?;
    c.store_buffer = r.option(|r| Ok((r.usize()?, r.u64()?)))?;
    c.drain_block = r.bool()?;
    c.pending_rmw = r.option(|r| {
        Ok(PendingRmw {
            phys: r.usize()?,
            token: TxToken::from_u64(r.u64()?),
            is_cas: r.bool()?,
            aborted: r.bool()?,
        })
    })?;
    c.pending_load = r.option(|r| Ok((Reg(r.u8()?), r.u64()?)))?;
    c.rmw_exp = r.u32()?;
    c.wait = r.option(|r| {
        Ok(WaitInfo {
            cond: match r.u8()? {
                0 => Cond::Eq,
                1 => Cond::Ne,
                _ => return Err(SnapError::Invalid("cond tag")),
            },
            space: read_space(r)?,
            loc: r.u64()?,
            value: r.u64()?,
        })
    })?;
    c.finish = r.option(|r| Ok(Cycle(r.u64()?)))?;
    Ok(c)
}

fn write_config(w: &mut SnapWriter, c: &MachineConfig) {
    w.u8(match c.kind {
        MachineKind::Baseline => 0,
        MachineKind::BaselinePlus => 1,
        MachineKind::WiSyncNoT => 2,
        MachineKind::WiSync => 3,
    });
    w.usize(c.cores);
    w.u64(c.hop_latency);
    w.usize(c.mem.l1_bytes);
    w.usize(c.mem.l1_assoc);
    w.u64(c.mem.l1_rt);
    w.u64(c.mem.l2_rt);
    w.u64(c.mem.mem_rt);
    w.bool(c.mem.tree_multicast);
    w.u64(c.wireless.tx_cycles);
    w.u64(c.wireless.bulk_cycles);
    w.u64(c.wireless.collision_cycles);
    w.u32(c.wireless.max_backoff_exp);
    w.u64(c.wireless.seed);
    w.u8(match c.wireless.mac_policy {
        wisync_wireless::MacPolicy::Exponential => 0,
        wisync_wireless::MacPolicy::Reactive => 1,
        wisync_wireless::MacPolicy::TokenRing => 2,
        wisync_wireless::MacPolicy::AdaptiveHybrid => 3,
    });
    w.u64(c.wireless.token_hop_cycles);
    w.usize(c.wireless.data_channels);
    w.u64(c.bm_rt);
    w.usize(c.bm_entries);
    w.usize(c.tone_table_capacity);
    w.u8(match c.bm_consistency {
        BmConsistency::Sc => 0,
        BmConsistency::Tso => 1,
    });
    w.u64(c.seed);
    w.u8(match c.exec {
        ExecMode::Uop => 0,
        ExecMode::Reference => 1,
    });
}

fn read_config(r: &mut SnapReader<'_>) -> Result<MachineConfig, SnapError> {
    let kind = match r.u8()? {
        0 => MachineKind::Baseline,
        1 => MachineKind::BaselinePlus,
        2 => MachineKind::WiSyncNoT,
        3 => MachineKind::WiSync,
        _ => return Err(SnapError::Invalid("machine kind tag")),
    };
    let cores = r.usize()?;
    let hop_latency = r.u64()?;
    let mem = wisync_mem::MemConfig {
        l1_bytes: r.usize()?,
        l1_assoc: r.usize()?,
        l1_rt: r.u64()?,
        l2_rt: r.u64()?,
        mem_rt: r.u64()?,
        tree_multicast: r.bool()?,
    };
    let wireless = wisync_wireless::WirelessConfig {
        tx_cycles: r.u64()?,
        bulk_cycles: r.u64()?,
        collision_cycles: r.u64()?,
        max_backoff_exp: r.u32()?,
        seed: r.u64()?,
        mac_policy: match r.u8()? {
            0 => wisync_wireless::MacPolicy::Exponential,
            1 => wisync_wireless::MacPolicy::Reactive,
            2 => wisync_wireless::MacPolicy::TokenRing,
            3 => wisync_wireless::MacPolicy::AdaptiveHybrid,
            _ => return Err(SnapError::Invalid("mac policy tag")),
        },
        token_hop_cycles: r.u64()?,
        data_channels: r.usize()?,
    };
    Ok(MachineConfig {
        kind,
        cores,
        hop_latency,
        mem,
        wireless,
        bm_rt: r.u64()?,
        bm_entries: r.usize()?,
        tone_table_capacity: r.usize()?,
        bm_consistency: match r.u8()? {
            0 => BmConsistency::Sc,
            1 => BmConsistency::Tso,
            _ => return Err(SnapError::Invalid("bm consistency tag")),
        },
        seed: r.u64()?,
        exec: match r.u8()? {
            0 => ExecMode::Uop,
            1 => ExecMode::Reference,
            _ => return Err(SnapError::Invalid("exec mode tag")),
        },
    })
}

fn write_stats(w: &mut SnapWriter, s: &MachineStats) {
    w.u64(s.instructions);
    w.u64(s.sim_events);
    w.u64(s.bm_loads);
    w.u64(s.bm_stores);
    w.u64(s.bm_rmw_atomicity_failures);
    w.u64(s.tone_barriers);
    w.u64(s.rmw_attempts);
    w.u64(s.rmw_successes);
    w.u64(s.cas_attempts);
    w.u64(s.cas_successes);
    w.u64(s.dropped_trace_events);
    w.u64(s.dropped_sync_episodes);
    w.seq(s.faults.len());
    for f in &s.faults {
        match f {
            FaultRecord::Exec { core, reason } => {
                w.u8(0);
                w.usize(*core);
                w.str(reason);
            }
            FaultRecord::RetransmitExhausted { core, phys } => {
                w.u8(1);
                w.usize(*core);
                w.usize(*phys);
            }
            FaultRecord::ReplicaDivergence { phys, cores } => {
                w.u8(2);
                w.usize(*phys);
                w.usize(*cores);
            }
        }
    }
    for v in [
        s.fault_stats.injected_corruptions,
        s.fault_stats.checksum_rejects,
        s.fault_stats.undetected_corruptions,
        s.fault_stats.dropout_misses,
        s.fault_stats.tone_late,
        s.fault_stats.tone_dropped,
        s.fault_stats.retransmits,
        s.fault_stats.retransmits_exhausted,
        s.fault_stats.audits,
        s.fault_stats.divergences_detected,
        s.fault_stats.resyncs,
    ] {
        w.u64(v);
    }
    w.u64(s.data.transfers);
    w.u64(s.data.collisions);
    w.u64(s.data.busy_cycles);
    w.u64(s.data.mac_exhaustions);
    w.u64(s.data.mac_grants);
    w.u64(s.data.token_pass_cycles);
    w.u64(s.data.mac_mode_switches);
    s.data.latency.write_snap(w);
    s.data.retries.write_snap(w);
    w.f64(s.data_utilization);
    w.u64(s.tone.barriers_completed);
    w.u64(s.tone.active_cycles);
    w.usize(s.tone.peak_active);
    w.u64(s.mem.loads);
    w.u64(s.mem.stores);
    w.u64(s.mem.rmws);
    w.u64(s.mem.l1_hits);
    w.u64(s.mem.dir_transactions);
    w.u64(s.mem.cold_misses);
    w.u64(s.mem.invalidations);
    s.mem.latency.write_snap(w);
}

fn read_stats(r: &mut SnapReader<'_>) -> Result<MachineStats, SnapError> {
    let mut s = MachineStats {
        instructions: r.u64()?,
        sim_events: r.u64()?,
        bm_loads: r.u64()?,
        bm_stores: r.u64()?,
        bm_rmw_atomicity_failures: r.u64()?,
        tone_barriers: r.u64()?,
        rmw_attempts: r.u64()?,
        rmw_successes: r.u64()?,
        cas_attempts: r.u64()?,
        cas_successes: r.u64()?,
        dropped_trace_events: r.u64()?,
        dropped_sync_episodes: r.u64()?,
        ..MachineStats::default()
    };
    for _ in 0..r.seq()? {
        s.faults.push(match r.u8()? {
            0 => FaultRecord::Exec {
                core: r.usize()?,
                reason: r.str()?,
            },
            1 => FaultRecord::RetransmitExhausted {
                core: r.usize()?,
                phys: r.usize()?,
            },
            2 => FaultRecord::ReplicaDivergence {
                phys: r.usize()?,
                cores: r.usize()?,
            },
            _ => return Err(SnapError::Invalid("fault record tag")),
        });
    }
    s.fault_stats.injected_corruptions = r.u64()?;
    s.fault_stats.checksum_rejects = r.u64()?;
    s.fault_stats.undetected_corruptions = r.u64()?;
    s.fault_stats.dropout_misses = r.u64()?;
    s.fault_stats.tone_late = r.u64()?;
    s.fault_stats.tone_dropped = r.u64()?;
    s.fault_stats.retransmits = r.u64()?;
    s.fault_stats.retransmits_exhausted = r.u64()?;
    s.fault_stats.audits = r.u64()?;
    s.fault_stats.divergences_detected = r.u64()?;
    s.fault_stats.resyncs = r.u64()?;
    s.data.transfers = r.u64()?;
    s.data.collisions = r.u64()?;
    s.data.busy_cycles = r.u64()?;
    s.data.mac_exhaustions = r.u64()?;
    s.data.mac_grants = r.u64()?;
    s.data.token_pass_cycles = r.u64()?;
    s.data.mac_mode_switches = r.u64()?;
    s.data.latency = wisync_sim::Histogram::read_snap(r)?;
    s.data.retries = wisync_sim::Histogram::read_snap(r)?;
    s.data_utilization = r.f64()?;
    s.tone.barriers_completed = r.u64()?;
    s.tone.active_cycles = r.u64()?;
    s.tone.peak_active = r.usize()?;
    s.mem.loads = r.u64()?;
    s.mem.stores = r.u64()?;
    s.mem.rmws = r.u64()?;
    s.mem.l1_hits = r.u64()?;
    s.mem.dir_transactions = r.u64()?;
    s.mem.cold_misses = r.u64()?;
    s.mem.invalidations = r.u64()?;
    s.mem.latency = wisync_sim::Histogram::read_snap(r)?;
    Ok(s)
}

impl Machine {
    /// Serializes the full machine state into a sealed, digest-stamped
    /// snapshot. Call between [`Machine::run`] invocations (at a cycle
    /// boundary); the returned bytes restore via [`Machine::restore`] to
    /// a machine that continues byte-identically to this one.
    ///
    /// Identical machine states produce identical bytes (hash-map state
    /// is written in sorted key order throughout), so the snapshot also
    /// serves as a state fingerprint. The trace sink is host-side state
    /// and is not captured: reinstall a sink after restoring if tracing
    /// is wanted.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_config(&mut w, &self.config);
        w.u64(self.now.as_u64());
        w.u64(self.rng.state());
        write_stats(&mut w, &self.stats);
        w.seq(self.cores.len());
        for c in &self.cores {
            write_core(&mut w, c);
        }
        self.bm.write_snap(&mut w);
        w.seq(self.data.len());
        for ch in &self.data {
            ch.write_snap(&mut w, write_frame);
        }
        self.tone.write_snap(&mut w);
        self.mem.write_snap(&mut w);
        w.seq(self.bm_waiters.len());
        for ws in &self.bm_waiters {
            // Wake order is semantic: waiters resume in registration
            // order, so the list serializes as-is.
            w.seq(ws.len());
            for &c in ws {
                w.usize(c);
            }
        }
        w.seq(self.tone_init.len());
        for ti in &self.tone_init {
            w.bool(ti.in_flight);
            w.seq(ti.early.len());
            for &c in &ti.early {
                w.usize(c);
            }
        }
        w.option(self.obs.as_deref(), |w, o| o.write_snap(w));
        w.option(self.fault.as_deref(), |w, f| f.write_snap(w));
        let events = self.queue.iter_ordered();
        w.seq(events.len());
        for (at, ev) in events {
            w.u64(at.as_u64());
            write_event(&mut w, ev);
        }
        wisync_sim::snap::seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, w.finish())
    }

    /// Rebuilds a machine from [`Machine::snapshot`] bytes.
    ///
    /// The restored machine's next [`Machine::run`] produces exactly the
    /// results the snapshotted machine's would have — same stats, same
    /// clock, same BM and memory state, same obs profile (test-proven
    /// across workloads and exec modes).
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`] for non-snapshot bytes,
    /// [`SnapError::UnsupportedVersion`] for snapshots from a different
    /// format version, [`SnapError::DigestMismatch`] for corrupted
    /// payloads, and [`SnapError::Truncated`] / [`SnapError::Invalid`]
    /// for structurally broken ones. A snapshot is never partially
    /// loaded: any error leaves no machine behind.
    pub fn restore(bytes: &[u8]) -> Result<Machine, SnapError> {
        let payload = wisync_sim::snap::unseal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        let mut r = SnapReader::new(payload);
        let config = read_config(&mut r)?;
        let mut m = Machine::new(config);
        m.now = Cycle(r.u64()?);
        m.rng = DetRng::from_state(r.u64()?);
        m.stats = read_stats(&mut r)?;
        if r.seq()? != config.cores {
            return Err(SnapError::Invalid("core count mismatch"));
        }
        for i in 0..config.cores {
            m.cores[i] = read_core(&mut r)?;
        }
        m.bm = BroadcastMemory::read_snap(&mut r)?;
        if r.seq()? != m.data.len() {
            return Err(SnapError::Invalid("data channel count mismatch"));
        }
        let mut wireless = config.wireless;
        wireless.seed ^= config.seed;
        for ch in 0..m.data.len() {
            // Mirror the per-channel seed derivation of `Machine::new`;
            // the serialized RNG state overwrites the seed-derived one,
            // so this only matters for geometry defaults.
            let mut wc = wireless;
            wc.seed ^= (ch as u64 + 1) << 32;
            m.data[ch] = DataChannel::read_snap(wc, config.cores, &mut r, read_frame)?;
        }
        m.tone = ToneChannel::read_snap(&mut r)?;
        m.mem = MemSystem::read_snap(
            config.mem,
            Mesh::new(config.cores, config.hop_latency),
            &mut r,
        )?;
        if r.seq()? != m.bm_waiters.len() {
            return Err(SnapError::Invalid("bm waiter table size mismatch"));
        }
        for i in 0..config.bm_entries {
            for _ in 0..r.seq()? {
                m.bm_waiters[i].push(r.usize()?);
            }
        }
        if r.seq()? != m.tone_init.len() {
            return Err(SnapError::Invalid("tone init table size mismatch"));
        }
        for i in 0..config.bm_entries {
            m.tone_init[i].in_flight = r.bool()?;
            for _ in 0..r.seq()? {
                m.tone_init[i].early.push(r.usize()?);
            }
        }
        m.obs = r.option(ObsState::read_snap)?.map(Box::new);
        m.fault = r.option(FaultState::read_snap)?.map(Box::new);
        for _ in 0..r.seq()? {
            let at = Cycle(r.u64()?);
            let ev = read_event(&mut r)?;
            m.queue.push(at, ev);
        }
        if r.remaining() != 0 {
            return Err(SnapError::Invalid("trailing snapshot bytes"));
        }
        Ok(m)
    }
}
