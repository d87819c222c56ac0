//! MAC lab: the medium-access design-space sweep.
//!
//! WiSync's published numbers assume one MAC — exponential-backoff
//! random access on the shared Data channel (§5.3). The `Mac` trait in
//! `wisync-wireless` makes that a policy choice, and this module
//! measures the choice: every lab MAC × a workload set that spans the
//! contention spectrum × a bursty Gilbert-Elliott channel at several
//! bad-state bit-error rates. Results land in `results/mac_lab.json`
//! (`wisync-mac-lab/v1`), byte-stable for a fixed base seed.
//!
//! Every cell runs with observability attached so the per-address
//! contention leaderboard can explain *why* a MAC wins: a workload
//! whose traffic converges on one broadcast line rewards a collision-
//! free grant schedule, while sparse traffic makes token passing pure
//! overhead.

use wisync_core::{FaultPlan, Machine, MachineConfig, MachineKind, RunOutcome};
use wisync_obs::ObsConfig;
use wisync_testkit::Json;
use wisync_wireless::{DataChannelStats, MacPolicy};
use wisync_workloads::{AluPhases, CasKernel, CasKind, TightLoop};

use crate::chaos::{AUDIT_PERIOD, CHAOS_BUDGET};
use crate::grid::{field, int, num, text};

/// Core count every lab cell runs at.
pub const LAB_CORES: usize = 16;

/// Policies the lab compares: the paper's backoff plus the two
/// alternatives from the MAC context-analysis taxonomy.
pub const LAB_MACS: [MacPolicy; 3] = [
    MacPolicy::Exponential,
    MacPolicy::TokenRing,
    MacPolicy::AdaptiveHybrid,
];

/// Bad-state bit-error rates of the lab's Gilbert-Elliott channel
/// (0 = ideal channel, no fault plan). The full matrix sweeps all four;
/// quick mode keeps the first and last.
pub const LAB_BERS: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// Contended lines recorded per cell (top of the obs leaderboard).
pub const HOT_LINES: usize = 2;

/// Workloads the lab sweeps — chosen to span the contention spectrum:
/// barrier storms (TightLoop), one-line CAS pile-ups (ADD), multi-line
/// CAS traffic (FIFO), and compute-heavy phases where the channel is
/// nearly idle between barriers (AluPhases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabWorkload {
    /// Figure 7 barrier stress loop.
    TightLoop,
    /// Lock-free FIFO counters (CAS kernel).
    Fifo,
    /// Shared-counter ADD (CAS kernel).
    Add,
    /// Compute-heavy barrier phases — sparse channel traffic.
    AluPhases,
}

impl std::fmt::Display for LabWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabWorkload::TightLoop => write!(f, "tightloop"),
            LabWorkload::Fifo => write!(f, "fifo"),
            LabWorkload::Add => write!(f, "add"),
            LabWorkload::AluPhases => write!(f, "aluphases"),
        }
    }
}

impl LabWorkload {
    /// The full lab workload set.
    pub fn all() -> [LabWorkload; 4] {
        [
            LabWorkload::TightLoop,
            LabWorkload::Fifo,
            LabWorkload::Add,
            LabWorkload::AluPhases,
        ]
    }

    /// Machine kind that routes this workload's synchronization through
    /// the Data channel (same reasoning as the chaos soak): barrier
    /// workloads run on WiSyncNoT so barriers contend on Data, CAS
    /// kernels on full WiSync where BM RMW broadcasts do.
    pub fn kind(&self) -> MachineKind {
        match self {
            LabWorkload::TightLoop | LabWorkload::AluPhases => MachineKind::WiSyncNoT,
            LabWorkload::Fifo | LabWorkload::Add => MachineKind::WiSync,
        }
    }
}

/// Fixed workload sizes: small enough that the 3 × 4 × 4 matrix stays
/// in CI budget, large enough that every cell crosses the channel
/// hundreds of times.
const TIGHT_ITERS: u64 = 6;
const CAS_OPS: u64 = 6;
const CAS_CS: u64 = 16;
const ALU_PHASES: u64 = 3;
const ALU_WORK: u64 = 256;

/// The lab's lossy channel: a bursty Gilbert-Elliott link with the
/// chaos soak's burst dynamics (mostly clean, error bursts averaging
/// ~10 bit-times) whose bad-state BER is `ber` and whose good state is
/// 100x cleaner. `ber == 0` means an ideal channel (no plan). An audit
/// period backstops detection so divergence is always eventually found.
pub fn lab_channel(ber: f64, seed: u64) -> FaultPlan {
    if ber <= 0.0 {
        return FaultPlan::none();
    }
    FaultPlan::none()
        .with_gilbert_elliott(5e-4, 0.1, ber / 100.0, ber)
        .with_audit_period(AUDIT_PERIOD)
        .with_seed(seed)
}

/// Outcome of one lab cell.
#[derive(Clone, Debug)]
pub struct LabCell {
    /// MAC policy under test.
    pub mac: MacPolicy,
    /// Workload that ran.
    pub workload: LabWorkload,
    /// Bad-state BER of the lab channel (0 = ideal).
    pub ber: f64,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Cycles consumed.
    pub cycles: u64,
    /// Run completed AND the workload's correctness oracle passed.
    pub correct: bool,
    /// Oracle failure description, if any.
    pub error: Option<String>,
    /// Fault signals the machine itself detected.
    pub detected: u64,
    /// Ground-truth injected fault events.
    pub injected: u64,
    /// Corruptions that escaped the checksum (injector ground truth).
    pub undetected: u64,
    /// Data-channel counters at the end of the run.
    pub data: DataChannelStats,
    /// Top of the per-address contention leaderboard:
    /// `(phys, busy_cycles, transfers, collisions)`.
    pub hot_lines: Vec<(usize, u64, u64, u64)>,
}

impl LabCell {
    /// The chaos resilience contract, restated for lab cells: a run is
    /// acceptable when it is correct, or wrong but detected, or wrong
    /// only because of corruptions the channel made undetectable.
    /// `Some(why)` is a silent-divergence violation.
    pub fn violation(&self) -> Option<String> {
        if self.correct || self.detected > 0 || self.undetected > 0 {
            return None;
        }
        Some(format!(
            "{}/{} at ber {:.0e}: outcome {:?}, error {:?}, but zero detected faults",
            self.mac, self.workload, self.ber, self.outcome, self.error
        ))
    }

    /// Renders the cell as the `data` object of a `mac_lab.json` row.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mac", Json::Str(self.mac.to_string())),
            ("workload", Json::Str(self.workload.to_string())),
            ("machine", Json::Str(self.workload.kind().to_string())),
            ("ber", Json::F64(self.ber)),
            ("outcome", Json::Str(format!("{:?}", self.outcome))),
            ("cycles", Json::U64(self.cycles)),
            ("correct", Json::Bool(self.correct)),
            ("ok", Json::Bool(self.violation().is_none())),
            ("transfers", Json::U64(self.data.transfers)),
            ("collisions", Json::U64(self.data.collisions)),
            ("busy_cycles", Json::U64(self.data.busy_cycles)),
            ("mac_grants", Json::U64(self.data.mac_grants)),
            ("mac_exhaustions", Json::U64(self.data.mac_exhaustions)),
            ("token_pass_cycles", Json::U64(self.data.token_pass_cycles)),
            ("mac_mode_switches", Json::U64(self.data.mac_mode_switches)),
            ("injected", Json::U64(self.injected)),
            ("detected", Json::U64(self.detected)),
            (
                "hot_lines",
                Json::Arr(
                    self.hot_lines
                        .iter()
                        .map(|(phys, busy, transfers, collisions)| {
                            Json::obj([
                                ("phys", Json::U64(*phys as u64)),
                                ("busy_cycles", Json::U64(*busy)),
                                ("transfers", Json::U64(*transfers)),
                                ("collisions", Json::U64(*collisions)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// A workload's correctness oracle, captured over its checker handle.
type Oracle = Box<dyn Fn(&Machine) -> Result<(), String>>;

/// Runs one lab cell: `workload` under `mac` on the cell's machine
/// kind, over `lab_channel(ber, plan_seed)`, with observability
/// attached. Deterministic: the same `(mac, workload, ber, plan_seed)`
/// always produces the same cell.
pub fn run_cell(mac: MacPolicy, workload: LabWorkload, ber: f64, plan_seed: u64) -> LabCell {
    let mut m = Machine::new(MachineConfig::for_kind(workload.kind(), LAB_CORES).with_mac(mac));
    m.enable_observability(ObsConfig::default());
    m.set_fault_plan(lab_channel(ber, plan_seed));
    let check: Oracle = match workload {
        LabWorkload::TightLoop => {
            let wl = TightLoop::new(TIGHT_ITERS);
            wl.load(&mut m);
            Box::new(move |m| wl.check(m))
        }
        LabWorkload::Fifo | LabWorkload::Add => {
            let kernel = CasKernel {
                kind: if workload == LabWorkload::Fifo {
                    CasKind::Fifo
                } else {
                    CasKind::Add
                },
                critical_section: CAS_CS,
                ops_per_thread: CAS_OPS,
            };
            let chk = kernel.load(&mut m);
            Box::new(move |m| chk.check(m))
        }
        LabWorkload::AluPhases => {
            let wl = AluPhases {
                phases: ALU_PHASES,
                work: ALU_WORK,
            };
            wl.load(&mut m);
            Box::new(move |m| wl.check(m))
        }
    };
    let r = m.run(CHAOS_BUDGET);
    let oracle = if r.outcome == RunOutcome::Completed {
        check(&m)
    } else {
        Err(format!("run ended in {:?}", r.outcome))
    };
    let hot_lines = m
        .observability()
        .expect("observability enabled")
        .addr
        .leaderboard(HOT_LINES)
        .into_iter()
        .map(|(phys, s)| (phys, s.busy_cycles, s.transfers, s.collisions))
        .collect();
    let stats = m.stats();
    LabCell {
        mac,
        workload,
        ber,
        outcome: r.outcome,
        cycles: r.cycles.as_u64(),
        correct: oracle.is_ok(),
        error: oracle.err(),
        detected: stats.fault_stats.detected(),
        injected: stats.fault_stats.injected(),
        undetected: stats.fault_stats.undetected_corruptions,
        data: stats.data.clone(),
        hot_lines,
    }
}

/// The lab matrix as `(mac, workload, ber)` triples, in committed row
/// order. Quick mode keeps every MAC and workload but only the ideal
/// channel and the worst BER.
pub fn lab_matrix(quick: bool) -> Vec<(MacPolicy, LabWorkload, f64)> {
    let bers: Vec<f64> = if quick {
        vec![LAB_BERS[0], LAB_BERS[3]]
    } else {
        LAB_BERS.to_vec()
    };
    let mut cells = Vec::new();
    for mac in LAB_MACS {
        for workload in LabWorkload::all() {
            for &ber in &bers {
                cells.push((mac, workload, ber));
            }
        }
    }
    cells
}

/// Human-readable lab summary (the `mac_lab` binary's stdout, also
/// committed as `results/mac_lab.txt`): per (workload, ber) the winning
/// MAC by cycles, with the winner's hottest contended line cited from
/// the obs per-address leaderboard — the line whose collision (or
/// grant) pile-up explains the ranking. Takes the `data` objects of
/// `mac_lab.json` rows in matrix order; derived entirely from simulated
/// state, so the text is as byte-stable as the JSON.
pub fn render_lab_text(rows: &[Json]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "mac lab: {} cells ({} MACs x {} workloads, {LAB_CORES} cores)",
        rows.len(),
        LAB_MACS.len(),
        LabWorkload::all().len()
    );
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "  {:<10} {:>6} {:>9} {:>12} {:>11} {:>11} {:>7}  hottest line (phys: busy_cycles, collisions)",
        "workload", "ber", "winner", "cycles", "collisions", "exhaustions", "passes"
    );
    for workload in LabWorkload::all() {
        let name = workload.to_string();
        let mut bers: Vec<f64> = Vec::new();
        for r in rows.iter().filter(|r| text(r, "workload") == name) {
            let ber = num(field(r, "ber"));
            if !bers.contains(&ber) {
                bers.push(ber);
            }
        }
        for ber in bers {
            let group: Vec<&Json> = rows
                .iter()
                .filter(|r| text(r, "workload") == name && num(field(r, "ber")) == ber)
                .collect();
            // Winner: fewest cycles among correct runs; ties break in
            // LAB_MACS order (rows are already in that order).
            let Some(win) = group
                .iter()
                .filter(|r| field(r, "correct") == &Json::Bool(true))
                .min_by_key(|r| int(field(r, "cycles")))
                .or_else(|| group.first())
            else {
                continue;
            };
            let hot = match field(win, "hot_lines") {
                Json::Arr(lines) if !lines.is_empty() => {
                    let l = &lines[0];
                    format!(
                        "{}: {}, {}",
                        int(field(l, "phys")),
                        int(field(l, "busy_cycles")),
                        int(field(l, "collisions"))
                    )
                }
                _ => "none".to_string(),
            };
            let _ = writeln!(
                w,
                "  {:<10} {:>6} {:>9} {:>12} {:>11} {:>11} {:>7}  {hot}",
                name,
                if ber == 0.0 {
                    "0".to_string()
                } else {
                    format!("{ber:.0e}")
                },
                text(win, "mac"),
                int(field(win, "cycles")),
                int(field(win, "collisions")),
                int(field(win, "mac_exhaustions")),
                int(field(win, "token_pass_cycles")),
            );
        }
    }
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "contended-line leaderboard per winner is the top of the obs per-address\n\
         table: a single hot line with a collision pile-up favors the token grant\n\
         schedule; sparse lines make token passing pure overhead."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_channel_cells_are_correct_for_every_lab_mac() {
        for mac in LAB_MACS {
            for workload in LabWorkload::all() {
                let c = run_cell(mac, workload, 0.0, 1);
                assert!(c.correct, "{mac}/{workload}: {:?}", c.error);
                assert_eq!(c.injected, 0, "{mac}/{workload}");
                assert!(c.data.transfers > 0, "{mac}/{workload}");
            }
        }
    }

    #[test]
    fn token_cells_are_collision_free_on_the_ideal_channel() {
        let c = run_cell(MacPolicy::TokenRing, LabWorkload::TightLoop, 0.0, 1);
        assert_eq!(c.data.collisions, 0);
        assert!(c.data.mac_grants > 0, "contended slots must be granted");
        assert!(c.data.token_pass_cycles > 0);
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        let go = || {
            let c = run_cell(MacPolicy::AdaptiveHybrid, LabWorkload::Add, 1e-3, 7);
            (c.cycles, c.correct, c.to_json().render())
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn lossy_cells_hold_the_resilience_contract() {
        for mac in LAB_MACS {
            let c = run_cell(mac, LabWorkload::TightLoop, 1e-2, 3);
            assert_eq!(c.violation(), None, "{mac}: {:?}", c.error);
            assert!(c.injected > 0, "{mac}: bad-state BER 1e-2 must fire");
        }
    }

    #[test]
    fn matrix_covers_macs_workloads_and_bers() {
        let full = lab_matrix(false);
        assert_eq!(full.len(), 3 * 4 * 4);
        let quick = lab_matrix(true);
        assert_eq!(quick.len(), 3 * 4 * 2);
        assert!(quick.iter().any(|(m, _, _)| *m == MacPolicy::TokenRing));
    }

    #[test]
    fn lab_text_cites_the_contention_leaderboard() {
        let rows: Vec<Json> = [MacPolicy::Exponential, MacPolicy::TokenRing]
            .into_iter()
            .map(|mac| run_cell(mac, LabWorkload::Add, 0.0, 1).to_json())
            .collect();
        let text = render_lab_text(&rows);
        assert!(text.contains("hottest line"), "{text}");
        assert!(text.contains("contended-line leaderboard"), "{text}");
        assert!(text.contains("add"), "{text}");
        // The hottest line is cited with real numbers, not "none": the
        // ADD kernel pounds one BM word through the channel.
        assert!(!text.contains(" none"), "{text}");
    }
}
