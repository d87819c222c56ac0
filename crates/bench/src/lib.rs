//! Shared harness code for regenerating every table and figure of the
//! WiSync paper (see DESIGN.md §4 for the experiment index).
//!
//! Each `figN` function runs one point of the corresponding experiment
//! and returns its raw numbers. [`grid`] turns them into the sweep's
//! jobs and is the only producer of the paper figures: the `sweep`
//! binary writes each figure as `results/<figure>.json` and renders the
//! same rows as the paper-style `results/<figure>.txt`.

pub mod chaos;
pub mod grid;
pub mod mac_lab;
pub mod report;
pub mod serve_metrics;

use wisync_core::{Machine, MachineConfig, MachineKind};
use wisync_workloads::{
    AppProfile, AppWorkload, CasKernel, CasKind, Livermore, LivermoreLoop, TightLoop,
};

pub use wisync_wireless::phys;

/// Cycle budget used for every harness run (generous; runs that exceed
/// it indicate a bug, not a slow workload).
pub const BUDGET: u64 = 2_000_000_000_000;

/// A Table 6 configuration variant, applied to a base config.
pub type Variant = fn(MachineConfig) -> MachineConfig;

/// Runs `run` on a fresh machine of each architecture at `cores` cores
/// under `variant`, in [`MachineKind::all`] order.
fn on_each_kind<T>(
    cores: usize,
    variant: Variant,
    mut run: impl FnMut(&mut Machine) -> T,
) -> [T; 4] {
    MachineKind::all().map(|kind| {
        let config = variant(MachineConfig::for_kind(kind, cores));
        run(&mut Machine::new(config))
    })
}

// --- Environment guard ---------------------------------------------------

/// The one environment variable any program here reads: the testkit's
/// property-test seed replay.
const SEED_REPLAY: &str = "WISYNC_TESTKIT_SEED";

/// Retired environment knobs and what replaced each.
const RETIRED_KNOBS: [(&str, &str); 3] = [
    ("WISYNC_QUICK", "pass --quick"),
    (
        "WISYNC_MAC",
        "pick the MAC in code with MachineConfig::with_mac, or compare MACs with mac_lab",
    ),
    (
        "WISYNC_EXEC",
        "pick the interpreter in code with MachineConfig::with_exec",
    ),
];

/// The error for the first `WISYNC_*` variable in `vars` other than
/// the seed replay, naming it and what to use instead; `None` when
/// there is none. Configuration lives in code and flags, so a set knob
/// would otherwise be ignored silently.
pub fn stray_knob(vars: impl IntoIterator<Item = (String, String)>) -> Option<String> {
    let knob = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("WISYNC_") && k != SEED_REPLAY)
        .min()?;
    let instead = RETIRED_KNOBS
        .iter()
        .find(|(name, _)| *name == knob)
        .map_or("no environment variable configures a run", |(_, r)| r);
    Some(format!("{knob} is set, but it is not read: {instead}"))
}

/// Exits with status 2 when [`stray_knob`] finds one in this process's
/// environment. Every binary calls it first.
pub fn exit_on_stray_knob() {
    let vars = std::env::vars_os().map(|(k, v)| {
        (
            k.to_string_lossy().into_owned(),
            v.to_string_lossy().into_owned(),
        )
    });
    if let Some(error) = stray_knob(vars) {
        eprintln!("error: {error}");
        std::process::exit(2);
    }
}

// --- Figure 7 -----------------------------------------------------------

/// One Figure 7 row: TightLoop cycles/iteration for every architecture
/// at `cores` cores.
pub fn fig7_row(cores: usize, iters: u64) -> [u64; 4] {
    on_each_kind(
        cores,
        |c| c,
        |m| TightLoop::new(iters).run_cycles_per_iter(m, BUDGET),
    )
}

/// The paper's Figure 7 core-count sweep.
pub fn fig7_core_counts() -> [usize; 5] {
    [16, 32, 64, 128, 256]
}

// --- Figure 8 -----------------------------------------------------------

/// The vector lengths of one Figure 8 panel.
pub fn fig8_lengths(which: LivermoreLoop) -> Vec<u64> {
    match which {
        // Loops 2 and 3 sweep 16..16384; loop 6's quadratic work stops
        // at 2048 (as in the paper).
        LivermoreLoop::Loop2 | LivermoreLoop::Loop3 => {
            vec![16, 64, 256, 1024, 4096, 16384]
        }
        LivermoreLoop::Loop6 => vec![16, 32, 64, 128, 256, 512, 1024, 2048],
    }
}

/// One Figure 8 data point: execution cycles for every architecture.
pub fn fig8_point(which: LivermoreLoop, n: u64, cores: usize) -> [u64; 4] {
    let wl = match which {
        LivermoreLoop::Loop2 => Livermore::loop2(n),
        LivermoreLoop::Loop3 => Livermore::loop3(n, 10),
        LivermoreLoop::Loop6 => Livermore::loop6(n),
    };
    on_each_kind(cores, |c| c, |m| wl.run_cycles(m, BUDGET))
}

// --- Figure 9 -----------------------------------------------------------

/// The critical-section sizes of Figure 9's x-axis (largest first, as
/// plotted).
pub fn fig9_critical_sections() -> [u64; 9] {
    [65_536, 16_384, 4_096, 1_024, 256, 64, 16, 8, 4]
}

/// Scales the per-thread op count so runs stay short at huge critical
/// sections and statistically meaningful at tiny ones.
pub fn fig9_ops_for(w: u64) -> u64 {
    (200_000 / (w + 100)).clamp(8, 200)
}

/// One Figure 9 data point: successful CASes per 1000 cycles for
/// (Baseline, WiSync).
pub fn fig9_point(kind: CasKind, w: u64, cores: usize) -> [f64; 2] {
    let kernel = CasKernel {
        kind,
        critical_section: w,
        ops_per_thread: fig9_ops_for(w),
    };
    let mut out = [0.0; 2];
    for (i, cfg) in [MachineConfig::baseline(cores), MachineConfig::wisync(cores)]
        .into_iter()
        .enumerate()
    {
        let mut m = Machine::new(cfg);
        let (cycles, successes) = kernel.run_throughput(&mut m, BUDGET);
        out[i] = successes as f64 * 1000.0 / cycles as f64;
    }
    out
}

// --- Figure 10 / Table 5 --------------------------------------------------

/// Result of one application across the four architectures.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Application name.
    pub name: &'static str,
    /// Cycles on each architecture, in [`MachineKind::all`] order.
    pub cycles: [u64; 4],
    /// Data-channel utilization (fraction) on WiSyncNoT and WiSync —
    /// Table 5's "WT" and "W" columns.
    pub util: [f64; 2],
}

impl AppResult {
    /// Speedup of architecture `i` over Baseline.
    pub fn speedup(&self, i: usize) -> f64 {
        self.cycles[0] as f64 / self.cycles[i] as f64
    }
}

/// Runs one application profile on all four architectures under a
/// Table 6 variant (`|c| c` for the default configuration).
pub fn fig10_app(profile: AppProfile, cores: usize, variant: Variant) -> AppResult {
    let runs = on_each_kind(cores, variant, |m| {
        let cycles = AppWorkload::new(profile).run_cycles(m, BUDGET);
        (cycles, m.stats().data_utilization)
    });
    AppResult {
        name: profile.name,
        cycles: runs.map(|(cycles, _)| cycles),
        util: [runs[2].1, runs[3].1],
    }
}

/// Geometric mean of a set of utilization fractions, as in Table 5's GM
/// row (zeros are floored at 1e-4 to keep the mean defined).
pub fn geomean_util(utils: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = utils.map(|u| u.max(1e-4)).collect();
    let log_sum: f64 = v.iter().map(|u| u.ln()).sum();
    (log_sum / v.len() as f64).exp()
}

// --- Figure 11 ------------------------------------------------------------

/// The Table 6 configuration variants by name.
pub fn fig11_variants() -> [(&'static str, Variant); 5] {
    [
        ("Default", |c| c),
        ("SlowNet", MachineConfig::slow_net),
        ("SlowNet+L2", MachineConfig::slow_net_l2),
        ("FastNet", MachineConfig::fast_net),
        ("SlowBMEM", MachineConfig::slow_bmem),
    ]
}

/// Runs the application suite under one Table 6 variant and returns the
/// geomean speedups over that variant's Baseline for (Baseline+,
/// WiSyncNoT, WiSync).
pub fn fig11_point(variant: Variant, cores: usize, apps: &[AppProfile]) -> [f64; 3] {
    let runs: Vec<AppResult> = apps.iter().map(|p| fig10_app(*p, cores, variant)).collect();
    let geo = |i: usize| {
        let log_sum: f64 = runs.iter().map(|r| r.speedup(i).ln()).sum();
        (log_sum / runs.len() as f64).exp()
    };
    [geo(1), geo(2), geo(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn stray_knob_names_the_variable_and_its_replacement() {
        assert_eq!(stray_knob(vars(&[("PATH", "/bin")])), None);
        assert_eq!(stray_knob(vars(&[("WISYNC_TESTKIT_SEED", "0x1")])), None);
        let error = |pairs| stray_knob(vars(pairs)).expect("a stray knob");
        assert_eq!(
            error(&[("WISYNC_QUICK", "1")]),
            "WISYNC_QUICK is set, but it is not read: pass --quick"
        );
        assert!(error(&[("WISYNC_MAC", "token")]).contains("with_mac"));
        assert!(error(&[("WISYNC_MAC", "token")]).contains("mac_lab"));
        assert!(error(&[("WISYNC_EXEC", "reference")]).contains("with_exec"));
        assert!(error(&[("WISYNC_SHARDS", "4")]).starts_with("WISYNC_SHARDS is set"));
        // The first in name order, whatever the environment's order.
        assert!(error(&[
            ("WISYNC_TESTKIT_SEED", "1"),
            ("WISYNC_QUICK", ""),
            ("WISYNC_EXEC", "")
        ])
        .starts_with("WISYNC_EXEC "));
    }

    #[test]
    fn fig7_row_has_expected_ordering() {
        let row = fig7_row(16, 4);
        assert!(row[3] < row[2], "WiSync < WiSyncNoT: {row:?}");
        assert!(row[2] < row[0], "WiSyncNoT < Baseline: {row:?}");
    }

    #[test]
    fn fig9_ops_scaling_bounds() {
        assert_eq!(fig9_ops_for(65_536), 8);
        assert_eq!(fig9_ops_for(4), 200);
    }

    #[test]
    fn geomean_util_floors_zeros() {
        assert!((geomean_util([0.01, 0.04].into_iter()) - 0.02).abs() < 1e-12);
        assert!((geomean_util([0.0, 1e-4].into_iter()) - 1e-4).abs() < 1e-12);
    }
}

#[cfg(test)]
mod ablation_tests {
    use wisync_core::{Machine, MachineConfig, Pid, RunOutcome};
    use wisync_isa::{Instr, ProgramBuilder, Reg, Space};
    use wisync_workloads::TightLoop;

    /// TightLoop barrier cycles per iteration on `cfg`.
    fn barrier_cycles(cfg: MachineConfig) -> u64 {
        TightLoop::new(5).run_cycles_per_iter(&mut Machine::new(cfg), 1_000_000_000)
    }

    /// The Tone channel barrier (§5.1) against the BM-central Data
    /// channel barrier WiSync falls back to when the tone tables hold
    /// no entry: at least 1.5x faster (526 vs 1082 cycles).
    #[test]
    fn tone_barrier_beats_the_data_channel_fallback() {
        let tone = barrier_cycles(MachineConfig::wisync(16));
        let mut cfg = MachineConfig::wisync(16);
        cfg.tone_table_capacity = 0;
        let fallback = barrier_cycles(cfg);
        assert!(
            3 * tone < 2 * fallback,
            "tone {tone} vs fallback {fallback} cycles per barrier"
        );
    }

    /// Baseline+'s tournament barrier with and without the virtual-tree
    /// invalidation multicast: within 5% (1310 vs 1289 cycles). Its
    /// flags have one waiter each, so there is little to multicast;
    /// Baseline+'s lead over Baseline comes from the algorithm.
    #[test]
    fn tree_multicast_barely_moves_the_tournament_barrier() {
        let tree = barrier_cycles(MachineConfig::baseline_plus(16));
        let mut cfg = MachineConfig::baseline_plus(16);
        cfg.mem.tree_multicast = false;
        let plain = barrier_cycles(cfg);
        assert!(
            20 * tree.abs_diff(plain) < plain,
            "tree {tree} vs plain {plain} cycles per barrier"
        );
    }

    /// §4.2.1: TSO lets a core compute past an in-flight BM store, so a
    /// store-then-compute loop runs faster than under SC (4599 vs 5599
    /// cycles).
    #[test]
    fn tso_store_compute_loop_beats_sc() {
        let run = |cfg: MachineConfig| {
            let mut m = Machine::new(cfg);
            let addr = m.bm_alloc(Pid(1), 1).unwrap();
            let mut b = ProgramBuilder::new();
            b.push(Instr::Li {
                dst: Reg(1),
                imm: 200,
            });
            let top = b.bind_here();
            b.push(Instr::St {
                src: Reg(1),
                base: Reg(0),
                offset: addr,
                space: Space::Bm,
            });
            b.push(Instr::Compute { cycles: 20 });
            b.push(Instr::Addi {
                dst: Reg(1),
                a: Reg(1),
                imm: u64::MAX,
            });
            b.push(Instr::Bnez {
                cond: Reg(1),
                target: top,
            });
            b.push(Instr::Halt);
            m.load_program(0, Pid(1), b.build().unwrap());
            let r = m.run(1_000_000);
            assert_eq!(r.outcome, RunOutcome::Completed);
            r.cycles.as_u64()
        };
        let sc = run(MachineConfig::wisync(16));
        let tso = run(MachineConfig::wisync(16).with_tso());
        assert!(tso < sc, "TSO {tso} vs SC {sc} cycles");
    }

    /// Without exponential backoff, a synchronized barrier burst on the
    /// Data channel livelocks: every retry collides with every other.
    /// This is why §5.3's backoff is not optional.
    #[test]
    fn no_backoff_livelocks_the_data_channel() {
        let mut cfg = MachineConfig::wisync_not(16);
        cfg.wireless.max_backoff_exp = 0;
        let mut m = Machine::new(cfg);
        TightLoop::new(3).load(&mut m);
        let r = m.run(2_000_000);
        assert_eq!(r.outcome, RunOutcome::CycleLimit, "expected livelock");
    }

    /// A second Data channel roughly doubles broadcast bandwidth when
    /// the channel itself is the bottleneck: every core streams stores
    /// to its own BM word, saturating a single channel (the §4.1
    /// multi-channel trade-off this repo implements as an extension).
    #[test]
    fn second_data_channel_doubles_streaming_bandwidth() {
        let run = |channels: usize| {
            let mut cfg = MachineConfig::wisync(16);
            cfg.wireless.data_channels = channels;
            let mut m = Machine::new(cfg);
            let words: Vec<u64> = (0..16).map(|_| m.bm_alloc(Pid(1), 1).unwrap()).collect();
            for (c, &addr) in words.iter().enumerate() {
                let mut b = ProgramBuilder::new();
                b.push(Instr::Li {
                    dst: Reg(1),
                    imm: 50,
                });
                let top = b.bind_here();
                b.push(Instr::St {
                    src: Reg(1),
                    base: Reg(0),
                    offset: addr,
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
                b.push(Instr::Halt);
                m.load_program(c, Pid(1), b.build().unwrap());
            }
            let r = m.run(100_000_000);
            assert_eq!(r.outcome, RunOutcome::Completed);
            r.cycles.as_u64()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            (two as f64) < 0.65 * one as f64,
            "two channels should nearly halve a saturated stream: {one} -> {two}"
        );
    }
}
