//! Machine configurations: the four compared architectures (Table 2) and
//! the sensitivity variants (Table 6).

use wisync_mem::MemConfig;
use wisync_wireless::WirelessConfig;

/// Memory consistency model for Broadcast Memory stores (§4.2.1).
///
/// A BM store must broadcast before it performs. The paper allows two
/// pipeline policies for what the core may do meanwhile:
///
/// - [`BmConsistency::Sc`]: the core stalls until the WCB sets
///   (sequential consistency) — the paper's conservative option and this
///   simulator's default.
/// - [`BmConsistency::Tso`]: the core keeps executing past the store
///   (one outstanding BM store, ordered; loads to the in-flight address
///   forward from the store buffer) — total store order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BmConsistency {
    /// Stall on BM stores until they complete.
    #[default]
    Sc,
    /// Continue past BM stores; drain before the next BM store, BM RMW,
    /// or halt.
    Tso,
}

/// Which core-stepping interpreter [`crate::Machine`] uses.
///
/// Both modes produce byte-identical machine state, stats, and obs
/// attributions — the differential tests in `wisync-core` and
/// `wisync-bench` enforce this. The micro-op path is the default; the
/// reference path is the executable specification, kept for
/// differential testing and debugging.
///
/// The `WISYNC_EXEC` environment variable (`uop` or `reference`/`ref`)
/// selects the default for configurations built through the named
/// constructors, so whole binaries (sweeps, perf runs) can be A/B'd
/// without code changes; any other non-empty value is an error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Decode programs to micro-ops at load; execute straight-line runs
    /// in a tight loop and yield to the event wheel only at boundaries.
    #[default]
    Uop,
    /// The original per-`Instr` interpreter.
    Reference,
}

/// Every spelling [`ExecMode::parse`] accepts (in any case), as the
/// error for an unknown `WISYNC_EXEC` value lists them.
const EXEC_SPELLINGS: &str = "uop, default, reference, ref";

impl ExecMode {
    /// Parses a knob value (`uop`/`default` or `reference`/`ref`, in any
    /// case), mirroring `MacPolicy::parse`; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "uop" | "default" => Some(ExecMode::Uop),
            "reference" | "ref" => Some(ExecMode::Reference),
            _ => None,
        }
    }

    /// The mode selected by the `WISYNC_EXEC` environment variable, or
    /// [`ExecMode::Uop`] when it is unset or empty.
    ///
    /// # Panics
    ///
    /// On any value [`ExecMode::parse`] rejects: a typo must not run the
    /// default silently.
    pub fn from_env() -> Self {
        let value = std::env::var_os("WISYNC_EXEC").unwrap_or_default();
        ExecMode::resolve(&value.to_string_lossy())
    }

    fn resolve(value: &str) -> Self {
        match value.trim() {
            "" => ExecMode::default(),
            v => ExecMode::parse(v).unwrap_or_else(|| {
                panic!(
                    "WISYNC_EXEC={value:?} is not an exec mode (accepted: {EXEC_SPELLINGS}; \
                        unset or empty means uop)"
                )
            }),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Uop => f.write_str("uop"),
            ExecMode::Reference => f.write_str("reference"),
        }
    }
}

/// Which of the paper's four architectures to build (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// Plain manycore: no wireless hardware. Synchronization uses CAS and
    /// a centralized sense-reversing barrier through the caches.
    Baseline,
    /// Baseline plus virtual-tree broadcast in the NoC, MCS locks, and
    /// tournament barriers.
    BaselinePlus,
    /// WiSync without the Tone channel: BM + Data channel only; barriers
    /// run over the Data channel.
    WiSyncNoT,
    /// Full WiSync: BM + Data channel + Tone channel.
    WiSync,
}

impl MachineKind {
    /// Whether this machine has a Broadcast Memory and Data channel.
    pub fn has_bm(self) -> bool {
        matches!(self, MachineKind::WiSyncNoT | MachineKind::WiSync)
    }

    /// Whether this machine has the Tone channel.
    pub fn has_tone(self) -> bool {
        self == MachineKind::WiSync
    }

    /// Short name used in reports ("Baseline", "Baseline+", ...).
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Baseline => "Baseline",
            MachineKind::BaselinePlus => "Baseline+",
            MachineKind::WiSyncNoT => "WiSyncNoT",
            MachineKind::WiSync => "WiSync",
        }
    }

    /// All four kinds, in the paper's comparison order.
    pub fn all() -> [MachineKind; 4] {
        [
            MachineKind::Baseline,
            MachineKind::BaselinePlus,
            MachineKind::WiSyncNoT,
            MachineKind::WiSync,
        ]
    }
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration of a simulated manycore.
///
/// # Examples
///
/// ```
/// use wisync_core::{MachineConfig, MachineKind};
///
/// let cfg = MachineConfig::wisync(64);
/// assert_eq!(cfg.cores, 64);
/// assert!(cfg.kind.has_tone());
/// assert_eq!(cfg.hop_latency, 4);
/// let slow = MachineConfig::wisync(64).slow_net();
/// assert_eq!(slow.hop_latency, 6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Architecture variant.
    pub kind: MachineKind,
    /// Number of cores (paper sweeps 16–256, default 64).
    pub cores: usize,
    /// NoC hop latency in cycles (Table 1: 4; Table 6 varies 2–6).
    pub hop_latency: u64,
    /// Wired memory hierarchy parameters.
    pub mem: MemConfig,
    /// Wireless channel parameters.
    pub wireless: WirelessConfig,
    /// BM round-trip in cycles (Table 1: 2; Table 6's SlowBMEM: 4).
    pub bm_rt: u64,
    /// BM capacity in 64-bit entries (Table 1: 16 KB = 2048 entries).
    pub bm_entries: usize,
    /// AllocB/ActiveB tone-table capacity (§5.1).
    pub tone_table_capacity: usize,
    /// Consistency model for BM stores (§4.2.1).
    pub bm_consistency: BmConsistency,
    /// Master seed for all deterministic randomness.
    pub seed: u64,
    /// Core-stepping interpreter (timing-neutral; see [`ExecMode`]).
    pub exec: ExecMode,
}

impl MachineConfig {
    fn base(kind: MachineKind, cores: usize) -> Self {
        let mem = if kind == MachineKind::BaselinePlus {
            MemConfig::new().with_tree_multicast()
        } else {
            MemConfig::new()
        };
        MachineConfig {
            kind,
            cores,
            hop_latency: 4,
            mem,
            wireless: WirelessConfig {
                // The WISYNC_MAC knob selects the Data channel's
                // medium-access policy; unset or unknown values keep the
                // paper's exponential backoff, so committed results are
                // untouched.
                mac_policy: wisync_wireless::MacPolicy::from_env(),
                ..WirelessConfig::new()
            },
            bm_rt: 2,
            bm_entries: 2048,
            tone_table_capacity: 16,
            bm_consistency: BmConsistency::Sc,
            seed: 0xA5ED,
            exec: ExecMode::from_env(),
        }
    }

    /// The plain Baseline machine (Table 2, row 1).
    pub fn baseline(cores: usize) -> Self {
        MachineConfig::base(MachineKind::Baseline, cores)
    }

    /// Baseline+ with virtual-tree broadcast hardware (Table 2, row 2).
    pub fn baseline_plus(cores: usize) -> Self {
        MachineConfig::base(MachineKind::BaselinePlus, cores)
    }

    /// WiSync without the Tone channel (Table 2, row 3).
    pub fn wisync_not(cores: usize) -> Self {
        MachineConfig::base(MachineKind::WiSyncNoT, cores)
    }

    /// Full WiSync (Table 2, row 4).
    pub fn wisync(cores: usize) -> Self {
        MachineConfig::base(MachineKind::WiSync, cores)
    }

    /// Configuration for `kind` with paper defaults.
    pub fn for_kind(kind: MachineKind, cores: usize) -> Self {
        MachineConfig::base(kind, cores)
    }

    /// Table 6 "SlowNet": hop latency 4 → 6 cycles.
    pub fn slow_net(mut self) -> Self {
        self.hop_latency = 6;
        self
    }

    /// Table 6 "SlowNet+L2": hop latency 6 and L2 round trip 12.
    pub fn slow_net_l2(mut self) -> Self {
        self.hop_latency = 6;
        self.mem.l2_rt = 12;
        self
    }

    /// Table 6 "FastNet": hop latency 4 → 2 cycles.
    pub fn fast_net(mut self) -> Self {
        self.hop_latency = 2;
        self
    }

    /// Table 6 "SlowBMEM": BM round trip 2 → 4 cycles.
    pub fn slow_bmem(mut self) -> Self {
        self.bm_rt = 4;
        self
    }

    /// Selects the TSO pipeline policy for BM stores (§4.2.1).
    pub fn with_tso(mut self) -> Self {
        self.bm_consistency = BmConsistency::Tso;
        self
    }

    /// Overrides the deterministic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the Data channel's medium-access policy (see
    /// [`wisync_wireless::MacPolicy`]). The default comes from the
    /// `WISYNC_MAC` environment knob (exponential backoff when unset).
    pub fn with_mac(mut self, mac: wisync_wireless::MacPolicy) -> Self {
        self.wireless.mac_policy = mac;
        self
    }

    /// Overrides the core-stepping interpreter (see [`ExecMode`]).
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_capabilities() {
        assert!(!MachineKind::Baseline.has_bm());
        assert!(!MachineKind::BaselinePlus.has_bm());
        assert!(MachineKind::WiSyncNoT.has_bm());
        assert!(MachineKind::WiSync.has_bm());
        assert!(!MachineKind::WiSyncNoT.has_tone());
        assert!(MachineKind::WiSync.has_tone());
        assert_eq!(MachineKind::all().len(), 4);
        assert_eq!(MachineKind::BaselinePlus.to_string(), "Baseline+");
    }

    #[test]
    fn baseline_plus_gets_tree_multicast() {
        assert!(MachineConfig::baseline_plus(64).mem.tree_multicast);
        assert!(!MachineConfig::baseline(64).mem.tree_multicast);
        assert!(!MachineConfig::wisync(64).mem.tree_multicast);
    }

    #[test]
    fn table6_variants() {
        let d = MachineConfig::wisync(64);
        assert_eq!(d.hop_latency, 4);
        assert_eq!(d.mem.l2_rt, 6);
        assert_eq!(d.bm_rt, 2);
        assert_eq!(d.slow_net().hop_latency, 6);
        let snl2 = d.slow_net_l2();
        assert_eq!((snl2.hop_latency, snl2.mem.l2_rt), (6, 12));
        assert_eq!(d.fast_net().hop_latency, 2);
        assert_eq!(d.slow_bmem().bm_rt, 4);
    }

    #[test]
    fn consistency_model_selection() {
        assert_eq!(MachineConfig::wisync(16).bm_consistency, BmConsistency::Sc);
        assert_eq!(
            MachineConfig::wisync(16).with_tso().bm_consistency,
            BmConsistency::Tso
        );
    }

    #[test]
    fn exec_mode_selection() {
        // The environment default is Uop in a clean test environment;
        // the builder overrides it explicitly either way.
        assert_eq!(
            MachineConfig::wisync(16)
                .with_exec(ExecMode::Reference)
                .exec,
            ExecMode::Reference
        );
        assert_eq!(
            MachineConfig::wisync(16).with_exec(ExecMode::Uop).exec,
            ExecMode::Uop
        );
        assert_eq!(ExecMode::Uop.to_string(), "uop");
        assert_eq!(ExecMode::Reference.to_string(), "reference");
        assert_eq!(ExecMode::default(), ExecMode::Uop);
        // Every accepted alias, in any case and padding; unset or empty
        // is the default only at the knob.
        for name in EXEC_SPELLINGS.split(", ") {
            let mode = ExecMode::parse(name).unwrap_or_else(|| panic!("{name}"));
            let shouted = format!(" {} ", name.to_uppercase());
            assert_eq!(ExecMode::resolve(&shouted), mode, "{shouted:?}");
        }
        assert_eq!(ExecMode::parse(""), None);
        assert_eq!(ExecMode::resolve(""), ExecMode::Uop);
    }

    #[test]
    #[should_panic(expected = "WISYNC_EXEC=\"refrence\" is not an exec mode (accepted: ")]
    fn unknown_exec_mode_is_an_error() {
        ExecMode::resolve("refrence");
    }

    #[test]
    fn bm_defaults_match_table1() {
        let c = MachineConfig::wisync(64);
        assert_eq!(c.bm_entries, 2048, "16KB of 64-bit entries");
        assert_eq!(c.bm_rt, 2);
    }
}
