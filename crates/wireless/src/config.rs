//! Wireless channel timing parameters (Table 1, §4.1).

/// Medium-access policy of the shared Data channel (§5.3).
///
/// The paper uses exponential backoff and notes that adaptive policies
/// (a la Reactive Synchronization \[27\]) "would be easy to support
/// because all nodes have all the information at all times" — but does
/// not explore them. The same authors' MAC context analysis maps the
/// wider design space (random access, token passing, reservation,
/// hybrids); each variant here selects one [`crate::mac::Mac`]
/// implementation of that taxonomy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MacPolicy {
    /// Random exponential backoff (paper §5.3, the default).
    #[default]
    Exponential,
    /// Deterministic consensus ordering after a collision (the paper's
    /// unexplored adaptive alternative): since every transceiver
    /// observed the same collision, the colliding nodes book staggered
    /// TDMA slots in node-id order with no further collisions among
    /// themselves.
    Reactive,
    /// Deterministic rotating grant ([`crate::mac::TokenRing`]):
    /// contended slots never collide; the pending node nearest the
    /// token cursor wins and pays
    /// [`WirelessConfig::token_hop_cycles`] per ring hop to receive the
    /// grant.
    TokenRing,
    /// Token-vs-random switch on a contention EWMA
    /// ([`crate::mac::AdaptiveHybrid`]).
    AdaptiveHybrid,
}

impl MacPolicy {
    /// Stable lowercase label, used in result stamps and reports.
    pub fn label(self) -> &'static str {
        match self {
            MacPolicy::Exponential => "backoff",
            MacPolicy::Reactive => "reactive",
            MacPolicy::TokenRing => "token",
            MacPolicy::AdaptiveHybrid => "hybrid",
        }
    }

    /// All selectable policies, in stamp order.
    pub const ALL: [MacPolicy; 4] = [
        MacPolicy::Exponential,
        MacPolicy::Reactive,
        MacPolicy::TokenRing,
        MacPolicy::AdaptiveHybrid,
    ];
}

impl std::fmt::Display for MacPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Timing parameters of the wireless channels.
///
/// Defaults reproduce the paper: a 77-bit message over a 19 Gb/s channel
/// takes 4 transfer cycles plus 1 listen cycle = 5 cycles; a collision is
/// detected in the second cycle, so colliding transfers release the
/// channel after 2 cycles; a Bulk message takes 15 cycles (the three
/// trailing words skip the collision check and carry no header).
///
/// # Examples
///
/// ```
/// use wisync_wireless::WirelessConfig;
///
/// let c = WirelessConfig::default();
/// assert_eq!(c.tx_cycles, 5);
/// assert_eq!(c.bulk_cycles, 15);
/// assert_eq!(c.collision_cycles, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WirelessConfig {
    /// Cycles a normal Data channel message occupies the channel.
    pub tx_cycles: u64,
    /// Cycles a Bulk (4-word) message occupies the channel.
    pub bulk_cycles: u64,
    /// Cycles a collision occupies the channel before it is free again.
    pub collision_cycles: u64,
    /// Maximum exponent of the exponential-backoff window (caps the
    /// random wait at `2^max_backoff_exp - 1` cycles), as in Ethernet
    /// \[32\].
    pub max_backoff_exp: u32,
    /// Seed for the MAC's deterministic backoff randomness.
    pub seed: u64,
    /// Medium-access policy (§5.3).
    pub mac_policy: MacPolicy,
    /// Cycles to pass the grant one ring hop under the token policies
    /// ([`MacPolicy::TokenRing`], [`MacPolicy::AdaptiveHybrid`]'s token
    /// mode). The grant is a short control tone, far cheaper than a
    /// 5-cycle data message, but not free — this keeps token passing an
    /// honest trade against collision windows.
    pub token_hop_cycles: u64,
    /// Number of parallel Data channels at different frequency bands.
    ///
    /// The paper uses one ("we want to keep our system simple and the
    /// transceiver small", §4.1) but discusses multiple channels as the
    /// way to enable parallel wireless communication; this knob exists
    /// for that exploration (BM addresses are interleaved across
    /// channels). Area/power would scale roughly linearly (§2).
    pub data_channels: usize,
}

impl WirelessConfig {
    /// The paper's Table 1 parameters.
    pub fn new() -> Self {
        WirelessConfig {
            tx_cycles: 5,
            bulk_cycles: 15,
            collision_cycles: 2,
            max_backoff_exp: 10,
            seed: 0x5739_4C01,
            mac_policy: MacPolicy::Exponential,
            token_hop_cycles: 1,
            data_channels: 1,
        }
    }
}

impl Default for WirelessConfig {
    fn default() -> Self {
        WirelessConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WirelessConfig::default();
        assert_eq!(c.tx_cycles, 5);
        assert_eq!(c.bulk_cycles, 15);
        assert_eq!(c.collision_cycles, 2);
        assert!(c.max_backoff_exp >= 4);
        assert_eq!(c.data_channels, 1, "the paper's single-channel design");
    }

    #[test]
    fn mac_policy_labels_are_distinct() {
        let labels: Vec<String> = MacPolicy::ALL.iter().map(|p| p.to_string()).collect();
        for (i, label) in labels.iter().enumerate() {
            assert_eq!(label, MacPolicy::ALL[i].label());
            assert!(!labels[..i].contains(label), "{label} repeats");
        }
        assert_eq!(MacPolicy::default(), MacPolicy::Exponential);
    }
}
