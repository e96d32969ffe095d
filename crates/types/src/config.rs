//! Simulated-machine configuration.
//!
//! [`SystemConfig::paper_baseline`] reproduces Table I of the paper exactly;
//! every sensitivity study in Section VI is expressed as a small mutation of
//! that baseline through the builder-style `with_*` methods.

use crate::page::AllocPolicy;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Maximum associativity the simulator's set-associative arrays support:
/// each set's validity is one `u64` bitmask. A fully-associative
/// structure (a PWC level) is one set, so its entry count is its
/// associativity.
pub const MAX_WAYS: usize = 64;

/// Replacement policy selector for TLBs and caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementKind {
    /// Least-recently-used (the paper's baseline).
    #[default]
    Lru,
    /// Static re-reference interval prediction (Jaleel et al., ISCA'10),
    /// used by the Fig. 11f sensitivity study.
    Srrip,
    /// First-in first-out, used by small helper structures.
    Fifo,
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => f.write_str("LRU"),
            ReplacementKind::Srrip => f.write_str("SRRIP"),
            ReplacementKind::Fifo => f.write_str("FIFO"),
        }
    }
}

/// Configuration of one set-associative cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access (hit) latency in cycles.
    pub latency: u32,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Number of sets implied by the capacity, associativity and the global
    /// 64-byte block size. The count need not be a power of two (sets are
    /// indexed by modulo); it is exact only for a configuration that
    /// passes [`SystemConfig::validate`].
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * crate::BLOCK_SIZE)
    }

    /// Total number of blocks.
    pub fn blocks(&self) -> u64 {
        self.size_bytes / crate::BLOCK_SIZE
    }
}

/// Configuration of one TLB level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles.
    pub latency: u32,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl TlbConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// Configuration of the three-level page-walk cache hierarchy.
///
/// Level 0 caches pointers to leaf page-table pages (skips 3 of 4 walk
/// accesses), level 2 caches pointers to PDPT pages (skips 1 of 4). All
/// levels are fully associative, per Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PwcConfig {
    /// Entry counts for PWC L1/L2/L3 (paper: 4, 8, 16).
    pub entries: [u32; 3],
    /// Lookup latencies in cycles for PWC L1/L2/L3 (paper: 1, 1, 2).
    pub latency: [u32; 3],
}

/// Out-of-order core parameters for the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Dispatch/retire width in instructions per cycle.
    pub width: u32,
    /// Reorder-buffer capacity in instructions; independent misses within
    /// one ROB window overlap.
    pub rob_size: u32,
    /// Maximum concurrently outstanding memory operations (line-fill
    /// buffer / MSHR count) — the memory-level-parallelism cap.
    pub mem_slots: u32,
}

/// Where a completed page walk places the translation.
///
/// Paper Section III: *"When a page walk completes, it places the
/// translation in both L1 and L2 TLB (LLT) in our design. Alternatively,
/// it is possible to place the translation into L1 TLB only. An entry can
/// then be placed in the LLT on its eviction from the L1. However, we did
/// not find any significant performance difference between these two
/// alternative designs."* Both designs are implemented; the ablation
/// harness compares them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TlbFillPolicy {
    /// Fill both the L1 TLB and the LLT at walk completion (the paper's
    /// default).
    #[default]
    Both,
    /// Fill only the L1 TLB; the LLT is filled when the entry is evicted
    /// from the L1 (a victim-TLB organization).
    L1ThenVictim,
}

/// Full simulated-system configuration (paper Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// L1 instruction TLB (paper: 128 entries, 4-way, 1 cycle).
    pub l1_itlb: TlbConfig,
    /// L1 data TLB (paper: 64 entries, 4-way, 1 cycle).
    pub l1_dtlb: TlbConfig,
    /// L2 unified TLB — the last-level TLB (paper: 1024 entries, 8-way,
    /// 8 cycles).
    pub l2_tlb: TlbConfig,
    /// Page-walk caches.
    pub pwc: PwcConfig,
    /// L1 data cache (paper: 32 KB, 8-way, 5 cycles).
    pub l1d: CacheConfig,
    /// L2 cache (paper: 256 KB, 8-way, 11 cycles).
    pub l2: CacheConfig,
    /// L3 / last-level cache, inclusive (paper: 2 MB, 16-way, 40 cycles).
    pub llc: CacheConfig,
    /// Main-memory access latency in cycles (paper: 191).
    pub mem_latency: u32,
    /// Where walk results are placed (paper default: both TLB levels).
    pub tlb_fill: TlbFillPolicy,
    /// How the simulated OS maps the address space onto page sizes
    /// (default: 4 KB base pages everywhere, the paper's grain). Huge
    /// policies add per-size L1 TLB structures and shorter radix walks.
    pub page_policy: AllocPolicy,
}

impl SystemConfig {
    /// The exact baseline machine of the paper's Table I.
    ///
    /// ```
    /// use dpc_types::SystemConfig;
    /// let c = SystemConfig::paper_baseline();
    /// c.validate().expect("paper baseline must be valid");
    /// assert_eq!(c.llc.size_bytes, 2 * 1024 * 1024);
    /// assert_eq!(c.mem_latency, 191);
    /// ```
    pub fn paper_baseline() -> Self {
        use ReplacementKind::Lru;
        Self {
            core: CoreConfig { width: 4, rob_size: 192, mem_slots: 10 },
            l1_itlb: TlbConfig { entries: 128, ways: 4, latency: 1, replacement: Lru },
            l1_dtlb: TlbConfig { entries: 64, ways: 4, latency: 1, replacement: Lru },
            l2_tlb: TlbConfig { entries: 1024, ways: 8, latency: 8, replacement: Lru },
            pwc: PwcConfig { entries: [4, 8, 16], latency: [1, 1, 2] },
            l1d: CacheConfig { size_bytes: 32 << 10, ways: 8, latency: 5, replacement: Lru },
            l2: CacheConfig { size_bytes: 256 << 10, ways: 8, latency: 11, replacement: Lru },
            llc: CacheConfig { size_bytes: 2 << 20, ways: 16, latency: 40, replacement: Lru },
            mem_latency: 191,
            tlb_fill: TlbFillPolicy::Both,
            page_policy: AllocPolicy::Base4K,
        }
    }

    /// Returns a copy using the given walk-fill placement.
    pub fn with_tlb_fill(mut self, tlb_fill: TlbFillPolicy) -> Self {
        self.tlb_fill = tlb_fill;
        self
    }

    /// Returns a copy with a resized L2 TLB (Fig. 11a: 512/1024/1536
    /// entries). Associativity is kept at 8 ways.
    pub fn with_l2_tlb_entries(mut self, entries: u32) -> Self {
        self.l2_tlb.entries = entries;
        self
    }

    /// Returns a copy with a different L2 TLB associativity (the iso-storage
    /// comparison of Fig. 9 grows the LLT from 8 to 9 ways).
    pub fn with_l2_tlb_ways(mut self, ways: u32) -> Self {
        self.l2_tlb.entries = self.l2_tlb.entries / self.l2_tlb.ways * ways;
        self.l2_tlb.ways = ways;
        self
    }

    /// Returns a copy with a resized LLC (Fig. 11e: 2 MB vs 3 MB per core).
    /// A 3 MB LLC keeps 16 ways, giving 3072 sets.
    pub fn with_llc_bytes(mut self, size_bytes: u64) -> Self {
        self.llc.size_bytes = size_bytes;
        self
    }

    /// Returns a copy with the L2 TLB using the given replacement policy
    /// (Fig. 11f).
    pub fn with_l2_tlb_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.l2_tlb.replacement = replacement;
        self
    }

    /// Returns a copy with the LLC using the given replacement policy
    /// (Fig. 11f).
    pub fn with_llc_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.llc.replacement = replacement;
        self
    }

    /// Returns a copy using the given page-size allocation policy. The
    /// per-size L1 TLB geometries come from [`crate::PageSize::l1_dtlb`] /
    /// [`crate::PageSize::l1_itlb`]; the `l1_itlb`/`l1_dtlb` fields keep
    /// describing the 4 KB structures.
    pub fn with_page_policy(mut self, page_policy: AllocPolicy) -> Self {
        self.page_policy = page_policy;
        self
    }

    /// Checks structural invariants the simulator relies on.
    ///
    /// Set counts need not be powers of two (the 3 MB LLC of Fig. 11e has
    /// 3072 sets); the simulator indexes sets by modulo.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant:
    /// zero sizes, associativities that do not divide entry counts, or
    /// more than [`MAX_WAYS`] ways.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let too_wide = |ways: u32| ways as usize > MAX_WAYS;
        for (name, tlb) in
            [("l1_itlb", &self.l1_itlb), ("l1_dtlb", &self.l1_dtlb), ("l2_tlb", &self.l2_tlb)]
        {
            if tlb.entries == 0 || tlb.ways == 0 {
                return Err(ConfigError::Zero { structure: name });
            }
            if tlb.entries % tlb.ways != 0 {
                return Err(ConfigError::WaysDontDivide { structure: name });
            }
            if too_wide(tlb.ways) {
                return Err(ConfigError::TooManyWays { structure: name });
            }
        }
        for (name, cache) in [("l1d", &self.l1d), ("l2", &self.l2), ("llc", &self.llc)] {
            if cache.size_bytes == 0 || cache.ways == 0 {
                return Err(ConfigError::Zero { structure: name });
            }
            let row = u64::from(cache.ways) * crate::BLOCK_SIZE;
            if cache.size_bytes % row != 0 {
                return Err(ConfigError::WaysDontDivide { structure: name });
            }
            if too_wide(cache.ways) {
                return Err(ConfigError::TooManyWays { structure: name });
            }
        }
        if self.core.width == 0 || self.core.rob_size == 0 || self.core.mem_slots == 0 {
            return Err(ConfigError::Zero { structure: "core" });
        }
        if self.pwc.entries.contains(&0) {
            return Err(ConfigError::Zero { structure: "pwc" });
        }
        if self.pwc.entries.into_iter().any(too_wide) {
            return Err(ConfigError::TooManyWays { structure: "pwc" });
        }
        if let AllocPolicy::Promote2M { threshold } = self.page_policy {
            // A region holds 512 base pages; a zero threshold would
            // promote before any touch, a larger one would never fire.
            if threshold == 0 {
                return Err(ConfigError::Zero { structure: "page_policy" });
            }
            if u64::from(threshold) > crate::PageSize::Size2M.frames() {
                return Err(ConfigError::PromotionThresholdTooLarge { threshold });
            }
        }
        for size in self.page_policy.page_sizes() {
            for tlb in [size.l1_dtlb(), size.l1_itlb()] {
                if tlb.entries == 0 || tlb.ways == 0 || tlb.entries % tlb.ways != 0 {
                    return Err(ConfigError::WaysDontDivide { structure: "page_policy" });
                }
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// A structural problem in a [`SystemConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A size, entry count, way count or width was zero.
    Zero {
        /// Which structure was misconfigured.
        structure: &'static str,
    },
    /// Associativity does not divide the entry count / capacity.
    WaysDontDivide {
        /// Which structure was misconfigured.
        structure: &'static str,
    },
    /// More ways than the [`MAX_WAYS`]-bit per-set validity mask holds
    /// (for a fully-associative PWC level, more entries).
    TooManyWays {
        /// Which structure was misconfigured.
        structure: &'static str,
    },
    /// A 2 MB promotion threshold beyond the 512 base pages of a region
    /// can never fire.
    PromotionThresholdTooLarge {
        /// The rejected threshold.
        threshold: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero { structure } => {
                write!(f, "{structure}: size, entries, ways and width must be nonzero")
            }
            ConfigError::WaysDontDivide { structure } => {
                write!(f, "{structure}: associativity must divide the capacity")
            }
            ConfigError::TooManyWays { structure } => {
                write!(f, "{structure}: associativity exceeds the {MAX_WAYS}-way limit")
            }
            ConfigError::PromotionThresholdTooLarge { threshold } => {
                write!(f, "page_policy: promotion threshold {threshold} exceeds the 512 base pages of a 2 MB region")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_1() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.l1_dtlb.entries, 64);
        assert_eq!(c.l1_itlb.entries, 128);
        assert_eq!(c.l2_tlb.entries, 1024);
        assert_eq!(c.l2_tlb.ways, 8);
        assert_eq!(c.l2_tlb.latency, 8);
        assert_eq!(c.pwc.entries, [4, 8, 16]);
        assert_eq!(c.pwc.latency, [1, 1, 2]);
        assert_eq!(c.l1d.size_bytes, 32 << 10);
        assert_eq!(c.l2.size_bytes, 256 << 10);
        assert_eq!(c.llc.size_bytes, 2 << 20);
        assert_eq!(c.llc.ways, 16);
        assert_eq!(c.llc.latency, 40);
        assert_eq!(c.mem_latency, 191);
        c.validate().unwrap();
    }

    #[test]
    fn set_counts() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.llc.sets(), 2048);
        assert_eq!(c.l2_tlb.sets(), 128);
        assert_eq!(c.llc.blocks(), 32768);
    }

    #[test]
    fn sensitivity_mutators() {
        let c = SystemConfig::paper_baseline().with_l2_tlb_entries(512);
        assert_eq!(c.l2_tlb.entries, 512);
        c.validate().unwrap();

        let iso = SystemConfig::paper_baseline().with_l2_tlb_ways(9);
        assert_eq!(iso.l2_tlb.entries, 1152);
        assert_eq!(iso.l2_tlb.ways, 9);
        iso.validate().unwrap();

        let big = SystemConfig::paper_baseline().with_llc_bytes(3 << 20);
        assert_eq!(big.llc.sets(), 3072);
        // 3072 sets is not a power of two; set indexing is by modulo, so
        // the Fig. 11e configuration validates.
        big.validate().unwrap();
    }

    #[test]
    fn srrip_selector() {
        let c = SystemConfig::paper_baseline()
            .with_l2_tlb_replacement(ReplacementKind::Srrip)
            .with_llc_replacement(ReplacementKind::Srrip);
        assert_eq!(c.l2_tlb.replacement, ReplacementKind::Srrip);
        assert_eq!(c.llc.replacement, ReplacementKind::Srrip);
        assert_eq!(ReplacementKind::Srrip.to_string(), "SRRIP");
    }

    #[test]
    fn page_policy_knob() {
        use crate::PageSize;
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.page_policy, AllocPolicy::Base4K, "default stays the paper's 4 KB grain");

        let huge =
            SystemConfig::paper_baseline().with_page_policy(AllocPolicy::Uniform(PageSize::Size2M));
        assert_eq!(huge.page_policy.page_sizes(), &[PageSize::Size2M]);
        huge.validate().unwrap();
        SystemConfig::paper_baseline()
            .with_page_policy(AllocPolicy::Uniform(PageSize::Size1G))
            .validate()
            .unwrap();
        SystemConfig::paper_baseline()
            .with_page_policy(AllocPolicy::Promote2M { threshold: 64 })
            .validate()
            .unwrap();

        let zero = SystemConfig::paper_baseline()
            .with_page_policy(AllocPolicy::Promote2M { threshold: 0 });
        assert_eq!(zero.validate(), Err(ConfigError::Zero { structure: "page_policy" }));
        let huge_threshold = SystemConfig::paper_baseline()
            .with_page_policy(AllocPolicy::Promote2M { threshold: 513 });
        assert_eq!(
            huge_threshold.validate(),
            Err(ConfigError::PromotionThresholdTooLarge { threshold: 513 })
        );
        assert!(huge_threshold.validate().unwrap_err().to_string().contains("513"));
    }

    #[test]
    fn validation_errors() {
        let mut c = SystemConfig::paper_baseline();
        c.l2_tlb.ways = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { structure: "l2_tlb" }));

        let mut c = SystemConfig::paper_baseline();
        c.l2_tlb.entries = 1001; // 1001 not divisible by 8 ways
        assert_eq!(c.validate(), Err(ConfigError::WaysDontDivide { structure: "l2_tlb" }));

        let err = ConfigError::WaysDontDivide { structure: "l1d" };
        assert!(err.to_string().contains("l1d"));

        // Each set's validity is one u64 bitmask: more than MAX_WAYS ways
        // (PWC levels are fully associative) must not reach the arrays.
        let mut c = SystemConfig::paper_baseline();
        c.pwc.entries = [4, 8, 128];
        assert_eq!(c.validate(), Err(ConfigError::TooManyWays { structure: "pwc" }));
        c.pwc.entries = [4, 8, MAX_WAYS as u32];
        c.validate().unwrap();

        let mut c = SystemConfig::paper_baseline();
        c.llc.ways = 128;
        assert_eq!(c.validate(), Err(ConfigError::TooManyWays { structure: "llc" }));

        let mut c = SystemConfig::paper_baseline();
        c.l2_tlb.ways = 128;
        assert_eq!(c.validate(), Err(ConfigError::TooManyWays { structure: "l2_tlb" }));
        assert!(c.validate().unwrap_err().to_string().contains("64-way"));
    }
}
