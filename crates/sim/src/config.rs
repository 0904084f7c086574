//! Machine configuration (Table I of the paper) and policy selection.
//!
//! [`SimConfig`] captures every parameter of the simulated machine. The
//! defaults reproduce Table I exactly; [`SimConfigBuilder`] tweaks the knobs
//! the evaluation sweeps (core count, SB size, drain policy, TUS
//! parameters).

use std::fmt;

/// Which store-drain mechanism the simulated core uses.
///
/// These are the five configurations compared throughout the paper's
/// evaluation (Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Baseline: prefetch-at-commit + stream prefetcher; the SB head blocks
    /// on a store miss until write permission arrives.
    Baseline,
    /// Temporarily Unauthorized Stores (the paper's contribution).
    Tus,
    /// Scalable Store Buffer (idealized, 1K-entry TSOB, 0-cycle
    /// invalidation recovery) [Wenisch et al., ISCA'07].
    Ssb,
    /// Coalescing Store Buffer (WCB coalescing, blocks on WCB write miss)
    /// [Ros & Kaxiras, ISCA'18].
    Csb,
    /// Store Prefetch Burst (4 KiB page write-permission prefetch on store
    /// bursts) [Cebrian et al., MICRO'20].
    Spb,
}

impl PolicyKind {
    /// All policies in the order the paper's figures present them.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Baseline,
        PolicyKind::Ssb,
        PolicyKind::Csb,
        PolicyKind::Spb,
        PolicyKind::Tus,
    ];

    /// Short label used in tables ("base", "SSB", "CSB", "SPB", "TUS").
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "base",
            PolicyKind::Tus => "TUS",
            PolicyKind::Ssb => "SSB",
            PolicyKind::Csb => "CSB",
            PolicyKind::Spb => "SPB",
        }
    }

    /// Parses a `--policy` flag value: a [`PolicyKind::label`], in any
    /// case (`tus`, `TUS`, `Base`).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which simulation kernel advances the clock.
///
/// Both kernels produce bit-identical statistics; `Event` is the default
/// because it ticks only the components whose calendar key is due (and
/// jumps the clock over machine-wide idle stretches), instead of ticking
/// every component each cycle. `Lockstep` is kept as the reference for
/// differential checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Tick every component every cycle (the reference kernel).
    Lockstep,
    /// Calendar kernel: each unit (memory fabric, per-core slice) keeps a
    /// `next_work` key and only due units are ticked; idle stretches are
    /// jumped, with the skipped cycles charged to the same counters
    /// lockstep ticks would have bumped.
    Event,
}

impl KernelKind {
    /// Every kernel, lockstep (the reference) first.
    pub const ALL: [KernelKind; 2] = [KernelKind::Lockstep, KernelKind::Event];

    /// Short label used in flags and cache keys ("lockstep", "event").
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Lockstep => "lockstep",
            KernelKind::Event => "event",
        }
    }

    /// Parses a `--kernel` flag value.
    pub fn parse(s: &str) -> Option<KernelKind> {
        KernelKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Default for KernelKind {
    /// [`KernelKind::Event`], matching [`SimConfig`]'s default.
    fn default() -> Self {
        KernelKind::Event
    }
}

/// Which coherence protocol the memory fabric runs.
///
/// The private-cache controllers talk to one home node, `tus-mem`'s
/// `Directory`; this selector picks the protocol it runs. `Mesi` is the
/// paper's invalidation-based full-map directory (the reference).
/// `Tardis` is a Tardis-2.0-style logical-timestamp protocol: reads take
/// bounded leases, writes jump the writer's logical time past every
/// outstanding lease, and no invalidation messages are ever sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceKind {
    /// Invalidation-based full-map MESI directory (the reference).
    Mesi,
    /// Timestamp-coherence backend: lease-based reads, no invalidations,
    /// self-downgrade on lease expiry.
    Tardis,
}

impl CoherenceKind {
    /// Every backend, MESI (the reference) first.
    pub const ALL: [CoherenceKind; 2] = [CoherenceKind::Mesi, CoherenceKind::Tardis];

    /// Short label used in flags and cache keys ("mesi", "tardis").
    pub fn label(self) -> &'static str {
        match self {
            CoherenceKind::Mesi => "mesi",
            CoherenceKind::Tardis => "tardis",
        }
    }

    /// Parses a `--coherence` flag value.
    pub fn parse(s: &str) -> Option<CoherenceKind> {
        match s {
            "mesi" => Some(CoherenceKind::Mesi),
            "tardis" => Some(CoherenceKind::Tardis),
            _ => None,
        }
    }
}

impl fmt::Display for CoherenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Default for CoherenceKind {
    /// [`CoherenceKind::Mesi`], matching [`SimConfig`]'s default.
    fn default() -> Self {
        CoherenceKind::Mesi
    }
}

/// Front-end widths (instructions per cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndConfig {
    /// Fetch width (8 in Table I).
    pub fetch_width: usize,
    /// Decode width (6).
    pub decode_width: usize,
    /// Rename width (6).
    pub rename_width: usize,
    /// Pipeline depth from fetch to rename, in cycles.
    pub pipeline_depth: u64,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            fetch_width: 8,
            decode_width: 6,
            rename_width: 6,
            pipeline_depth: 6,
        }
    }
}

/// Back-end widths and window sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackEndConfig {
    /// Dispatch width (12).
    pub dispatch_width: usize,
    /// Issue width (12).
    pub issue_width: usize,
    /// Commit width (8).
    pub commit_width: usize,
    /// Re-order buffer entries (512).
    pub rob_entries: usize,
    /// Load queue entries (192).
    pub lq_entries: usize,
    /// Integer physical registers (332).
    pub int_regs: usize,
    /// Floating-point physical registers (332).
    pub fp_regs: usize,
    /// Dedicated integer ALUs (1) — see Table I "1 Int ALU".
    pub int_only_alus: usize,
    /// General Int/FP/SIMD ALUs (3).
    pub general_alus: usize,
    /// Store write ports into the L1D per cycle (pipelined store accesses,
    /// one of the paper's three baseline strengthenings).
    pub store_ports: usize,
}

impl Default for BackEndConfig {
    fn default() -> Self {
        BackEndConfig {
            dispatch_width: 12,
            issue_width: 12,
            commit_width: 8,
            rob_entries: 512,
            lq_entries: 192,
            int_regs: 332,
            fp_regs: 332,
            int_only_alus: 1,
            general_alus: 3,
            store_ports: 2,
        }
    }
}

/// Instruction execution latencies in cycles (Table I, after Fog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Integer add.
    pub int_add: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// FP add.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            int_add: 1,
            int_mul: 4,
            int_div: 12,
            fp_add: 5,
            fp_mul: 5,
            fp_div: 12,
        }
    }
}

/// Store buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbConfig {
    /// Number of unified (pre+post commit) store buffer entries.
    /// 114 in the baseline (Alder Lake); the paper also evaluates 64, 56
    /// and 32.
    pub entries: usize,
}

impl SbConfig {
    /// Store-to-load forwarding latency as a function of SB size, as
    /// modeled by the paper (5 cycles for 114, 4 for 64, 3 for smaller —
    /// Fog's measurements).
    ///
    /// # Example
    ///
    /// ```
    /// use tus_sim::config::SbConfig;
    /// assert_eq!(SbConfig { entries: 114 }.forward_latency(), 5);
    /// assert_eq!(SbConfig { entries: 64 }.forward_latency(), 4);
    /// assert_eq!(SbConfig { entries: 32 }.forward_latency(), 3);
    /// ```
    pub fn forward_latency(&self) -> u64 {
        if self.entries > 64 {
            5
        } else if self.entries > 32 {
            4
        } else {
            3
        }
    }
}

impl Default for SbConfig {
    fn default() -> Self {
        SbConfig { entries: 114 }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Access / round-trip latency in cycles (interpretation depends on
    /// level: lookup latency for L1, round trip for L2/L3 as in Table I).
    pub latency: u64,
    /// Miss-status holding registers.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by size, associativity and 64-byte lines.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * crate::types::LINE_BYTES)
    }
}

/// Memory-hierarchy configuration (all levels + DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache (modeled as always hitting; kept for the
    /// configuration record).
    pub l1i: CacheConfig,
    /// L1 data cache: 48 KiB, 12-way, 5-cycle, 64 MSHRs, stream prefetcher.
    pub l1d: CacheConfig,
    /// Private L2: 1 MiB, 16-way, 16-cycle round trip, 64 MSHRs. Inclusive
    /// of L1D.
    pub l2: CacheConfig,
    /// Shared L3 / directory: 64 MiB, 16-way, 34-cycle round trip.
    pub l3: CacheConfig,
    /// DRAM latency in cycles (160).
    pub dram_latency: u64,
    /// Maximum in-flight DRAM requests (simple bandwidth model).
    pub dram_max_inflight: usize,
    /// Stream (stride) prefetcher enabled at L1D.
    pub stream_prefetcher: bool,
    /// Stream prefetcher degree (lines fetched ahead).
    pub stream_degree: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                latency: 1,
                mshrs: 64,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                latency: 5,
                mshrs: 64,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
                latency: 16,
                mshrs: 64,
            },
            l3: CacheConfig {
                size_bytes: 64 * 1024 * 1024,
                ways: 16,
                latency: 34,
                mshrs: 64,
            },
            dram_latency: 160,
            dram_max_inflight: 64,
            stream_prefetcher: true,
            stream_degree: 4,
        }
    }
}

/// Parameters of the TUS mechanism (and of the baselines that share
/// hardware with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TusConfig {
    /// Write Ordering Queue entries (64 per the paper's DSE).
    pub woq_entries: usize,
    /// Number of write-combining buffers used for coalescing (2).
    pub wcbs: usize,
    /// Maximum number of cache lines in an atomic group (16).
    pub max_atomic_group: usize,
    /// Bits of the line address forming the lexicographical sub-address
    /// (16 — same bits that index the directory).
    pub lex_bits: u32,
    /// Whether the core issues a write-permission prefetch when a store
    /// commits (on in the baseline and all policies, +15% over plain gem5).
    pub prefetch_at_commit: bool,
    /// SSB's in-order queue (TSOB) capacity (1024).
    pub tsob_entries: usize,
    /// SPB: number of consecutive-line stores that triggers a full-page
    /// prefetch burst.
    pub spb_trigger: usize,
    /// Store-to-load forwarding from not-yet-ready unauthorized L1D lines
    /// (serving the locally written bytes through the WOQ mask). The
    /// paper implemented this, observed no meaningful gain (the store
    /// already forwarded from the SB while buffered), and disabled it —
    /// hence `false` by default; kept as an ablation knob.
    pub l1d_unauth_forwarding: bool,
}

impl Default for TusConfig {
    fn default() -> Self {
        TusConfig {
            woq_entries: 64,
            wcbs: 2,
            max_atomic_group: 16,
            lex_bits: 16,
            prefetch_at_commit: true,
            tsob_entries: 1024,
            spb_trigger: 4,
            l1d_unauth_forwarding: false,
        }
    }
}

/// Complete machine configuration.
///
/// The [`Default`] instance is the paper's Table I baseline (114-entry SB,
/// baseline drain policy, single core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of cores (1 for the sequential studies, 16 for PARSEC).
    pub cores: usize,
    /// Front-end widths.
    pub frontend: FrontEndConfig,
    /// Back-end widths and window sizes.
    pub backend: BackEndConfig,
    /// Functional-unit latencies.
    pub latency: LatencyConfig,
    /// Store buffer.
    pub sb: SbConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// TUS / baseline-technique parameters.
    pub tus: TusConfig,
    /// Store-drain policy.
    pub policy: PolicyKind,
    /// Extra uniform-random jitter (0..=N cycles) added to every coherence
    /// message, used by the TSO litmus harness to explore interleavings.
    /// 0 disables jitter (the default for performance studies).
    pub chaos_jitter: u64,
    /// Simulation kernel (event-driven by default; every kernel is
    /// statistic-for-statistic identical).
    pub kernel: KernelKind,
    /// Coherence backend (MESI full-map directory by default).
    pub coherence: CoherenceKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 1,
            frontend: FrontEndConfig::default(),
            backend: BackEndConfig::default(),
            latency: LatencyConfig::default(),
            sb: SbConfig::default(),
            mem: MemConfig::default(),
            tus: TusConfig::default(),
            policy: PolicyKind::Baseline,
            chaos_jitter: 0,
            kernel: KernelKind::Event,
            coherence: CoherenceKind::Mesi,
        }
    }
}

impl SimConfig {
    /// Starts building a configuration from the Table I defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// Renders Table I (configuration parameters) as the paper prints it.
    pub fn render_table1(&self) -> String {
        let f = &self.frontend;
        let b = &self.backend;
        let l = &self.latency;
        let m = &self.mem;
        let mut out = String::new();
        out.push_str("TABLE I: CONFIGURATION PARAMETERS\n");
        let mut row = |k: &str, v: String| {
            out.push_str(&format!("  {k:<22} {v}\n"));
        };
        row("Cores", format!("{}", self.cores));
        row(
            "Front-end width",
            format!(
                "{} (fetch), {} (decode), {} (rename) instr.",
                f.fetch_width, f.decode_width, f.rename_width
            ),
        );
        row(
            "Back-end width",
            format!(
                "{} (dispatch), {} (issue), {} (commit) instr.",
                b.dispatch_width, b.issue_width, b.commit_width
            ),
        );
        row(
            "Physical registers",
            format!("{} integer + {} floating point", b.int_regs, b.fp_regs),
        );
        row(
            "Load/store queue",
            format!("{}/{} entries", b.lq_entries, self.sb.entries),
        );
        row("Re-order buffer", format!("{} entries", b.rob_entries));
        row(
            "Functional units",
            format!(
                "{} Int ALU + {} Int/FP/SIMD ALU",
                b.int_only_alus, b.general_alus
            ),
        );
        row(
            "Instr. latency (int)",
            format!("add ({}c), mul ({}c), div ({}c)", l.int_add, l.int_mul, l.int_div),
        );
        row(
            "Instr. latency (fp)",
            format!("add ({}c), mul ({}c), div ({}c)", l.fp_add, l.fp_mul, l.fp_div),
        );
        row(
            "L1I",
            format!(
                "{}KB, {}-way, {}-cycle latency, {} MSHRs",
                m.l1i.size_bytes / 1024,
                m.l1i.ways,
                m.l1i.latency,
                m.l1i.mshrs
            ),
        );
        row(
            "L1D",
            format!(
                "{}KB, {}-way, {}-cycle latency, {} MSHRs, stream prefetcher: {}",
                m.l1d.size_bytes / 1024,
                m.l1d.ways,
                m.l1d.latency,
                m.l1d.mshrs,
                if m.stream_prefetcher { "on" } else { "off" }
            ),
        );
        row(
            "L2",
            format!(
                "{}MB, {}-way, {}-cycle round trip, {} MSHRs",
                m.l2.size_bytes / (1024 * 1024),
                m.l2.ways,
                m.l2.latency,
                m.l2.mshrs
            ),
        );
        row(
            "L3",
            format!(
                "{}MB, {}-way, {}-cycle round trip, {} MSHRs",
                m.l3.size_bytes / (1024 * 1024),
                m.l3.ways,
                m.l3.latency,
                m.l3.mshrs
            ),
        );
        row("DRAM", format!("{}-cycle latency", m.dram_latency));
        row("Policy", format!("{}", self.policy));
        row(
            "TUS",
            format!(
                "WOQ {} entries, {} WCBs, max group {}, lex bits {}",
                self.tus.woq_entries, self.tus.wcbs, self.tus.max_atomic_group, self.tus.lex_bits
            ),
        );
        row(
            "SB fwd latency",
            format!("{} cycles", self.sb.forward_latency()),
        );
        out
    }
}

/// Builder for [`SimConfig`]. All setters return `&mut self` so the builder
/// can be used for both one-liners and staged configuration.
///
/// # Example
///
/// ```
/// use tus_sim::{PolicyKind, SimConfig};
/// let cfg = SimConfig::builder()
///     .cores(16)
///     .sb_entries(32)
///     .policy(PolicyKind::Tus)
///     .build();
/// assert_eq!(cfg.cores, 16);
/// assert_eq!(cfg.sb.forward_latency(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Creates a builder initialized with the Table I defaults.
    pub fn new() -> Self {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }

    /// Sets the number of cores.
    pub fn cores(&mut self, n: usize) -> &mut Self {
        self.cfg.cores = n;
        self
    }

    /// Sets the SB size (also adjusts store-to-load forwarding latency).
    pub fn sb_entries(&mut self, n: usize) -> &mut Self {
        self.cfg.sb.entries = n;
        self
    }

    /// Sets the store-drain policy.
    pub fn policy(&mut self, p: PolicyKind) -> &mut Self {
        self.cfg.policy = p;
        self
    }

    /// Sets the WOQ size.
    pub fn woq_entries(&mut self, n: usize) -> &mut Self {
        self.cfg.tus.woq_entries = n;
        self
    }

    /// Sets the number of WCBs used for coalescing.
    pub fn wcbs(&mut self, n: usize) -> &mut Self {
        self.cfg.tus.wcbs = n;
        self
    }

    /// Sets the maximum atomic-group size.
    pub fn max_atomic_group(&mut self, n: usize) -> &mut Self {
        self.cfg.tus.max_atomic_group = n;
        self
    }

    /// Sets the number of lex-order bits.
    pub fn lex_bits(&mut self, n: u32) -> &mut Self {
        self.cfg.tus.lex_bits = n;
        self
    }

    /// Enables/disables prefetch-at-commit.
    pub fn prefetch_at_commit(&mut self, on: bool) -> &mut Self {
        self.cfg.tus.prefetch_at_commit = on;
        self
    }

    /// Enables/disables the L1D stream prefetcher.
    pub fn stream_prefetcher(&mut self, on: bool) -> &mut Self {
        self.cfg.mem.stream_prefetcher = on;
        self
    }

    /// Enables store-to-load forwarding from not-ready unauthorized L1D
    /// lines (the paper's disabled variant; ablation).
    pub fn l1d_unauth_forwarding(&mut self, on: bool) -> &mut Self {
        self.cfg.tus.l1d_unauth_forwarding = on;
        self
    }

    /// Sets the coherence-message jitter bound for interleaving exploration.
    pub fn chaos_jitter(&mut self, max_extra_cycles: u64) -> &mut Self {
        self.cfg.chaos_jitter = max_extra_cycles;
        self
    }

    /// Selects the simulation kernel (event-driven or lockstep).
    pub fn kernel(&mut self, k: KernelKind) -> &mut Self {
        self.cfg.kernel = k;
        self
    }

    /// Selects the coherence backend (MESI directory or Tardis
    /// timestamps).
    pub fn coherence(&mut self, c: CoherenceKind) -> &mut Self {
        self.cfg.coherence = c;
        self
    }

    /// Shrinks the caches (useful for unit tests that want misses and
    /// evictions without large footprints). Divides every cache size by
    /// `factor`, keeping associativity.
    pub fn scale_caches_down(&mut self, factor: usize) -> &mut Self {
        assert!(factor > 0, "factor must be positive");
        let m = &mut self.cfg.mem;
        for c in [&mut m.l1i, &mut m.l1d, &mut m.l2, &mut m.l3] {
            c.size_bytes = (c.size_bytes / factor).max(c.ways * crate::types::LINE_BYTES);
        }
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero cores, zero-way
    /// caches, non-power-of-two set counts, more WCBs than L1D ways).
    pub fn build(&self) -> SimConfig {
        let c = self.cfg;
        assert!(c.cores > 0, "need at least one core");
        assert!(c.sb.entries > 0, "SB must have entries");
        assert!(c.tus.woq_entries > 0, "WOQ must have entries");
        assert!(c.tus.wcbs > 0, "need at least one WCB");
        assert!(
            c.tus.wcbs <= c.mem.l1d.ways,
            "atomic groups from WCBs must fit L1D associativity"
        );
        for (name, cc) in [
            ("l1i", c.mem.l1i),
            ("l1d", c.mem.l1d),
            ("l2", c.mem.l2),
            ("l3", c.mem.l3),
        ] {
            assert!(cc.ways > 0, "{name}: zero ways");
            let sets = cc.sets();
            assert!(sets > 0, "{name}: zero sets");
            assert!(sets.is_power_of_two(), "{name}: sets must be a power of two");
        }
        assert!(c.tus.lex_bits >= 1 && c.tus.lex_bits <= 32, "lex bits in 1..=32");
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = SimConfig::default();
        assert_eq!(c.frontend.fetch_width, 8);
        assert_eq!(c.backend.rob_entries, 512);
        assert_eq!(c.backend.lq_entries, 192);
        assert_eq!(c.sb.entries, 114);
        assert_eq!(c.mem.l1d.sets(), 64);
        assert_eq!(c.mem.l2.sets(), 1024);
        assert_eq!(c.mem.l3.sets(), 65536);
        assert_eq!(c.mem.dram_latency, 160);
        assert_eq!(c.tus.woq_entries, 64);
        assert_eq!(c.tus.wcbs, 2);
        assert_eq!(c.tus.max_atomic_group, 16);
        assert_eq!(c.tus.lex_bits, 16);
    }

    #[test]
    fn forward_latency_by_size() {
        for (n, lat) in [(114, 5), (65, 5), (64, 4), (33, 4), (32, 3), (16, 3)] {
            assert_eq!(SbConfig { entries: n }.forward_latency(), lat, "n={n}");
        }
    }

    #[test]
    fn selector_labels_parse_back() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.label()), Some(p));
            assert_eq!(PolicyKind::parse(&p.label().to_ascii_lowercase()), Some(p));
        }
        assert_eq!(PolicyKind::parse("tso"), None);
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::parse(k.label()), Some(k));
        }
        for c in CoherenceKind::ALL {
            assert_eq!(CoherenceKind::parse(c.label()), Some(c));
        }
    }

    #[test]
    fn builder_sets_fields() {
        let c = SimConfig::builder()
            .cores(16)
            .sb_entries(32)
            .policy(PolicyKind::Csb)
            .woq_entries(16)
            .wcbs(4)
            .max_atomic_group(8)
            .lex_bits(12)
            .prefetch_at_commit(false)
            .stream_prefetcher(false)
            .chaos_jitter(3)
            .kernel(KernelKind::Lockstep)
            .coherence(CoherenceKind::Tardis)
            .build();
        assert_eq!(c.cores, 16);
        assert_eq!(c.sb.entries, 32);
        assert_eq!(c.policy, PolicyKind::Csb);
        assert_eq!(c.tus.woq_entries, 16);
        assert_eq!(c.tus.wcbs, 4);
        assert_eq!(c.tus.max_atomic_group, 8);
        assert_eq!(c.tus.lex_bits, 12);
        assert!(!c.tus.prefetch_at_commit);
        assert!(!c.mem.stream_prefetcher);
        assert_eq!(c.chaos_jitter, 3);
        assert_eq!(c.kernel, KernelKind::Lockstep);
        assert_eq!(c.coherence, CoherenceKind::Tardis);
    }

    #[test]
    fn kernel_labels_roundtrip() {
        assert_eq!(SimConfig::default().kernel, KernelKind::Event);
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::parse(k.label()), Some(k));
        }
        assert_eq!(KernelKind::parse("warp"), None);
        assert_eq!(KernelKind::parse("skip"), None);
    }

    #[test]
    fn coherence_labels_roundtrip() {
        assert_eq!(SimConfig::default().coherence, CoherenceKind::Mesi);
        for c in CoherenceKind::ALL {
            assert_eq!(CoherenceKind::parse(c.label()), Some(c));
        }
        assert_eq!(CoherenceKind::parse("moesi"), None);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        SimConfig::builder().cores(0).build();
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn too_many_wcbs_rejected() {
        SimConfig::builder().wcbs(13).build();
    }

    #[test]
    fn scale_caches_down_keeps_power_of_two() {
        let c = SimConfig::builder().scale_caches_down(64).build();
        assert!(c.mem.l1d.sets().is_power_of_two());
        assert!(c.mem.l3.sets().is_power_of_two());
        assert!(c.mem.l1d.size_bytes < 48 * 1024);
    }

    #[test]
    fn table1_render_mentions_key_rows() {
        let t = SimConfig::default().render_table1();
        assert!(t.contains("512 entries"));
        assert!(t.contains("192/114"));
        assert!(t.contains("160-cycle"));
        assert!(t.contains("48KB"));
    }

    #[test]
    fn policy_labels_unique() {
        let labels: std::collections::BTreeSet<_> =
            PolicyKind::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }
}
