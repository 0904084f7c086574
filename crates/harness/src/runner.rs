//! Single-simulation execution with warm-up subtraction.

use std::time::{Duration, Instant};

use tus::{RunGoal, StepOutcome, System};
use tus_energy::{EnergyBreakdown, EnergyModel};
use tus_sim::stats::names;
use tus_sim::{CoherenceKind, KernelKind, PolicyKind, SimConfig, StatSet};
use tus_workloads::Workload;

/// Version stamp of the simulator's observable behaviour, folded into
/// every [`RunSpec::memo_key`].
///
/// Bump this whenever a simulator change can alter any run's measured
/// output (timing, drain policies, cache geometry, energy model, stat
/// definitions): the new keys miss the on-disk `.runcache/`, forcing
/// regeneration instead of silently serving stale results recorded by
/// an older simulator.
///
/// v1 — implicit (unversioned keys, PR 1); v2 — deadlock-reporting and
/// lex tie-break changes; v3 — keys gained the simulation-kernel
/// dimension (lockstep vs idle-skipping); v4 — the event-driven kernel
/// became the default (`kernel=event` in default keys), so every cached
/// result records which kernel produced it under the new three-kernel
/// selector; v5 — keys gained the coherence-backend dimension
/// (`mesi` vs `tardis`), so results recorded before the pluggable
/// backend contract existed can never be served for a backend-qualified
/// spec.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// Run-length scaling: experiments default to laptop-friendly lengths;
/// `Full` approaches paper-like (still far below 2 B instructions, but
/// the archetypes reach steady state quickly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test lengths (CI).
    Quick,
    /// Default lengths.
    Normal,
    /// Long runs.
    Full,
}

impl Scale {
    /// Stable label (wire protocol, cache keys of derived artifacts).
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Normal => "normal",
            Scale::Full => "full",
        }
    }

    /// Parses a [`Scale::label`].
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "normal" => Some(Scale::Normal),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Instructions measured per core for single-thread runs.
    pub fn insts_single(self) -> u64 {
        match self {
            Scale::Quick => 40_000,
            Scale::Normal => 300_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Instructions measured per core for 16-core runs.
    pub fn insts_parallel(self) -> u64 {
        match self {
            Scale::Quick => 10_000,
            Scale::Normal => 60_000,
            Scale::Full => 400_000,
        }
    }

    /// Warm-up instructions per core (subtracted from the measurement).
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Quick => 5_000,
            Scale::Normal => 50_000,
            Scale::Full => 200_000,
        }
    }
}

/// A named configuration tweak (ablations).
///
/// The name participates in the run's [`RunSpec::memo_key`], so it must
/// uniquely identify the tweak's effect on the configuration.
#[derive(Clone, Copy)]
pub struct Tweak {
    /// Stable identifier (part of the memo/cache key).
    pub name: &'static str,
    /// The configuration edit.
    pub apply: fn(&mut tus_sim::SimConfigBuilder),
}

impl std::fmt::Debug for Tweak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tweak").field("name", &self.name).finish()
    }
}

/// Specification of one simulation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Drain policy.
    pub policy: PolicyKind,
    /// SB entries.
    pub sb_entries: usize,
    /// Core count (1, or 16 for PARSEC).
    pub cores: usize,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub insts: u64,
    /// Seed.
    pub seed: u64,
    /// Simulation kernel (lockstep or event-driven). The kernels are
    /// observationally identical, but the key keeps them distinct so an
    /// equivalence sweep actually runs both instead of hitting the cache.
    pub kernel: KernelKind,
    /// Coherence backend (MESI directory or Tardis timestamps). Unlike
    /// the kernel, backends are *not* observationally identical — leases
    /// change timing — so the dimension must split the memo key.
    pub coherence: CoherenceKind,
    /// Extra configuration hook (ablations).
    pub tweak: Option<Tweak>,
}

impl RunSpec {
    /// Builds a spec with defaults from a workload, policy, SB size and
    /// scale.
    pub fn new(workload: Workload, policy: PolicyKind, sb_entries: usize, scale: Scale) -> Self {
        let cores = if workload.parallel { 16 } else { 1 };
        let insts = if workload.parallel {
            scale.insts_parallel()
        } else {
            scale.insts_single()
        };
        RunSpec {
            workload,
            policy,
            sb_entries,
            cores,
            warmup: scale.warmup().min(insts / 2),
            insts,
            seed: 42,
            kernel: KernelKind::default(),
            coherence: CoherenceKind::default(),
            tweak: None,
        }
    }

    /// A stable content key identifying the simulation this spec runs.
    ///
    /// Two specs with equal keys produce bit-identical [`RunResult`]s
    /// (simulations are seeded and deterministic), so the executor
    /// memoizes on it, in process and on disk. Every input that can
    /// change the outcome participates: the simulator behaviour version
    /// ([`CACHE_FORMAT_VERSION`]), workload (named, static parameters),
    /// policy, SB size, core count, run lengths, seed, simulation kernel,
    /// and the ablation tweak's name.
    pub fn memo_key(&self) -> String {
        self.memo_key_versioned(CACHE_FORMAT_VERSION)
    }

    /// [`RunSpec::memo_key`] under an explicit version stamp (tests).
    pub(crate) fn memo_key_versioned(&self, version: u32) -> String {
        format!(
            "v{}|{}|{}|sb{}|c{}|w{}|i{}|s{}|k{}|co{}|{}",
            version,
            self.workload.name,
            self.policy.label(),
            self.sb_entries,
            self.cores,
            self.warmup,
            self.insts,
            self.seed,
            self.kernel.label(),
            self.coherence.label(),
            self.tweak.map_or("-", |t| t.name),
        )
    }

    fn config(&self) -> SimConfig {
        let mut b = SimConfig::builder();
        b.cores(self.cores)
            .sb_entries(self.sb_entries)
            .policy(self.policy)
            .kernel(self.kernel)
            .coherence(self.coherence);
        if let Some(t) = self.tweak {
            (t.apply)(&mut b);
        }
        b.build()
    }

    /// The machine this spec runs, not yet started: one trace per core,
    /// long enough for the warm-up and the measured instructions.
    pub(crate) fn system(&self) -> System {
        let traces = self.workload.traces(self.cores, self.seed, self.warmup + self.insts + 10_000);
        System::new(&self.config(), traces, self.seed)
    }
}

/// The measured outcome of one run (warm-up already subtracted).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Measured cycles.
    pub cycles: f64,
    /// Committed instructions across cores in the measured window.
    pub committed: f64,
    /// System IPC over the measured window.
    pub ipc: f64,
    /// SB-induced dispatch-stall cycles as a fraction of cycles (averaged
    /// over cores).
    pub sb_stall_frac: f64,
    /// Energy breakdown of the measured window.
    pub energy: EnergyBreakdown,
    /// Energy-delay product.
    pub edp: f64,
    /// Raw (delta) statistics.
    pub stats: StatSet,
}

/// The default cycle budget for a spec: generous, because the slowest
/// archetypes run at IPC ~0.05. Callers (the `serve` daemon in
/// particular) can impose a tighter per-request budget via
/// [`try_run_limited`]; the budget is an **absolute** cycle ceiling for
/// the whole run, warm-up included.
pub fn default_budget(spec: &RunSpec) -> u64 {
    400 * (spec.warmup + spec.insts) + 2_000_000
}

/// Executes one run: builds the system, warms it up, measures, and
/// subtracts the warm-up counters.
///
/// # Panics
///
/// Panics with the rendered [`tus::DeadlockReport`] if the run trips the
/// progress watchdog — use [`try_run`] where a structured error is
/// needed (the daemon, budget-limited requests).
pub fn run(spec: &RunSpec) -> RunResult {
    try_run(spec).unwrap_or_else(|r| panic!("simulation gave up:\n{r}"))
}

/// Fallible [`run`]: a watchdog trip or budget exhaustion comes back as
/// a structured [`tus::DeadlockReport`] instead of a panic.
pub fn try_run(spec: &RunSpec) -> Result<RunResult, Box<tus::DeadlockReport>> {
    try_run_limited(spec, None, None)
}

/// [`try_run`] under an explicit cycle budget (absolute ceiling on
/// simulated cycles; `None` = [`default_budget`]) and an optional
/// **wall-clock** deadline of `wall_ms` milliseconds over the whole run
/// (warm-up included) — the daemon's `budget=` and `wall_ms=`
/// per-request limits. An over-budget run returns the simulator's
/// [`tus::DeadlockReport`]. The simulated machine never reads the host
/// clock: the deadline is checked between kernel steps, and expiry
/// returns a structured [`tus::DeadlockKind::WallClockExpired`] report.
/// A run that finishes in time is bit-identical to an unlimited one.
pub fn try_run_limited(
    spec: &RunSpec,
    budget: Option<u64>,
    wall_ms: Option<u64>,
) -> Result<RunResult, Box<tus::DeadlockReport>> {
    let wall = wall_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
    let total = spec.warmup + spec.insts;
    let mut sys = spec.system();
    let model = EnergyModel::from_config(sys.config());
    let budget = budget.unwrap_or_else(|| default_budget(spec));
    let warm = if spec.warmup > 0 {
        step_until(&mut sys, RunGoal::Committed(spec.warmup), budget, wall)?
    } else {
        StatSet::new()
    };
    let end = step_until(&mut sys, RunGoal::Committed(total), budget, wall)?;
    let stats = end.minus(&warm);
    let cycles = stats.get(names::CYCLES).max(1.0);
    let committed = stats.get(names::TOTAL_COMMITTED);
    let sb_stall_frac = (0..spec.cores)
        .map(|i| stats.get(&names::core_cpu(i, names::STALL_SB)))
        .sum::<f64>()
        / (cycles * spec.cores as f64);
    let energy = model.evaluate(&stats);
    let edp = energy.edp();
    Ok(RunResult {
        cycles,
        committed,
        ipc: committed / cycles,
        sb_stall_frac,
        energy,
        edp,
        stats,
    })
}

/// How many kernel steps a wall-clock-bounded run takes between host
/// clock reads. One read is ~20 ns against steps of ~1 µs, so expiry is
/// detected within about a millisecond at negligible overhead.
const WALL_CHECK_STEPS: u32 = 1024;

/// Drives one stepping run to its goal. With a `wall` deadline
/// (`(instant, the ms it came from)`), the host clock is read every
/// [`WALL_CHECK_STEPS`] kernel steps; without one, a step costs one
/// branch more than [`System::try_run_until`].
fn step_until(
    sys: &mut System,
    goal: RunGoal,
    budget: u64,
    wall: Option<(Instant, u64)>,
) -> Result<StatSet, Box<tus::DeadlockReport>> {
    let mut ctl = sys.begin_run(goal, budget);
    let mut steps = 0u32;
    loop {
        match sys.run_step(&mut ctl) {
            StepOutcome::Running => {
                if let Some((deadline, ms)) = wall {
                    steps = steps.wrapping_add(1);
                    if steps.is_multiple_of(WALL_CHECK_STEPS) && Instant::now() >= deadline {
                        let kind = tus::DeadlockKind::WallClockExpired { ms };
                        return Err(Box::new(sys.abort_report(kind)));
                    }
                }
            }
            StepOutcome::Done => return Ok(sys.export_stats()),
            StepOutcome::Dead(report) => return Err(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tus_workloads::by_name;

    #[test]
    fn run_produces_consistent_metrics() {
        let spec = RunSpec {
            warmup: 2_000,
            insts: 10_000,
            ..RunSpec::new(
                by_name("502.gcc1-like").expect("exists"),
                PolicyKind::Baseline,
                114,
                Scale::Quick,
            )
        };
        let r = run(&spec);
        assert!(r.cycles > 0.0);
        assert!(r.committed >= 10_000.0 - 2_000.0);
        assert!(r.ipc > 0.0 && r.ipc < 8.0);
        assert!(r.edp > 0.0);
        assert!((0.0..=1.0).contains(&r.sb_stall_frac));
    }

    #[test]
    fn memo_key_distinguishes_specs() {
        let base = RunSpec::new(
            by_name("502.gcc1-like").expect("exists"),
            PolicyKind::Baseline,
            114,
            Scale::Quick,
        );
        let mut keys = std::collections::HashSet::new();
        assert!(keys.insert(base.memo_key()));
        // Identical spec → identical key.
        assert!(!keys.insert(base.clone().memo_key()));
        // Every varied dimension → a fresh key.
        for varied in [
            RunSpec { policy: PolicyKind::Tus, ..base.clone() },
            RunSpec { sb_entries: 32, ..base.clone() },
            RunSpec { seed: 43, ..base.clone() },
            RunSpec { insts: base.insts + 1, ..base.clone() },
            RunSpec { warmup: base.warmup + 1, ..base.clone() },
            RunSpec { cores: 2, ..base.clone() },
            RunSpec {
                workload: by_name("557.xz-like").expect("exists"),
                ..base.clone()
            },
            RunSpec {
                tweak: Some(Tweak { name: "woq16", apply: |b| { b.woq_entries(16); } }),
                ..base.clone()
            },
            RunSpec { kernel: KernelKind::Lockstep, ..base.clone() },
            RunSpec { coherence: CoherenceKind::Tardis, ..base.clone() },
        ] {
            assert!(keys.insert(varied.memo_key()), "collision: {}", varied.memo_key());
        }
    }

    /// Bumping the cache-format version changes every key, so results
    /// recorded by an older simulator can never be served for a newer
    /// one.
    #[test]
    fn memo_key_includes_cache_format_version() {
        let spec = RunSpec::new(
            by_name("502.gcc1-like").expect("exists"),
            PolicyKind::Tus,
            114,
            Scale::Quick,
        );
        assert!(spec.memo_key().starts_with(&format!("v{CACHE_FORMAT_VERSION}|")));
        assert_ne!(
            spec.memo_key_versioned(CACHE_FORMAT_VERSION),
            spec.memo_key_versioned(CACHE_FORMAT_VERSION + 1),
        );
    }

    /// The v4 bump made the event kernel the default: default keys must
    /// carry the `kevent` dimension, differ from every other kernel's
    /// key, and miss any key minted under the previous version. The full
    /// default key is pinned byte for byte: any change to it orphans
    /// every `.runcache` entry, so it must come with a version bump.
    #[test]
    fn memo_key_records_event_kernel_default() {
        let spec = RunSpec::new(
            by_name("502.gcc1-like").expect("exists"),
            PolicyKind::Tus,
            114,
            Scale::Quick,
        );
        assert_eq!(spec.kernel, KernelKind::Event);
        assert_eq!(
            spec.memo_key(),
            "v5|502.gcc1-like|TUS|sb114|c1|w5000|i40000|s42|kevent|comesi|-"
        );
        let mut keys = std::collections::HashSet::new();
        for kernel in KernelKind::ALL {
            let k = RunSpec { kernel, ..spec.clone() }.memo_key();
            assert!(keys.insert(k), "kernel dimension collided");
        }
        // The PR-2 bump-miss pattern: a v3-era key can never alias a v4
        // key, so stale skip-kernel-default results are unreachable.
        assert_ne!(spec.memo_key(), spec.memo_key_versioned(3));
    }

    /// The v5 bump added the coherence-backend dimension: default keys
    /// carry `comesi`, the tardis variant mints a distinct key, and no
    /// v4-era key (minted before backends existed) can be served for a
    /// v5 spec.
    #[test]
    fn memo_key_records_coherence_backend() {
        let spec = RunSpec::new(
            by_name("502.gcc1-like").expect("exists"),
            PolicyKind::Tus,
            114,
            Scale::Quick,
        );
        assert_eq!(spec.coherence, CoherenceKind::Mesi);
        assert!(spec.memo_key().contains("|comesi|"), "{}", spec.memo_key());
        let tardis = RunSpec { coherence: CoherenceKind::Tardis, ..spec.clone() };
        assert!(tardis.memo_key().contains("|cotardis|"), "{}", tardis.memo_key());
        assert_ne!(spec.memo_key(), tardis.memo_key());
        // Bump-miss: a v4-era key can never alias a v5 key.
        assert_ne!(spec.memo_key(), spec.memo_key_versioned(4));
    }

    #[test]
    fn scale_labels_round_trip() {
        for s in [Scale::Quick, Scale::Normal, Scale::Full] {
            assert_eq!(Scale::parse(s.label()), Some(s));
        }
        assert_eq!(Scale::parse("warp"), None);
    }

    /// A starved cycle budget must come back as a structured
    /// `BudgetExhausted` report — the daemon's per-client budget
    /// enforcement rides on this — while a generous budget succeeds and
    /// matches the infallible path bit for bit.
    #[test]
    fn cycle_budget_exhaustion_is_structured() {
        let spec = RunSpec {
            warmup: 0,
            insts: 5_000,
            ..RunSpec::new(
                by_name("502.gcc1-like").expect("exists"),
                PolicyKind::Tus,
                114,
                Scale::Quick,
            )
        };
        let report =
            try_run_limited(&spec, Some(100), None).expect_err("100 cycles cannot finish");
        match report.kind {
            tus::DeadlockKind::BudgetExhausted { budget } => assert_eq!(budget, 100),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert!(report.cycle <= 100);

        let ok = try_run_limited(&spec, None, None).expect("default budget suffices");
        let plain = run(&spec);
        use crate::executor::encode_result;
        assert_eq!(encode_result(&ok, "k"), encode_result(&plain, "k"));
    }

    /// A wall-clock deadline of zero expires the run structurally with a
    /// `WallClockExpired` report, while a generous deadline completes
    /// bit-identically to the unbounded path — the deadline observes,
    /// never perturbs.
    #[test]
    fn wall_clock_expiry_is_structured() {
        let spec = RunSpec {
            warmup: 0,
            insts: 5_000,
            ..RunSpec::new(
                by_name("502.gcc1-like").expect("exists"),
                PolicyKind::Tus,
                114,
                Scale::Quick,
            )
        };
        let report = try_run_limited(&spec, None, Some(0)).expect_err("0 ms cannot finish");
        match report.kind {
            tus::DeadlockKind::WallClockExpired { ms } => assert_eq!(ms, 0),
            other => panic!("expected WallClockExpired, got {other:?}"),
        }

        let ok = try_run_limited(&spec, None, Some(600_000)).expect("ten minutes suffice");
        let plain = run(&spec);
        use crate::executor::encode_result;
        assert_eq!(encode_result(&ok, "k"), encode_result(&plain, "k"));
    }

    #[test]
    fn deterministic_across_invocations() {
        let spec = RunSpec {
            warmup: 0,
            insts: 5_000,
            ..RunSpec::new(
                by_name("557.xz-like").expect("exists"),
                PolicyKind::Tus,
                32,
                Scale::Quick,
            )
        };
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.edp, b.edp);
    }
}
