//! Full-system assembly: cores + drain policies + memory hierarchy.
//!
//! [`System`] owns one [`tus_cpu::Core`] and one [`Policy`] per core plus
//! the shared [`tus_mem::MemorySystem`], and advances everything one cycle
//! at a time:
//!
//! 1. the memory system delivers due messages (producing cache events),
//! 2. cache events are routed — load completions to the core,
//!    TUS events (`PermissionReady`, `ExternalConflict`) to the policy,
//! 3. the policy drains committed stores from the SB,
//! 4. the core ticks (dispatch/issue/commit), reaching memory through a
//!    [`MemPort`] adapter.
//!
//! Run loops come with a progress watchdog: a deadlock in the coherence
//! protocol or the drain policy aborts the run with diagnostics instead
//! of hanging.

use tus_cpu::{Core, ForwardResult, MemPort, TraceSource};
use tus_mem::{CacheEvent, MemDeadlockSnapshot, MemorySystem, Network, PrivateCache};
use tus_sim::calendar::Calendar;
use tus_sim::sched::earliest;
use tus_sim::trace::{Attribution, TraceEvent, TraceRecord, Tracer};
use tus_sim::{Addr, CoreId, Cycle, KernelKind, SimConfig, SimRng, StatSet};

use crate::policy::{Policy, PolicyOccupancy};

/// Cycles without global progress after which a run aborts.
const WATCHDOG_CYCLES: u64 = 500_000;

/// What a run step reports when the progress watchdog fires.
const NO_PROGRESS: DeadlockKind = DeadlockKind::NoProgress {
    cycles: WATCHDOG_CYCLES,
};

/// Default per-component ring capacity for [`System::enable_trace`]
/// (the `trace` command's `--cap`).
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// Why a run loop gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlockKind {
    /// The caller-provided cycle budget elapsed before completion.
    BudgetExhausted {
        /// The budget that elapsed.
        budget: u64,
    },
    /// The progress watchdog fired: no instruction committed and no
    /// network message was sent for this many consecutive cycles.
    NoProgress {
        /// Length of the progress-free window.
        cycles: u64,
    },
    /// A caller-imposed *wall-clock* deadline elapsed before completion
    /// (the daemon's `wall_ms=` per-request budget). The simulator itself
    /// never reads the host clock — callers driving [`System::run_step`]
    /// detect expiry and assemble the report via [`System::abort_report`].
    WallClockExpired {
        /// The wall-clock budget that elapsed, in milliseconds.
        ms: u64,
    },
}

/// Per-core pipeline/store-path occupancy at the moment a run stalled.
#[derive(Debug, Clone, Default)]
pub struct CoreDeadlockState {
    /// Instructions committed so far.
    pub committed: u64,
    /// Whether the trace was already exhausted.
    pub finished: bool,
    /// Store-buffer entries still queued.
    pub sb_len: usize,
    /// Policy-side buffer occupancy (WOQ/WCB/TSOB).
    pub policy: PolicyOccupancy,
}

/// Structured diagnostics for a hung or over-budget run: per-core SB/WOQ/
/// WCB occupancy, pending lex-order retries and in-flight directory
/// traffic, plus a rendered state dump. Returned by the `try_run_*`
/// loops so one stuck case is a recorded counterexample rather than an
/// aborted process.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// What tripped.
    pub kind: DeadlockKind,
    /// Cycle at which the run gave up.
    pub cycle: u64,
    /// Per-core pipeline and policy state.
    pub cores: Vec<CoreDeadlockState>,
    /// Memory-side (controller/directory/network) state.
    pub mem: MemDeadlockSnapshot,
    /// Full human-readable state dump (`System::dump_state`).
    pub dump: String,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            DeadlockKind::BudgetExhausted { budget } => {
                writeln!(f, "cycle budget of {budget} exhausted at cycle {}", self.cycle)?
            }
            DeadlockKind::NoProgress { cycles } => {
                writeln!(f, "no progress for {cycles} cycles (at cycle {})", self.cycle)?
            }
            DeadlockKind::WallClockExpired { ms } => {
                writeln!(f, "wall-clock budget of {ms} ms exhausted at cycle {}", self.cycle)?
            }
        }
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "core{i}: committed={} finished={} sb={} woq={} (ready={} retry={}) wcb={} tsob={}",
                c.committed,
                c.finished,
                c.sb_len,
                c.policy.woq_len,
                c.policy.woq_ready,
                c.policy.woq_retries,
                c.policy.wcb_occupied,
                c.policy.tsob_len
            )?;
        }
        write!(f, "{}", self.mem)
    }
}

/// What a stepping run is driving towards (the `done` condition of the
/// former closure-based run loop, reified so it can be stored in a
/// [`RunCtl`] and carried across [`System::run_step`] calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunGoal {
    /// Run until [`System::finished`]: traces exhausted, stores drained,
    /// memory quiesced.
    Completion,
    /// Run until every core has committed at least this many instructions
    /// (or finished its trace) — the fixed-work measurement condition.
    Committed(u64),
}

impl RunGoal {
    fn met(self, sys: &System) -> bool {
        match self {
            RunGoal::Completion => sys.finished(),
            RunGoal::Committed(insts) => sys
                .cores
                .iter()
                .all(|c| c.committed() >= insts || c.finished()),
        }
    }
}

/// Per-run control state extracted from the run loop so a run can be
/// advanced one kernel step at a time: the progress watchdog, and the
/// run's goal and cycle budget. Created by [`System::begin_run`],
/// consumed by [`System::run_step`].
#[derive(Debug)]
pub struct RunCtl {
    watchdog: Watchdog,
    goal: RunGoal,
    max_cycles: u64,
}

/// What one [`System::run_step`] call did.
#[derive(Debug)]
pub enum StepOutcome {
    /// The machine advanced (a tick or an idle jump); the goal is not yet
    /// met. Step again.
    Running,
    /// The goal was met; statistics ledgers are materialized, so
    /// [`System::export_stats`] now returns what the monolithic run loop
    /// would.
    Done,
    /// The run gave up (budget exhausted or the progress watchdog
    /// fired); the report equals the monolithic loop's.
    Dead(Box<DeadlockReport>),
}

/// The complete simulated machine.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    policies: Vec<Policy>,
    mem: MemorySystem,
    now: Cycle,
    /// System-level tracer (bulk-idle spans from the event kernel's idle
    /// jumps).
    tracer: Tracer,
    /// Reused buffer for the per-core cache-event drain (bounded by the
    /// events one controller can raise in a cycle).
    event_scratch: Vec<CacheEvent>,
    /// Event-kernel calendar: unit 0 is the memory fabric, unit `1 + i`
    /// is core `i`'s slice. Re-seeded conservatively at every run-loop
    /// entry; unused by the lockstep kernel.
    cal: Calendar,
    /// Event-kernel idle accounting: `charged[i]` is the first cycle core
    /// `i`'s stall/occupancy counters have *not* yet absorbed. The gap up
    /// to the current cycle is charged in bulk right before the core's
    /// next slice (or before the fabric mutates its controller).
    charged: Vec<Cycle>,
    /// Running total of instructions committed across all cores, kept in
    /// lockstep with the per-core counters by [`System::core_slice`] (the
    /// only place commits happen). Turns the per-cycle watchdog progress
    /// signature from an O(cores) sum into one load.
    committed_total: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .finish()
    }
}

struct Port<'a> {
    policy: &'a mut Policy,
    ctrl: &'a mut PrivateCache,
    net: &'a mut Network,
}

impl MemPort for Port<'_> {
    fn forward_load(&mut self, addr: Addr, size: usize) -> ForwardResult {
        self.policy.forward_load(addr, size)
    }
    fn issue_load(&mut self, addr: Addr, size: usize, token: u64, now: Cycle) {
        self.ctrl.load(addr, size, token, now, self.net);
    }
    fn store_committed(&mut self, addr: Addr, _size: usize, now: Cycle) {
        self.policy.store_committed(self.ctrl, self.net, addr, now);
    }
    fn fence_drained(&mut self) -> bool {
        self.policy.drained()
    }
}

impl System {
    /// Builds a system running one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces does not match `cfg.cores`.
    pub fn new(cfg: &SimConfig, traces: Vec<Box<dyn TraceSource>>, seed: u64) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core");
        let mut rng = SimRng::seed(seed);
        let mem = MemorySystem::new(cfg, &mut rng);
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(CoreId::new(i as u16), cfg, t))
            .collect();
        let policies = (0..cfg.cores).map(|_| Policy::new(cfg)).collect();
        System {
            cfg: *cfg,
            cores,
            policies,
            mem,
            now: Cycle::ZERO,
            tracer: Tracer::default(),
            event_scratch: Vec::new(),
            cal: Calendar::new(cfg.cores + 1),
            charged: vec![Cycle::ZERO; cfg.cores],
            committed_total: 0,
        }
    }

    /// Arms structured tracing on every component (cores, policies,
    /// memory side, the system itself), each with a ring of `cap`
    /// records. Tracing is observation-only: it never changes simulated
    /// state, statistics, or timing.
    pub fn enable_trace(&mut self, cap: usize) {
        self.tracer.enable(cap);
        for c in &mut self.cores {
            c.trace_enable(cap);
        }
        for p in &mut self.policies {
            p.trace_enable(cap);
        }
        self.mem.enable_trace(cap);
    }

    /// Drains every component's trace buffer as named tracks, each a
    /// timestamp-ordered record list: `core<i>.cpu`, `core<i>.policy`,
    /// `mem.core<i>`, `dir`, `net`, and `system` (bulk-idle spans).
    pub fn take_traces(&mut self) -> Vec<(String, Vec<TraceRecord>)> {
        let now = self.now;
        let mut out = Vec::new();
        for (i, c) in self.cores.iter_mut().enumerate() {
            out.push((format!("core{i}.cpu"), c.take_trace(now)));
        }
        for (i, p) in self.policies.iter_mut().enumerate() {
            out.push((format!("core{i}.policy"), p.take_trace()));
        }
        out.extend(self.mem.take_traces());
        out.push(("system".to_owned(), self.tracer.take()));
        out
    }

    /// Per-core cycle-attribution ledgers (always on, independent of
    /// tracing).
    pub fn attributions(&self) -> Vec<Attribution> {
        self.cores.iter().map(|c| c.attribution()).collect()
    }

    /// Asserts the accountant's partition invariant: on every core, the
    /// attribution categories sum to exactly the cycles that core has
    /// run. Cheap (six additions per core); called at the end of every
    /// run loop.
    pub fn check_attribution(&self) {
        for (i, c) in self.cores.iter().enumerate() {
            let total = c.attribution().total();
            assert_eq!(
                total,
                self.now.raw(),
                "core{i}: stall-attribution categories sum to {total}, expected {} cycles",
                self.now.raw()
            );
        }
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// A core, for inspection.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable core access (e.g. to enable load recording).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// The memory system, for inspection.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Advances the whole machine one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.mem.tick(now);
        let mut events = std::mem::take(&mut self.event_scratch);
        for i in 0..self.cores.len() {
            self.core_slice(i, now, &mut events);
        }
        self.event_scratch = events;
        self.now += 1;
    }

    /// Core `i`'s share of one cycle: drain its controller's cache events,
    /// route them (load completions to the core, TUS events to the
    /// policy), drain committed stores, then tick the pipeline. Both the
    /// lockstep tick and the event kernel run exactly this, so per-unit
    /// scheduling cannot diverge from the per-cycle order.
    fn core_slice(&mut self, i: usize, now: Cycle, events: &mut Vec<CacheEvent>) {
        let MemorySystem { ctrls, net, .. } = &mut self.mem;
        let ctrl = &mut ctrls[i];
        events.clear();
        ctrl.drain_events_into(events);
        Self::route_events(&mut self.cores[i], &mut self.policies[i], ctrl, net, now, events);
        self.policies[i].drain(self.cores[i].sb_mut(), ctrl, net, now);
        // The drain can itself raise events: a visibility flip that
        // answers a delayed invalidation drops the line, and a store that
        // moves the core's logical clock can expire a lapsed copy. A load
        // bound to such a line may sit behind a fence that this very drain
        // unblocks; its `Invalidated` must squash the load *before* this
        // cycle's commit, or the stale value retires. So whatever the
        // drain left is routed now.
        if ctrl.has_pending_events() {
            events.clear();
            ctrl.drain_events_into(events);
            Self::route_events(&mut self.cores[i], &mut self.policies[i], ctrl, net, now, events);
        }
        let mut port = Port {
            policy: &mut self.policies[i],
            ctrl,
            net,
        };
        let before = self.cores[i].committed();
        self.cores[i].tick(now, &mut port);
        self.committed_total += self.cores[i].committed() - before;
    }

    /// Routes drained controller events: load completions and line
    /// invalidations to the core, everything else (TUS authorization
    /// traffic) to the drain policy.
    fn route_events(
        core: &mut Core,
        policy: &mut Policy,
        ctrl: &mut PrivateCache,
        net: &mut Network,
        now: Cycle,
        events: &mut Vec<CacheEvent>,
    ) {
        for ev in events.drain(..) {
            match ev {
                CacheEvent::LoadDone { token, at, value } => {
                    core.load_complete(token, at, value);
                }
                CacheEvent::Invalidated { line } => {
                    core.on_line_invalidated(line, now);
                }
                other => policy.on_event(&other, ctrl, net, now),
            }
        }
    }

    // --- event-driven kernel --------------------------------------------
    //
    // Unit 0 is the memory fabric (the whole `MemorySystem::tick`, kept
    // atomic so its internal delivery order is untouched); unit `1 + i`
    // is core `i`'s slice. A busy cycle runs its due units in one
    // ascending-id pass, which is the lockstep intra-cycle order — fabric
    // first, cores ascending — and a unit only runs on cycles where its
    // `next_work` key is due, with skipped spans charged in bulk (per
    // unit, deferred until just before the unit's state can change).

    /// Conservatively re-seeds the calendar: every unit scheduled *now*,
    /// every idle ledger marked charged-up-to-now. The first cycle then
    /// runs as a full lockstep tick, which is always equivalence-safe, and
    /// the per-unit keys take over from there. Called at every run-loop
    /// entry so manual `tick()` calls or back-to-back warm-up/measure
    /// loops never leave stale keys behind.
    fn seed_calendar(&mut self) {
        for id in 0..=self.cores.len() {
            self.cal.schedule(id, self.now);
        }
        for c in &mut self.charged {
            *c = self.now;
        }
    }

    /// Charges core `i`'s un-materialized idle span `[charged[i], upto)`
    /// to the same stall/occupancy counters lockstep ticks would have
    /// bumped. Must run before anything mutates the core, its policy or
    /// its cache controller — the charge classifies against the state
    /// that actually held during the span.
    fn flush_idle(&mut self, i: usize, upto: Cycle) {
        let since = self.charged[i];
        if since >= upto {
            return;
        }
        let n = upto - since;
        let drained = self.policies[i].drained();
        self.policies[i].charge_idle(self.cores[i].sb(), &mut self.mem.ctrls[i], n);
        self.cores[i].charge_idle(n, since, drained);
        self.charged[i] = upto;
    }

    /// Flushes every core's pending idle span up to the current cycle
    /// (event kernel only; a no-op otherwise). Called whenever a run loop
    /// hands control back — statistics exports and the attribution
    /// invariant both need fully materialized ledgers.
    fn flush_all_idle(&mut self) {
        if self.cfg.kernel != KernelKind::Event {
            return;
        }
        for i in 0..self.cores.len() {
            self.flush_idle(i, self.now);
        }
    }

    /// Recomputes core `i`'s calendar key right after its slice ran at
    /// `now`. Events its own slice pushed (an L1-hit load completion, a
    /// same-cycle visibility flip) are consumed by the *next* cycle's
    /// drain, so pending controller events force a key of `now + 1`;
    /// otherwise the pipeline and drain policy report their next state
    /// change. `None` from both leaves the unit unscheduled until the
    /// fabric wakes it (a reply, grant or invalidation reschedules the
    /// core through the pre-delivery pass in [`System::advance_event`]).
    fn reschedule_core(&mut self, i: usize, now: Cycle) {
        let t = now + 1;
        if self.mem.ctrls[i].has_pending_events() {
            self.cal.schedule(1 + i, t);
            return;
        }
        let drained = self.policies[i].drained();
        let key = earliest(
            self.cores[i].next_work_at(t, drained),
            self.policies[i].next_work(self.cores[i].sb(), &self.mem.ctrls[i], t),
        );
        match key {
            Some(k) => self.cal.schedule(1 + i, k.max(t)),
            None => self.cal.unschedule(1 + i),
        }
    }

    /// One step of the event-driven kernel: runs every unit whose key is
    /// due this cycle (fabric first, then cores ascending — the lockstep
    /// order), or jumps the clock to the earliest future key. Returns the
    /// deadlock kind when the progress watchdog fires; the caller keeps
    /// the budget check (`now < max_cycles`).
    fn advance_event(&mut self, watchdog: &mut Watchdog, max_cycles: u64) -> Option<DeadlockKind> {
        let now = self.now;
        match self.cal.next_key() {
            Some(k) if k <= now => {
                let sent_before = self.mem.net.sent_count();
                let fabric_ran = self.cal.take_due(0, now);
                if fabric_ran {
                    // Pre-delivery pass: every core the fabric is about
                    // to touch gets its idle span charged against the
                    // pre-delivery state and a slice this cycle — exactly
                    // when lockstep would have processed the delivery.
                    for i in 0..self.cores.len() {
                        if self.mem.core_touched_by_fabric(i, now) {
                            self.flush_idle(i, now);
                            self.cal.schedule(1 + i, now);
                        }
                    }
                    self.mem.tick(now);
                }
                // Keys at or before `now` are only set before this pass
                // (the seed, the pre-delivery pass); a slice reschedules
                // its core at `now + 1` or later. So one ascending pass
                // reading the keys live runs every due core once, in
                // lockstep order.
                let mut events = std::mem::take(&mut self.event_scratch);
                for i in 0..self.cores.len() {
                    if self.cal.take_due(1 + i, now) {
                        self.flush_idle(i, now);
                        self.core_slice(i, now, &mut events);
                        self.charged[i] = now + 1;
                        self.reschedule_core(i, now);
                    }
                }
                self.event_scratch = events;
                // Refresh the fabric key: the pass consumed it, and core
                // slices may have queued new messages (always for a
                // future cycle — the hop latency is at least 1).
                if fabric_ran || self.mem.net.sent_count() != sent_before {
                    match self.mem.fabric_next_work(now) {
                        Some(k) => {
                            debug_assert!(k > now, "fabric work left behind at {now}");
                            self.cal.schedule(0, k);
                        }
                        None => self.cal.unschedule(0),
                    }
                }
                debug_assert!(
                    self.cal.next_key().is_none_or(|k| k > now),
                    "a unit due at {now} was left behind by the pass"
                );
                #[cfg(debug_assertions)]
                for i in 0..self.cores.len() {
                    debug_assert!(
                        !self.mem.ctrls[i].has_pending_events()
                            || self.cal.key(1 + i).is_some_and(|k| k <= now + 1),
                        "core{i}: pending cache events but no due calendar key"
                    );
                }
                self.now += 1;
                (!watchdog.check(self)).then_some(NO_PROGRESS)
            }
            horizon => {
                // No unit is due: jump to the earliest key (or, when the
                // machine is quiesced, to the budget/watchdog bound):
                // lockstep would spend pure idle ticks up to there with
                // the progress signature frozen, each one advancing the
                // watchdog, so the jump is clamped to the tick on which
                // the watchdog would fire. Nothing is charged here — idle
                // spans are materialized per unit by `flush_idle` when
                // the unit next runs.
                let sig = self.progress_signature();
                let until_work = match horizon {
                    Some(at) => at.raw() - now.raw(),
                    None => u64::MAX,
                };
                let until_budget = max_cycles - now.raw();
                let cap = watchdog.idle_capacity(sig);
                let n = until_work.min(until_budget).min(cap);
                self.tracer.emit(now, n, TraceEvent::BulkIdle);
                self.now += n;
                watchdog.advance_idle(sig, n);
                (n == cap).then_some(NO_PROGRESS)
            }
        }
    }

    /// Begins a stepping run towards `goal`: resets the progress watchdog
    /// and — under the event kernel — conservatively re-seeds the
    /// calendar, exactly as the monolithic run loop did at entry. Drive
    /// the run with [`System::run_step`]; the `try_run_*` convenience
    /// loops are thin wrappers over this pair, so a stepped run (a
    /// wall-clock-bounded one, say) is bit-identical to a monolithic one
    /// by construction.
    pub fn begin_run(&mut self, goal: RunGoal, max_cycles: u64) -> RunCtl {
        if self.cfg.kernel == KernelKind::Event {
            self.seed_calendar();
        }
        RunCtl {
            watchdog: Watchdog::new(),
            goal,
            max_cycles,
        }
    }

    /// One iteration of the run loop started by [`System::begin_run`]:
    /// checks the goal, then the cycle budget, then advances the machine
    /// one kernel step (a tick, or an idle jump). Statistics ledgers are
    /// fully materialized on every exit, so [`System::export_stats`]
    /// after [`StepOutcome::Done`], or a [`StepOutcome::Dead`] report,
    /// equals what the monolithic loop would have produced. `Done`
    /// carries no snapshot: a caller that reads no statistics (the
    /// litmus runs of `tus-tso`) builds none. After `Done` the system
    /// remains runnable — begin another run to continue (the
    /// warm-up/measure pattern).
    pub fn run_step(&mut self, ctl: &mut RunCtl) -> StepOutcome {
        if ctl.goal.met(self) {
            self.flush_all_idle();
            self.check_attribution();
            return StepOutcome::Done;
        }
        if self.now.raw() >= ctl.max_cycles {
            let budget = ctl.max_cycles;
            return StepOutcome::Dead(Box::new(
                self.abort_report(DeadlockKind::BudgetExhausted { budget }),
            ));
        }
        let step = match self.cfg.kernel {
            KernelKind::Event => self.advance_event(&mut ctl.watchdog, ctl.max_cycles),
            KernelKind::Lockstep => {
                self.tick();
                (!ctl.watchdog.check(self)).then_some(NO_PROGRESS)
            }
        };
        match step {
            Some(kind) => StepOutcome::Dead(Box::new(self.abort_report(kind))),
            None => StepOutcome::Running,
        }
    }

    /// Materializes every idle ledger and assembles the deadlock report
    /// for an abandoned run — the exit path [`System::run_step`] uses,
    /// public so callers imposing limits the simulator cannot see (a
    /// wall-clock deadline) produce identical diagnostics.
    pub fn abort_report(&mut self, kind: DeadlockKind) -> DeadlockReport {
        self.flush_all_idle();
        self.deadlock_report(kind)
    }

    /// Runs towards `goal` — [`System::begin_run`], then
    /// [`System::run_step`] until it finishes — without exporting
    /// statistics. Returns a [`DeadlockReport`] on budget exhaustion or a
    /// watchdog trip.
    pub fn try_run_until(
        &mut self,
        goal: RunGoal,
        max_cycles: u64,
    ) -> Result<(), Box<DeadlockReport>> {
        let mut ctl = self.begin_run(goal, max_cycles);
        loop {
            match self.run_step(&mut ctl) {
                StepOutcome::Running => {}
                StepOutcome::Done => return Ok(()),
                StepOutcome::Dead(report) => return Err(report),
            }
        }
    }

    /// Whether every trace has finished, every store has reached the
    /// memory system and it has quiesced.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(|c| c.finished() && c.sb().is_empty())
            && self.policies.iter().all(|p| p.drained())
            && self.mem.quiesced()
    }

    /// Assembles the structured deadlock diagnostics for the current
    /// machine state.
    pub fn deadlock_report(&self, kind: DeadlockKind) -> DeadlockReport {
        DeadlockReport {
            kind,
            cycle: self.now.raw(),
            cores: self
                .cores
                .iter()
                .zip(&self.policies)
                .map(|(c, p)| CoreDeadlockState {
                    committed: c.committed(),
                    finished: c.finished(),
                    sb_len: c.sb().len(),
                    policy: p.occupancy(),
                })
                .collect(),
            mem: self.mem.deadlock_snapshot(),
            dump: self.dump_state(),
        }
    }

    /// Runs until [`System::finished`], giving up after `max_cycles` or
    /// when the progress watchdog fires. A stuck run returns a
    /// [`DeadlockReport`] instead of aborting the process, so callers
    /// (the fuzzer in particular) can record it as a counterexample.
    pub fn try_run_to_completion(&mut self, max_cycles: u64) -> Result<StatSet, Box<DeadlockReport>> {
        self.try_run_until(RunGoal::Completion, max_cycles)?;
        Ok(self.export_stats())
    }

    /// Runs until [`System::finished`], aborting after `max_cycles` or on
    /// a progress watchdog.
    ///
    /// # Panics
    ///
    /// Panics when the cycle budget is exhausted or no global progress is
    /// made for a long time (deadlock diagnostics). Use
    /// [`System::try_run_to_completion`] to get a [`DeadlockReport`]
    /// instead.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> StatSet {
        self.try_run_to_completion(max_cycles)
            .unwrap_or_else(|r| panic!("{r}\n{}", r.dump))
    }

    /// Fallible variant of [`System::run_committed`]: runs until every
    /// core has committed at least `insts` instructions (or finished its
    /// trace), returning a [`DeadlockReport`] on budget exhaustion or a
    /// watchdog trip.
    pub fn try_run_committed(
        &mut self,
        insts: u64,
        max_cycles: u64,
    ) -> Result<StatSet, Box<DeadlockReport>> {
        self.try_run_until(RunGoal::Committed(insts), max_cycles)?;
        Ok(self.export_stats())
    }

    /// Runs until every core has committed at least `insts` instructions
    /// (or finished its trace), then returns statistics. This is the
    /// fixed-work measurement loop the performance experiments use.
    ///
    /// # Panics
    ///
    /// Panics on the progress watchdog or when `max_cycles` elapse first.
    /// Use [`System::try_run_committed`] for structured diagnostics.
    pub fn run_committed(&mut self, insts: u64, max_cycles: u64) -> StatSet {
        self.try_run_committed(insts, max_cycles)
            .unwrap_or_else(|r| panic!("{r}\n{}", r.dump))
    }

    /// Exports all statistics: `cycles`, per-core `coreN.cpu.*` and
    /// `coreN.policy.*`, and memory-side `mem.*`.
    pub fn export_stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("cycles", self.now.raw() as f64);
        let mut committed = 0.0;
        for (i, c) in self.cores.iter().enumerate() {
            s.absorb(&format!("core{i}.cpu"), &c.export_stats());
            committed += c.committed() as f64;
        }
        for (i, p) in self.policies.iter().enumerate() {
            s.absorb(&format!("core{i}.policy"), &p.export_stats());
        }
        s.absorb("mem", &self.mem.export_stats());
        s.set("total_committed", committed);
        if self.now.raw() > 0 {
            s.set("system_ipc", committed / self.now.raw() as f64);
        }
        s
    }

    fn progress_signature(&self) -> (u64, u64) {
        debug_assert_eq!(
            self.committed_total,
            self.cores.iter().map(|c| c.committed()).sum::<u64>(),
            "cached commit total out of sync"
        );
        (self.committed_total, self.mem.net.sent_count())
    }

    /// Renders a human-readable snapshot of per-core pipeline and store
    /// state (used by the deadlock watchdog and available for debugging).
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycle {}", self.now);
        for (i, c) in self.cores.iter().enumerate() {
            let _ = writeln!(
                out,
                "core{i}: {:?} sb_len={} sb_head={:?}",
                c,
                c.sb().len(),
                c.sb().head().map(|e| (e.addr, e.committed))
            );
            let _ = writeln!(out, "core{i} rob head: {}", c.describe_head());
            let _ = writeln!(out, "core{i} policy: {}", self.cfg.policy);
            if let Some(h) = c.sb().head() {
                let _ = writeln!(out, "core{i} sb head line state: {:?}", self.mem.ctrls[i].line_state(h.addr.line()));
            }
            let _ = writeln!(out, "core{i} ctrl: {:?}", self.mem.ctrls[i]);
            let p = &self.policies[i];
            if let Some(woq) = p.woq() {
                let _ = writeln!(
                    out,
                    "core{i} wcbs: occupied={} woq_len={}",
                    p.occupancy().wcb_occupied,
                    woq.len()
                );
                for (j, e) in woq.iter().enumerate().take(16) {
                    let st = self.mem.ctrls[i].line_state(e.line);
                    let _ = writeln!(
                        out,
                        "  woq[{j}] line={} group={:?} ready={} retry={} can_cycle={} l1d={:?}",
                        e.line, e.group, e.ready, e.retry, e.can_cycle, st
                    );
                }
            }
        }
        let _ = writeln!(out, "dir: {:?}", self.mem.dir);
        out
    }
}

#[derive(Debug)]
struct Watchdog {
    last: Option<(u64, u64)>,
    since: u64,
}

impl Watchdog {
    fn new() -> Self {
        Watchdog { last: None, since: 0 }
    }

    /// Returns `false` when no progress has been made for
    /// [`WATCHDOG_CYCLES`] consecutive cycles.
    fn check(&mut self, sys: &System) -> bool {
        let sig = sys.progress_signature();
        if self.last == Some(sig) {
            self.since += 1;
            self.since < WATCHDOG_CYCLES
        } else {
            self.last = Some(sig);
            self.since = 0;
            true
        }
    }

    /// How many consecutive idle (signature-frozen) ticks can elapse
    /// until — and including — the one whose [`Watchdog::check`] would
    /// fire, given the current signature. Always at least 1.
    fn idle_capacity(&self, sig: (u64, u64)) -> u64 {
        if self.last == Some(sig) {
            WATCHDOG_CYCLES - self.since
        } else {
            // The first check records the new signature without counting,
            // then WATCHDOG_CYCLES more checks run before firing.
            WATCHDOG_CYCLES + 1
        }
    }

    /// Accounts for `n` consecutive idle ticks at signature `sig` in one
    /// step — the arithmetic image of `n` sequential [`Watchdog::check`]
    /// calls that all see the same signature.
    fn advance_idle(&mut self, sig: (u64, u64), n: u64) {
        debug_assert!(n >= 1);
        if self.last == Some(sig) {
            self.since += n;
        } else {
            self.last = Some(sig);
            self.since = n - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tus_cpu::{TraceInst, VecTrace};
    use tus_sim::PolicyKind;

    fn cfg_with(policy: PolicyKind, sb: usize) -> SimConfig {
        SimConfig::builder()
            .policy(policy)
            .sb_entries(sb)
            .scale_caches_down(64)
            .build()
    }

    fn burst_trace(lines: u64, stores_per_line: u64, base: u64) -> VecTrace {
        let mut v = Vec::new();
        for l in 0..lines {
            for s in 0..stores_per_line {
                v.push(TraceInst::store(
                    Addr::new(base + l * 64 + s * 8),
                    8,
                    l * 100 + s,
                ));
            }
        }
        // Read everything back.
        for l in 0..lines {
            for s in 0..stores_per_line {
                v.push(TraceInst::load(Addr::new(base + l * 64 + s * 8), 8));
            }
        }
        VecTrace::new(v)
    }

    /// Every policy must produce sequentially-correct values on a single
    /// core: loads observe the latest prior store.
    #[test]
    fn single_core_value_correctness_all_policies() {
        for policy in PolicyKind::ALL {
            let cfg = cfg_with(policy, 16);
            let trace = burst_trace(8, 4, 0x10_000);
            let mut sys = System::new(&cfg, vec![Box::new(trace)], 7);
            sys.core_mut(0).record_loads(true);
            sys.run_to_completion(2_000_000);
            let vals = sys.core(0).loaded_values();
            let mut expect = Vec::new();
            for l in 0..8u64 {
                for s in 0..4u64 {
                    expect.push(l * 100 + s);
                }
            }
            assert_eq!(vals, &expect[..], "policy {policy} returned wrong values");
        }
    }

    /// A load that a held store covers only in part waits for it to
    /// drain, under every policy: the WCBs and SSB's TSOB hold bytes the
    /// L1D does not have yet, so reading the L1D alone loses them.
    #[test]
    fn partly_covered_load_sees_its_own_store() {
        let a = Addr::new(0x10_000);
        let traces = [
            // A fresh line: the 4 stored bytes plus 4 zero bytes.
            (vec![TraceInst::store(a, 4, 0x2222_2222), TraceInst::load(a, 8)], 0x2222_2222),
            // The fence puts the 8-byte store in the L1D first.
            (
                vec![
                    TraceInst::store(a, 8, 0x1111_1111_1111_1111),
                    TraceInst::fence(),
                    TraceInst::store(a, 4, 0x2222_2222),
                    TraceInst::load(a, 8),
                ],
                0x1111_1111_2222_2222,
            ),
        ];
        for policy in PolicyKind::ALL {
            for (insts, expect) in &traces {
                let cfg = cfg_with(policy, 8);
                let mut sys = System::new(&cfg, vec![Box::new(VecTrace::new(insts.clone()))], 5);
                sys.core_mut(0).record_loads(true);
                sys.run_to_completion(1_000_000);
                assert_eq!(
                    sys.core(0).loaded_values(),
                    [*expect],
                    "policy {policy}: {insts:?}"
                );
            }
        }
    }

    /// Memory must hold the stored values after the run drains.
    #[test]
    fn stores_reach_memory_after_drain() {
        for policy in PolicyKind::ALL {
            let cfg = cfg_with(policy, 8);
            let trace = VecTrace::new(vec![
                TraceInst::store(Addr::new(0x4000), 8, 0xABCD),
                TraceInst::fence(),
            ]);
            let mut sys = System::new(&cfg, vec![Box::new(trace)], 3);
            sys.run_to_completion(1_000_000);
            // After a fence commits, the store is globally visible: a
            // *remote* observer (main memory after quiesce, via the
            // directory view) is checked indirectly here through the
            // system invariant that everything drained.
            assert!(sys.finished(), "policy {policy} failed to drain");
            assert_eq!(sys.core(0).committed(), 2, "policy {policy}");
        }
    }

    /// TUS must form unauthorized lines and flip them visible.
    #[test]
    fn tus_visibility_flips_happen() {
        let cfg = cfg_with(PolicyKind::Tus, 8);
        let trace = burst_trace(16, 2, 0x20_000);
        let mut sys = System::new(&cfg, vec![Box::new(trace)], 11);
        let stats = sys.run_to_completion(2_000_000);
        assert!(
            stats.get("core0.policy.visibility_flips") > 0.0,
            "no visibility flips: {stats}"
        );
        assert!(stats.get("core0.policy.atomic_groups") > 0.0);
    }

    /// Without prefetch-at-commit, stores must take the
    /// unauthorized-allocation (always-hit illusion) path.
    #[test]
    fn tus_unauthorized_alloc_path_without_prefetch() {
        let cfg = SimConfig::builder()
            .policy(PolicyKind::Tus)
            .sb_entries(8)
            .prefetch_at_commit(false)
            .stream_prefetcher(false)
            .scale_caches_down(64)
            .build();
        let trace = burst_trace(16, 2, 0x30_000);
        let mut sys = System::new(&cfg, vec![Box::new(trace)], 11);
        let stats = sys.run_to_completion(2_000_000);
        assert!(
            stats.get("mem.core0.unauth_allocs") > 0.0,
            "no unauthorized allocations: {stats}"
        );
    }

    /// Coalescing reduces L1D store writes relative to the baseline.
    #[test]
    fn tus_reduces_l1d_writes() {
        let run = |policy| {
            let cfg = cfg_with(policy, 16);
            let trace = burst_trace(32, 8, 0x40_000);
            let mut sys = System::new(&cfg, vec![Box::new(trace)], 5);
            let s = sys.run_to_completion(4_000_000);
            s.get("mem.core0.l1d_writes")
        };
        let base = run(PolicyKind::Baseline);
        let tus = run(PolicyKind::Tus);
        assert!(
            tus < base / 2.0,
            "expected >=2x write reduction: baseline {base}, TUS {tus}"
        );
    }

    /// Two cores fighting over the same lines must make progress and end
    /// with coherent values under TUS (delay/relinquish paths).
    #[test]
    fn two_core_conflict_progress_tus() {
        let cfg = SimConfig::builder()
            .policy(PolicyKind::Tus)
            .cores(2)
            .sb_entries(8)
            // Without prefetch-at-commit the unauthorized window spans the
            // full permission round trip, so external conflicts are
            // guaranteed under this contention.
            .prefetch_at_commit(false)
            .scale_caches_down(64)
            .build();
        let mk = |salt: u64| {
            let mut v = Vec::new();
            for i in 0..600u64 {
                // Both cores hammer the same 4 lines.
                let line = (i + salt) % 4;
                v.push(TraceInst::store(Addr::new(0x8000 + line * 64), 8, salt * 1000 + i));
            }
            VecTrace::new(v)
        };
        let mut sys = System::new(&cfg, vec![Box::new(mk(0)), Box::new(mk(1))], 13);
        let stats = sys.run_to_completion(4_000_000);
        assert!(sys.finished());
        // The conflict machinery must actually have been exercised.
        let conflicts = stats.get("core0.policy.conflict_delays")
            + stats.get("core0.policy.conflict_relinquishes")
            + stats.get("core1.policy.conflict_delays")
            + stats.get("core1.policy.conflict_relinquishes");
        assert!(conflicts > 0.0, "no external conflicts exercised: {stats}");
    }

    /// All five policies survive a two-core true-sharing stress run.
    #[test]
    fn two_core_stress_all_policies() {
        for policy in PolicyKind::ALL {
            let cfg = SimConfig::builder()
                .policy(policy)
                .cores(2)
                .sb_entries(8)
                .scale_caches_down(64)
                .build();
            let mk = |salt: u64| {
                let mut v = Vec::new();
                for i in 0..100u64 {
                    let line = (i * 7 + salt) % 8;
                    v.push(TraceInst::store(Addr::new(0xC000 + line * 64), 8, i));
                    if i % 3 == 0 {
                        v.push(TraceInst::load(Addr::new(0xC000 + ((line + 1) % 8) * 64), 8));
                    }
                }
                VecTrace::new(v)
            };
            let mut sys = System::new(&cfg, vec![Box::new(mk(0)), Box::new(mk(3))], 17);
            sys.run_to_completion(4_000_000);
            assert!(sys.finished(), "policy {policy} did not finish");
        }
    }

    /// The fixed-work loop stops at the instruction target.
    #[test]
    fn run_committed_stops_at_target() {
        let cfg = cfg_with(PolicyKind::Baseline, 16);
        let trace = VecTrace::new(vec![TraceInst::alu(); 10_000]);
        let mut sys = System::new(&cfg, vec![Box::new(trace)], 1);
        let stats = sys.run_committed(1_000, 100_000);
        assert!(stats.get("core0.cpu.committed") >= 1_000.0);
        assert!(stats.get("core0.cpu.committed") < 10_000.0);
        assert!(stats.get("system_ipc") > 0.0);
    }

    // --- kernel equivalence ---------------------------------------------
    //
    // The event-driven kernel must be observationally identical to the
    // lockstep kernel: same StatSet (every counter, including stall and
    // occupancy integrals), same final cycle, same deadlock verdicts.

    use tus_cpu::TraceSource;
    use tus_sim::KernelKind;

    fn run_kernel(
        cfg: &SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        seed: u64,
        kernel: KernelKind,
        max_cycles: u64,
    ) -> Result<StatSet, (DeadlockKind, u64)> {
        let mut c = *cfg;
        c.kernel = kernel;
        let mut sys = System::new(&c, traces, seed);
        sys.try_run_to_completion(max_cycles)
            .map_err(|r| (r.kind, r.cycle))
    }

    fn assert_kernels_agree(cfg: &SimConfig, mk: impl Fn() -> Vec<Box<dyn TraceSource>>, seed: u64) {
        let lock = run_kernel(cfg, mk(), seed, KernelKind::Lockstep, 4_000_000);
        let event = run_kernel(cfg, mk(), seed, KernelKind::Event, 4_000_000);
        assert_eq!(lock, event, "event kernel diverged for {:?}", cfg.policy);
    }

    /// Single-core store/load bursts: both kernels produce identical
    /// statistics for every policy.
    #[test]
    fn kernels_agree_single_core_all_policies() {
        for policy in PolicyKind::ALL {
            let cfg = cfg_with(policy, 16);
            assert_kernels_agree(&cfg, || vec![Box::new(burst_trace(12, 4, 0x50_000))], 23);
        }
    }

    /// Fences force full drains (long idle windows while the SB/WCB
    /// empties); both kernels must charge the wait identically.
    #[test]
    fn kernels_agree_with_fences() {
        for policy in PolicyKind::ALL {
            let cfg = cfg_with(policy, 8);
            let mk = || -> Vec<Box<dyn TraceSource>> {
                let mut v = Vec::new();
                for i in 0..40u64 {
                    v.push(TraceInst::store(Addr::new(0x60_000 + (i % 6) * 64), 8, i));
                    if i % 5 == 4 {
                        v.push(TraceInst::fence());
                    }
                }
                vec![Box::new(VecTrace::new(v))]
            };
            assert_kernels_agree(&cfg, mk, 29);
        }
    }

    /// Two cores contending for the same lines exercise the conflict,
    /// relinquish and grant-hold paths under TUS; the event kernel must
    /// not perturb any of them.
    #[test]
    fn kernels_agree_two_core_contention() {
        for policy in PolicyKind::ALL {
            let cfg = SimConfig::builder()
                .policy(policy)
                .cores(2)
                .sb_entries(8)
                .prefetch_at_commit(false)
                .scale_caches_down(64)
                .build();
            let mk = || -> Vec<Box<dyn TraceSource>> {
                let tr = |salt: u64| {
                    let mut v = Vec::new();
                    for i in 0..300u64 {
                        let line = (i + salt) % 4;
                        v.push(TraceInst::store(Addr::new(0x9000 + line * 64), 8, salt * 1000 + i));
                        if i % 7 == 2 {
                            v.push(TraceInst::load(Addr::new(0x9000 + ((line + 2) % 4) * 64), 8));
                        }
                    }
                    VecTrace::new(v)
                };
                vec![Box::new(tr(0)), Box::new(tr(1))]
            };
            assert_kernels_agree(&cfg, mk, 31);
        }
    }

    /// The fixed-instruction-count loop must stop at the same cycle with
    /// the same counters under both kernels.
    #[test]
    fn kernels_agree_run_committed() {
        for policy in PolicyKind::ALL {
            let run = |kernel| {
                let mut cfg = cfg_with(policy, 8);
                cfg.kernel = kernel;
                let mut v = Vec::new();
                for i in 0..500u64 {
                    v.push(TraceInst::store(Addr::new(0x70_000 + (i % 10) * 64), 8, i));
                    v.push(TraceInst::alu());
                }
                let mut sys = System::new(&cfg, vec![Box::new(VecTrace::new(v))], 37);
                sys.try_run_committed(400, 2_000_000).map(|s| (sys.now(), s))
            };
            let lock = run(KernelKind::Lockstep).expect("lockstep deadlock");
            let event = run(KernelKind::Event).expect("event kernel deadlock");
            assert_eq!(lock, event, "run_committed diverged for {policy}");
        }
    }

    /// Tracing must be observation-only (bit-identical statistics with it
    /// on or off), and the stall-attribution ledger must partition every
    /// cycle, under both kernels.
    #[test]
    fn tracing_is_observation_only_and_partitions_cycles() {
        for kernel in KernelKind::ALL {
            let mut cfg = cfg_with(PolicyKind::Tus, 8);
            cfg.kernel = kernel;
            let run = |trace: bool| {
                let mut sys = System::new(&cfg, vec![Box::new(burst_trace(8, 4, 0x90_000))], 3);
                if trace {
                    sys.enable_trace(4096);
                }
                let stats = sys.run_to_completion(2_000_000);
                sys.check_attribution();
                (stats, sys)
            };
            let (s_off, _) = run(false);
            let (s_on, mut sys_on) = run(true);
            assert_eq!(s_off, s_on, "tracing changed statistics under {kernel:?}");
            let tracks = sys_on.take_traces();
            assert!(
                tracks.iter().any(|(_, recs)| !recs.is_empty()),
                "tracing armed but no records captured under {kernel:?}"
            );
            // The event kernel must explain idle jumps with bulk-idle
            // spans.
            if kernel == KernelKind::Event {
                let sys_track = tracks.iter().find(|(n, _)| n == "system").expect("system track");
                assert!(
                    sys_track.1.iter().any(|r| matches!(r.ev, tus_sim::TraceEvent::BulkIdle)),
                    "no bulk-idle span under the {kernel:?} kernel"
                );
            }
        }
    }

    /// A too-small cycle budget must trip `BudgetExhausted` at the same
    /// cycle under both kernels (the event kernel clamps its jumps to the
    /// budget horizon rather than overshooting it).
    #[test]
    fn kernels_agree_on_budget_exhaustion() {
        let cfg = cfg_with(PolicyKind::Tus, 8);
        let mk = || -> Vec<Box<dyn TraceSource>> { vec![Box::new(burst_trace(16, 4, 0x80_000))] };
        let lock = run_kernel(&cfg, mk(), 41, KernelKind::Lockstep, 200);
        assert!(lock.is_err(), "budget of 200 cycles unexpectedly sufficed");
        let event = run_kernel(&cfg, mk(), 41, KernelKind::Event, 200);
        assert_eq!(lock.err(), event.err(), "budget verdicts diverged");
    }

    /// A genuine no-progress hang (a fence that can never drain is not
    /// constructible here, so instead: budget far beyond the watchdog with
    /// an empty machine cannot happen — `finished()` short-circuits; use a
    /// two-core livelock-free case and just assert the watchdog arithmetic
    /// matches check()'s step behaviour).
    #[test]
    fn watchdog_idle_capacity_matches_check_steps() {
        // Fresh watchdog, unseen signature: capacity counts the recording
        // check plus WATCHDOG_CYCLES counting checks.
        let w = Watchdog::new();
        let sig = (3, 4);
        assert_eq!(w.idle_capacity(sig), WATCHDOG_CYCLES + 1);

        // Advancing by n then asking again is consistent: total capacity
        // consumed never changes.
        let mut w2 = Watchdog::new();
        w2.advance_idle(sig, 100);
        assert_eq!(w2.idle_capacity(sig), WATCHDOG_CYCLES - 99);
        w2.advance_idle(sig, WATCHDOG_CYCLES - 100);
        // One idle tick of capacity left: the next check fires.
        assert_eq!(w2.idle_capacity(sig), 1);
        // A new signature resets the window.
        assert_eq!(w2.idle_capacity((9, 9)), WATCHDOG_CYCLES + 1);
    }
}
