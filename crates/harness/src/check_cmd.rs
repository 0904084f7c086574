//! The `tus-harness check` subcommand: bounded exhaustive model checking.
//!
//! Drives [`tus_tso::check`] from the command line: collects programs
//! from the persisted fuzz corpus (`--corpus DIR`), the litmus library
//! (`--litmus all|NAME[,NAME]`) and/or a seeded generator sweep
//! (`--programs N`), and checks each one — every policy's observable machine
//! enumerated exhaustively and diffed against the x86-TSO reference set
//! with exact equality, plus a sampled simulator cross-check.
//!
//! Programs over the `--max-threads`/`--max-ops`/`--max-states` bounds
//! come back as structured `bound exceeded` lines (reported, counted,
//! never fatal). Violations are shrunk through the same shrinker the
//! fuzzer uses ([`tus_tso::fuzz::shrink_with`]) and persisted under
//! `<out>/fuzz-corpus/` in the corpus text format, so
//! `tus-harness fuzz --replay FILE` re-runs them on the real simulator.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tus_sim::PolicyKind;
use tus_tso::check::{check_program_policies, CheckConfig, CheckOutcome, CheckReport, CheckStats};
use tus_tso::conformance::default_addrs;
use tus_tso::fuzz::{cases_in_bounds, decode_case, encode_case, shrink_with, FuzzCase};
use tus_tso::litmus::all_litmus_tests;

use crate::args::{
    bad, policy_list, Args, Command, Flag, COHERENCE, JOBS, KERNEL, NO_SHRINK, OUT, POLICY, SEED,
};
use crate::errors::HarnessError;
use crate::executor::{run_indexed, Executor};
use crate::request::{Progress, Reply, Side};

/// Timing-seed count recorded in persisted check repros — generous, so a
/// later `fuzz --replay` gives the simulator a real chance to wander
/// into the model-found divergence.
const REPRO_SEEDS: u64 = 64;

/// Parsed `check` subcommand options.
#[derive(Debug)]
pub struct CheckOptions {
    /// Directory of corpus files to check (every `*.txt` inside).
    pub corpus: Option<PathBuf>,
    /// Litmus selection: `all` or comma-separated test names.
    pub litmus: Option<String>,
    /// Generated programs to check (rejection-sampled to the bounds).
    pub programs: u64,
    /// Base seed for the generated programs.
    pub base_seed: u64,
    /// Exploration bounds and toggles.
    pub config: CheckConfig,
    /// Restrict to one policy (default: all five).
    pub policy: Option<PolicyKind>,
    /// Output directory; repro files land in `<out>/fuzz-corpus/`.
    pub out: PathBuf,
    /// Worker threads.
    pub jobs: usize,
    /// Whether to shrink violations before persisting (`--no-shrink`).
    pub shrink: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            corpus: None,
            litmus: None,
            programs: 0,
            base_seed: 0,
            config: CheckConfig::default(),
            policy: None,
            out: PathBuf::from("results"),
            jobs: Executor::default_jobs(),
            shrink: true,
        }
    }
}

/// `tus-harness check` and the `Check` request.
pub static CHECK: Command = Command {
    name: "check",
    positional: None,
    flags: &[
        Flag::value("--corpus", "corpus", "DIR"),
        Flag::value("--litmus", "litmus", "all|NAME[,NAME]"),
        Flag::value("--programs", "programs", "N"),
        SEED,
        Flag::value("--max-threads", "max_threads", "N"),
        Flag::value("--max-ops", "max_ops", "N"),
        Flag::value("--max-states", "max_states", "N"),
        Flag::value("--seeds", "seeds", "N"),
        Flag::sets("--no-reduction", "reduction", "0"),
        Flag::sets("--no-lazy", "lazy", "0"),
        POLICY,
        KERNEL,
        COHERENCE,
        OUT,
        JOBS,
        NO_SHRINK,
    ],
    about: "enumerates every reachable outcome of each policy's observable semantics\n\
            for the selected programs and requires exact equality with the x86-TSO\n\
            reference set (defaults: --max-threads 3 --max-ops 8, litmus bounds are\n\
            auto-raised to cover the library); violations are shrunk and persisted\n\
            under <out>/fuzz-corpus/ for `fuzz --replay`",
};

impl CheckOptions {
    /// The options a `check` command line or a `Check` request gives,
    /// over `base`. With no program source set, the source is the whole
    /// litmus library.
    pub fn from_args(mut args: Args<'_>, base: CheckOptions) -> Result<CheckOptions, HarnessError> {
        let mut opt = base;
        opt.corpus = args.str("corpus").map(PathBuf::from).or(opt.corpus);
        opt.litmus = args.str("litmus").map(str::to_owned).or(opt.litmus);
        opt.programs = args.num("programs")?.unwrap_or(opt.programs);
        opt.base_seed = args.num("seed")?.unwrap_or(opt.base_seed);
        let cfg = &mut opt.config;
        cfg.max_threads = args.num("max_threads")?.map_or(cfg.max_threads, |n: usize| n.max(1));
        cfg.max_ops = args.num("max_ops")?.map_or(cfg.max_ops, |n: usize| n.max(1));
        cfg.max_states = args.num("max_states")?.map_or(cfg.max_states, |n: u64| n.max(1));
        cfg.sim_seeds = args.num("seeds")?.unwrap_or(cfg.sim_seeds);
        cfg.reduction = args.switch("reduction")?.unwrap_or(cfg.reduction);
        cfg.lazy = args.switch("lazy")?.unwrap_or(cfg.lazy);
        cfg.kernel = args.kernel()?.unwrap_or(cfg.kernel);
        cfg.coherence = args.coherence()?.unwrap_or(cfg.coherence);
        opt.policy = args.policy()?.or(opt.policy);
        opt.out = args.str("out").map_or(opt.out, PathBuf::from);
        opt.jobs = args.num("jobs")?.map_or(opt.jobs, |n: usize| n.max(1));
        opt.shrink = args.switch("shrink")?.unwrap_or(opt.shrink);
        args.finish()?;
        if opt.corpus.is_none() && opt.litmus.is_none() && opt.programs == 0 {
            opt.litmus = Some("all".into());
        }
        Ok(opt)
    }
}

/// One program queued for checking.
#[derive(Debug, Clone)]
pub struct CheckJob {
    /// Where the program came from (corpus file stem, litmus name, or
    /// `fuzz-N`).
    pub name: String,
    /// The program plus its location→address map.
    pub case: FuzzCase,
}

/// One checked program whose verdict was not `Verified`.
#[derive(Debug)]
pub struct CheckFinding {
    /// The job that diverged.
    pub job: CheckJob,
    /// Its full report.
    pub report: CheckReport,
}

/// Aggregate result of a check sweep.
#[derive(Debug, Default)]
pub struct CheckSummary {
    /// Programs checked.
    pub programs: u64,
    /// Programs whose every policy matched the reference set exactly.
    pub verified: u64,
    /// Programs that exceeded a bound (reported, not proved).
    pub bound_exceeded: u64,
    /// Violating programs, in job order.
    pub findings: Vec<CheckFinding>,
    /// Per-policy aggregated exploration counters and enumerated-set
    /// sizes, in [`PolicyKind::ALL`] order (restricted under `--policy`).
    pub per_policy: Vec<(PolicyKind, CheckStats, u64)>,
}

impl CheckSummary {
    /// Number of violating programs.
    pub fn violations(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| matches!(f.report.outcome(), CheckOutcome::Violated))
            .count()
    }
}

/// Collects the programs a sweep will check. Litmus tests may need more
/// threads/ops than the configured bounds (IRIW has four threads); the
/// bounds in `cfg` are raised to cover the selection, so `--litmus all`
/// never reports spurious `bound exceeded`.
pub fn collect_jobs(opt: &CheckOptions, cfg: &mut CheckConfig) -> Result<Vec<CheckJob>, String> {
    let mut jobs = Vec::new();
    if let Some(dir) = &opt.corpus {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("corpus dir {} has no .txt entries", dir.display()));
        }
        for path in files {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let entry = decode_case(&text)
                .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
            let name = path
                .file_stem()
                .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
            jobs.push(CheckJob { name, case: entry.case });
        }
    }
    if let Some(sel) = &opt.litmus {
        let picked = if sel.eq_ignore_ascii_case("all") {
            all_litmus_tests()
        } else {
            let mut picked = Vec::new();
            for want in sel.split(',') {
                let mut all = all_litmus_tests();
                let pos = all
                    .iter()
                    .position(|t| t.name.eq_ignore_ascii_case(want.trim()))
                    .ok_or_else(|| format!("unknown litmus test {want:?}"))?;
                picked.push(all.swap_remove(pos));
            }
            picked
        };
        let need_threads = picked.iter().map(|t| t.program.threads.len()).max().unwrap_or(0);
        let need_ops = picked.iter().map(|t| t.program.ops()).max().unwrap_or(0);
        cfg.max_threads = cfg.max_threads.max(need_threads);
        cfg.max_ops = cfg.max_ops.max(need_ops);
        for t in picked {
            let addrs = default_addrs(&t.program);
            jobs.push(CheckJob {
                name: format!("litmus-{}", t.name),
                case: FuzzCase { program: t.program, addrs },
            });
        }
    }
    if opt.programs > 0 {
        // The first in-bound cases of the stream the fuzzer sweeps: the
        // same program shapes, now checked exhaustively.
        let (cases, drawn) =
            cases_in_bounds(opt.base_seed, opt.programs, cfg.max_threads, cfg.max_ops);
        if (cases.len() as u64) < opt.programs {
            return Err(format!(
                "generator produced only {}/{} in-bound programs in {drawn} attempts",
                cases.len(),
                opt.programs
            ));
        }
        jobs.extend(cases.into_iter().map(|(index, case)| CheckJob {
            name: format!("fuzz-seed{}-case{index}", opt.base_seed),
            case,
        }));
    }
    Ok(jobs)
}

/// Runs the sweep on the worker pool; `progress(done, total,
/// violations_so_far)` fires after every checked program.
pub fn sweep_jobs(
    jobs: &[CheckJob],
    cfg: &CheckConfig,
    policies: &[PolicyKind],
    workers: usize,
    progress: &(dyn Fn(u64, u64, usize) + Sync),
) -> CheckSummary {
    let n = jobs.len() as u64;
    let violations = AtomicUsize::new(0);
    let check = |i: usize| {
        let case = &jobs[i].case;
        check_program_policies(&case.program, &case.addrs, cfg, policies)
    };
    let reports = run_indexed(jobs.len(), workers, check, |done, report| {
        let violated = usize::from(matches!(report.outcome(), CheckOutcome::Violated));
        let so_far = violations.fetch_add(violated, Ordering::Relaxed) + violated;
        progress(done as u64, n, so_far);
    });

    let mut summary = CheckSummary {
        programs: n,
        per_policy: policies.iter().map(|&p| (p, CheckStats::default(), 0)).collect(),
        ..CheckSummary::default()
    };
    for (job, report) in jobs.iter().zip(reports) {
        for pc in &report.policies {
            if let Some(slot) = summary.per_policy.iter_mut().find(|(p, ..)| *p == pc.policy) {
                slot.1.absorb(&pc.stats);
                slot.2 += pc.enumerated as u64;
            }
        }
        match report.outcome() {
            CheckOutcome::Verified => summary.verified += 1,
            CheckOutcome::BoundExceeded(_) => {
                summary.bound_exceeded += 1;
                summary.findings.push(CheckFinding { job: job.clone(), report });
            }
            CheckOutcome::Violated => {
                summary.findings.push(CheckFinding { job: job.clone(), report });
            }
        }
    }
    summary
}

/// Renders the per-policy exploration counters.
pub fn render_stats(summary: &CheckSummary) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>12} {:>7} {:>10}",
        "policy", "explored", "memoized", "pruned", "levels", "outcomes"
    );
    for (policy, stats, enumerated) in &summary.per_policy {
        let _ = writeln!(
            s,
            "{:<8} {:>12} {:>12} {:>12} {:>7} {:>10}",
            policy.label(),
            stats.explored,
            stats.memoized,
            stats.pruned,
            stats.levels,
            enumerated
        );
    }
    s
}

/// Renders one finding's diff (extra/missed/cross-check divergences).
pub fn render_finding(f: &CheckFinding) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "--- {} [{}] ---", f.job.name, f.report.outcome());
    if let Some(b) = f.report.bound {
        let _ = writeln!(s, "{b}");
        return s;
    }
    for pc in &f.report.policies {
        if pc.clean() {
            continue;
        }
        for o in &pc.extra {
            let _ = writeln!(s, "policy {}: EXTRA outcome {o} (TSO violation)", pc.policy.label());
        }
        for o in &pc.missed {
            let _ = writeln!(s, "policy {}: MISSED outcome {o} (over-strong)", pc.policy.label());
        }
        for o in &pc.sim.violations {
            let _ = writeln!(
                s,
                "policy {}: simulator outcome {o} escapes the enumerated set",
                pc.policy.label()
            );
        }
        for (seed, _) in &pc.sim.timeouts {
            let _ = writeln!(s, "policy {}: cross-check hang at seed {seed}", pc.policy.label());
        }
        for seed in &pc.sim.truncated_seeds {
            let _ =
                writeln!(s, "policy {}: truncated registers at seed {seed}", pc.policy.label());
        }
    }
    s
}

/// Shrinks and persists one violating finding in the corpus format,
/// rendering the shrunk case and the repro path into `s`.
fn persist_finding(
    opt: &CheckOptions,
    cfg: &CheckConfig,
    policies: &[PolicyKind],
    f: &CheckFinding,
    s: &mut String,
) -> std::io::Result<()> {
    let corpus = opt.out.join("fuzz-corpus");
    std::fs::create_dir_all(&corpus)?;
    let (case, failure) = if opt.shrink {
        shrink_with(&f.job.case, |c| {
            check_program_policies(&c.program, &c.addrs, cfg, policies).first_failure()
        })
    } else {
        let failure = f.report.first_failure().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "finding has no failure")
        })?;
        (f.job.case.clone(), failure)
    };
    let (threads, ops) = (case.program.threads.len(), case.program.ops());
    let _ = write!(
        s,
        "shrunk to {threads} thread(s), {ops} op(s): {failure}\n{case}"
    );
    let path = corpus.join(format!("check-{}.txt", f.job.name));
    std::fs::write(&path, encode_case(&case, Some(failure.policy), REPRO_SEEDS))?;
    let _ = writeln!(
        s,
        "persisted: {} (replay with: tus-harness fuzz --replay)",
        path.display()
    );
    Ok(())
}

/// `tus-harness check` and the `Check` request. The reply counts the
/// programs verified, violating (each shrunk and persisted) and over a
/// bound, which is reported but not a failure: the bound is the
/// contract, and such a program is explicitly outside it.
pub fn run(side: Side<'_>, args: Args<'_>, progress: &Progress<'_>) -> Result<Reply, HarnessError> {
    let base = match side {
        Side::Cli => CheckOptions::default(),
        Side::Daemon(s) => CheckOptions {
            out: s.opt.out.clone(),
            jobs: s.opt.jobs,
            ..CheckOptions::default()
        },
    };
    let opt = CheckOptions::from_args(args, base)?;
    let mut cfg = opt.config.clone();
    let jobs = collect_jobs(&opt, &mut cfg).map_err(bad)?;
    if (cfg.max_threads, cfg.max_ops) != (opt.config.max_threads, opt.config.max_ops) {
        progress(&format!(
            "raising bounds to {} threads / {} ops to cover the litmus selection",
            cfg.max_threads, cfg.max_ops
        ));
    }
    let policies = policy_list(&opt.policy);
    let started = Instant::now();
    progress(&format!(
        "checking {} programs x {} policies (≤{} threads, ≤{} ops, ≤{} states, reduction {}, lazy {}, {} cross-check seeds, {} jobs)",
        jobs.len(),
        policies.len(),
        cfg.max_threads,
        cfg.max_ops,
        cfg.max_states,
        if cfg.reduction { "on" } else { "off" },
        if cfg.lazy { "on" } else { "off" },
        cfg.sim_seeds,
        opt.jobs
    ));
    let summary = sweep_jobs(&jobs, &cfg, policies, opt.jobs, &|done, total, violations| {
        if done % 25 == 0 || done == total {
            let secs = started.elapsed().as_secs_f64();
            progress(&format!("{done}/{total} programs, {violations} violation(s), {secs:.1}s"));
        }
    });
    let mut rendered = String::new();
    for f in &summary.findings {
        rendered += &render_finding(f);
        if matches!(f.report.outcome(), CheckOutcome::Violated) {
            let _ = write!(rendered, "{}", f.job.case);
            if let Err(e) = persist_finding(&opt, &cfg, policies, f, &mut rendered) {
                let _ = writeln!(rendered, "cannot persist repro: {e}");
            }
        }
    }
    rendered += &render_stats(&summary);
    let agg = summary
        .per_policy
        .iter()
        .fold(CheckStats::default(), |mut a, (_, s, _)| {
            a.absorb(s);
            a
        });
    Ok(format!(
        "programs={}\nverified={}\nviolations={}\nbound_exceeded={}\nexplored={}\nmemoized={}\npruned={}\nseconds={:.6}\n\n{rendered}",
        summary.programs,
        summary.verified,
        summary.violations(),
        summary.bound_exceeded,
        agg.explored,
        agg.memoized,
        agg.pruned,
        started.elapsed().as_secs_f64(),
    )
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tus_sim::{CoherenceKind, KernelKind};
    use tus_tso::check::Bound;

    fn cli(argv: &[String]) -> Result<CheckOptions, HarnessError> {
        CheckOptions::from_args(Args::from_argv(&CHECK, argv)?, CheckOptions::default())
    }

    #[test]
    fn check_flags_cover_options() {
        let args: Vec<String> = [
            "--corpus", "/tmp/corpus", "--litmus", "SB,MP", "--programs", "7", "--seed", "3",
            "--max-threads", "4", "--max-ops", "10", "--max-states", "5000", "--seeds", "2",
            "--no-reduction", "--no-lazy", "--policy", "csb", "--kernel", "lockstep",
            "--coherence", "tardis", "--out", "/tmp/o", "--jobs", "2", "--no-shrink",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = cli(&args).unwrap();
        assert_eq!(o.corpus, Some(PathBuf::from("/tmp/corpus")));
        assert_eq!(o.litmus.as_deref(), Some("SB,MP"));
        assert_eq!(o.programs, 7);
        assert_eq!(o.base_seed, 3);
        assert_eq!(o.config.max_threads, 4);
        assert_eq!(o.config.max_ops, 10);
        assert_eq!(o.config.max_states, 5000);
        assert_eq!(o.config.sim_seeds, 2);
        assert!(!o.config.reduction);
        assert!(!o.config.lazy);
        assert_eq!(o.policy, Some(PolicyKind::Csb));
        assert_eq!(o.config.kernel, KernelKind::Lockstep);
        assert_eq!(o.config.coherence, CoherenceKind::Tardis);
        assert_eq!(o.out, PathBuf::from("/tmp/o"));
        assert_eq!(o.jobs, 2);
        assert!(!o.shrink);
    }

    #[test]
    fn default_source_is_the_full_litmus_library() {
        let o = cli(&[]).unwrap();
        assert_eq!(o.litmus.as_deref(), Some("all"));
        assert_eq!(o.config.max_threads, 3);
        assert_eq!(o.config.max_ops, 8);
    }

    /// SB + MP verify end to end through the sweep machinery, with the
    /// simulator cross-check on.
    #[test]
    fn litmus_pair_verifies_end_to_end() {
        let opt = CheckOptions {
            litmus: Some("SB,MP".into()),
            config: CheckConfig { sim_seeds: 2, ..CheckConfig::default() },
            jobs: 2,
            ..CheckOptions::default()
        };
        let mut cfg = opt.config.clone();
        let jobs = collect_jobs(&opt, &mut cfg).expect("collect");
        assert_eq!(jobs.len(), 2);
        let summary = sweep_jobs(&jobs, &cfg, &PolicyKind::ALL, 2, &|_, _, _| {});
        assert_eq!(summary.verified, 2, "{:?}", summary.findings.len());
        assert_eq!(summary.violations(), 0);
        let stats = render_stats(&summary);
        assert!(stats.contains("TUS") && stats.contains("explored"), "{stats}");
    }

    /// An over-bound program reports `bound exceeded` without failing
    /// the sweep.
    #[test]
    fn bound_exceeded_is_counted_not_fatal() {
        let opt = CheckOptions {
            litmus: Some("SB".into()),
            config: CheckConfig { sim_seeds: 0, ..CheckConfig::default() },
            ..CheckOptions::default()
        };
        let mut cfg = opt.config.clone();
        cfg.max_states = 2; // starve the explorer
        let jobs = collect_jobs(&opt, &mut cfg).expect("collect");
        let summary = sweep_jobs(&jobs, &cfg, &PolicyKind::ALL, 1, &|_, _, _| {});
        assert_eq!(summary.bound_exceeded, 1);
        assert_eq!(summary.violations(), 0);
        let f = &summary.findings[0];
        assert!(matches!(f.report.outcome(), CheckOutcome::BoundExceeded(Bound::States { .. })));
        assert!(render_finding(f).contains("state budget"));
    }

    /// The generator source rejection-samples to the bounds.
    #[test]
    fn fuzz_source_respects_bounds() {
        let opt = CheckOptions {
            programs: 10,
            litmus: None,
            config: CheckConfig { sim_seeds: 0, ..CheckConfig::default() },
            ..CheckOptions::default()
        };
        let mut cfg = opt.config.clone();
        let jobs = collect_jobs(&opt, &mut cfg).expect("collect");
        assert_eq!(jobs.len(), 10);
        for j in &jobs {
            assert!(j.case.program.threads.len() <= cfg.max_threads);
            assert!(j.case.program.ops() <= cfg.max_ops);
        }
    }
}
