//! The `tus-harness fuzz` subcommand: differential TSO fuzzing at scale.
//!
//! Drives [`tus_tso::fuzz`] from the command line: generates `--programs`
//! random litmus cases (deterministically from `--seed`), checks each one
//! across all five drain policies × `--seeds` timing variations against
//! the axiomatic x86-TSO reference model, shrinks any failure, and
//! persists both the original and the shrunk counterexample under
//! `<out>/fuzz-corpus/` as replayable text files (`--replay FILE`).
//!
//! The sweep fans out over the harness's worker pool (`--jobs`); program
//! `i` is [`tus_tso::fuzz::case_at`]`(seed, i)` and results come back in
//! index order, so generation — and therefore every finding — is
//! independent of scheduling.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_tso::check::CheckConfig;
use tus_tso::fuzz::{
    case_at, cases_in_bounds, check_policies, decode_case, encode_case, shrink_with, CaseFailure,
    FailureKind, FuzzCase,
};

use crate::args::{
    parse_cli, policy_list, Args, Command, Flag, COHERENCE, JOBS, KERNEL, NO_SHRINK, OUT, POLICY,
    SEED,
};
use crate::errors::HarnessError;
use crate::executor::{run_indexed, Executor};

/// Parsed `fuzz` subcommand options.
#[derive(Debug)]
pub struct FuzzOptions {
    /// Number of random programs to generate and check.
    pub programs: u64,
    /// Timing seeds per (program, policy) pair.
    pub seeds: u64,
    /// Base seed: the whole sweep is a pure function of it.
    pub base_seed: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Restrict the differential check to one policy (default: all five).
    pub policy: Option<PolicyKind>,
    /// Output directory; counterexamples land in `<out>/fuzz-corpus/`.
    pub out: PathBuf,
    /// Replay a persisted corpus file instead of generating programs.
    pub replay: Option<PathBuf>,
    /// Generate and persist N check-bounded seed-corpus cases (≤3
    /// threads, ≤8 ops) under `<out>/fuzz-corpus/`, then exit — the
    /// committed corpus `tus-harness check --corpus` sweeps in CI is
    /// produced this way.
    pub save_corpus: u64,
    /// Whether to shrink failures before reporting (`--no-shrink` off).
    pub shrink: bool,
    /// Simulation kernel the sweep runs under (`--kernel`); verdicts must
    /// not depend on it, so sweeping both kernels is itself a check.
    pub kernel: KernelKind,
    /// Coherence backend the sweep runs under (`--coherence`). TSO
    /// conformance must hold under *every* backend, so a tardis sweep is
    /// a first-class leg of the differential matrix, not a variant.
    pub coherence: CoherenceKind,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            programs: 500,
            seeds: 16,
            base_seed: 0,
            jobs: Executor::default_jobs(),
            policy: None,
            out: PathBuf::from("results"),
            replay: None,
            save_corpus: 0,
            shrink: true,
            kernel: KernelKind::default(),
            coherence: CoherenceKind::default(),
        }
    }
}

/// `tus-harness fuzz` and the `FuzzSweep` request.
pub static FUZZ: Command = Command {
    name: "fuzz",
    positional: None,
    flags: &[
        Flag::value("--programs", "programs", "N"),
        Flag::value("--seeds", "seeds", "N"),
        SEED,
        POLICY,
        KERNEL,
        COHERENCE,
        JOBS,
        OUT,
        Flag::value("--replay", "replay", "FILE").cli(),
        Flag::value("--save-corpus", "save_corpus", "N").cli(),
        NO_SHRINK,
    ],
    about: "checks N random litmus programs across all five policies against the\n\
            x86-TSO reference model; failures are shrunk and persisted under\n\
            <out>/fuzz-corpus/ as replayable files",
};

impl FuzzOptions {
    /// The options a `fuzz` command line or a `FuzzSweep` request gives,
    /// over `base`.
    pub fn from_args(mut args: Args<'_>, base: FuzzOptions) -> Result<FuzzOptions, HarnessError> {
        let mut opt = base;
        opt.programs = args.num("programs")?.unwrap_or(opt.programs);
        opt.seeds = args.num("seeds")?.map_or(opt.seeds, |n: u64| n.max(1));
        opt.base_seed = args.num("seed")?.unwrap_or(opt.base_seed);
        opt.policy = args.policy()?.or(opt.policy);
        opt.kernel = args.kernel()?.unwrap_or(opt.kernel);
        opt.coherence = args.coherence()?.unwrap_or(opt.coherence);
        opt.jobs = args.num("jobs")?.map_or(opt.jobs, |n: usize| n.max(1));
        opt.out = args.str("out").map_or(opt.out, PathBuf::from);
        opt.replay = args.str("replay").map(PathBuf::from).or(opt.replay);
        opt.save_corpus = args.num("save_corpus")?.unwrap_or(opt.save_corpus);
        opt.shrink = args.switch("shrink")?.unwrap_or(opt.shrink);
        args.finish()?;
        Ok(opt)
    }
}

/// One confirmed finding of the sweep.
pub(crate) struct Finding {
    /// Program index within the sweep (the RNG fork).
    pub(crate) index: u64,
    /// The generated litmus case.
    pub(crate) case: FuzzCase,
    /// What went wrong (policy, kind, diagnostics).
    pub(crate) failure: CaseFailure,
}

/// Renders, shrinks and persists one finding. Returns the corpus paths.
pub(crate) fn report_finding(opt: &FuzzOptions, f: &Finding) -> std::io::Result<Vec<PathBuf>> {
    let corpus = opt.out.join("fuzz-corpus");
    std::fs::create_dir_all(&corpus)?;
    let stem = format!("seed{}-case{}", opt.base_seed, f.index);
    let mut written = Vec::new();

    eprintln!("--- VIOLATION (program {}) ---", f.index);
    eprintln!("{}", f.failure);
    if let FailureKind::Timeout { report, .. } = &f.failure.kind {
        eprintln!("{report}");
    }
    eprint!("{}", f.case);

    let orig = corpus.join(format!("{stem}.orig.txt"));
    std::fs::write(&orig, encode_case(&f.case, Some(f.failure.policy), opt.seeds))?;
    written.push(orig);

    if opt.shrink {
        eprintln!("shrinking ...");
        let policy = [f.failure.policy];
        let (small, small_fail) = shrink_with(&f.case, |c| {
            check_policies(c, &policy, opt.seeds, opt.kernel, opt.coherence)
        });
        eprintln!(
            "shrunk to {} thread(s), {} op(s): {}",
            small.program.threads.len(),
            small.program.ops(),
            small_fail
        );
        eprint!("{small}");
        let path = corpus.join(format!("{stem}.txt"));
        std::fs::write(&path, encode_case(&small, Some(small_fail.policy), opt.seeds))?;
        written.push(path);
    }
    for p in &written {
        eprintln!("persisted: {}", p.display());
    }
    Ok(written)
}

/// Replays one corpus file; returns the process exit code.
fn replay(opt: &FuzzOptions, path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fuzz: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let entry = match decode_case(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fuzz: cannot parse {}: {e}", path.display());
            return 2;
        }
    };
    let policy = opt.policy.or(entry.policy);
    let seeds = opt.seeds.max(entry.seeds);
    eprintln!(
        "replaying {} ({} thread(s), {} op(s), {} seeds, policy {})",
        path.display(),
        entry.case.program.threads.len(),
        entry.case.program.ops(),
        seeds,
        policy.map_or("all", |p| p.label()),
    );
    eprint!("{}", entry.case);
    match check_policies(&entry.case, policy_list(&policy), seeds, opt.kernel, opt.coherence) {
        Some(fail) => {
            eprintln!("still failing: {fail}");
            if let FailureKind::Timeout { report, .. } = &fail.kind {
                eprintln!("{report}");
            }
            1
        }
        None => {
            eprintln!("case passes: every outcome TSO-allowed, no hangs");
            0
        }
    }
}

/// Runs the differential sweep itself: `opt.programs` cases of stream
/// `opt.base_seed` checked on the worker pool, findings returned sorted by
/// program index. `progress(done, total, violations_so_far)` is invoked
/// after every checked program — the CLI throttles it to stderr lines, the
/// daemon streams it as `Progress` frames.
pub(crate) fn sweep_cases(
    opt: &FuzzOptions,
    progress: &(dyn Fn(u64, u64, usize) + Sync),
) -> Vec<Finding> {
    let policies = policy_list(&opt.policy);
    let violations = AtomicUsize::new(0);
    let check = |i: usize| {
        let case = case_at(opt.base_seed, i as u64);
        let failure = check_policies(&case, policies, opt.seeds, opt.kernel, opt.coherence)?;
        Some(Finding { index: i as u64, case, failure })
    };
    let checked = run_indexed(opt.programs as usize, opt.jobs, check, |done, finding| {
        let found = usize::from(finding.is_some());
        let so_far = violations.fetch_add(found, Ordering::Relaxed) + found;
        progress(done as u64, opt.programs, so_far);
    });
    checked.into_iter().flatten().collect()
}

/// `--save-corpus N`: persists the first N cases of the stream within the
/// model checker's default bounds under `<out>/fuzz-corpus/` in the
/// replayable corpus format. Deterministic in the base seed; returns the
/// process exit code.
fn save_corpus(opt: &FuzzOptions) -> i32 {
    let corpus = opt.out.join("fuzz-corpus");
    if let Err(e) = std::fs::create_dir_all(&corpus) {
        eprintln!("fuzz: cannot create {}: {e}", corpus.display());
        return 2;
    }
    let bounds = CheckConfig::default();
    let (cases, drawn) =
        cases_in_bounds(opt.base_seed, opt.save_corpus, bounds.max_threads, bounds.max_ops);
    for (k, (_, case)) in cases.iter().enumerate() {
        let path = corpus.join(format!("gen-seed{}-{k:03}.txt", opt.base_seed));
        if let Err(e) = std::fs::write(&path, encode_case(case, None, opt.seeds)) {
            eprintln!("fuzz: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    if (cases.len() as u64) < opt.save_corpus {
        eprintln!(
            "fuzz: generator produced only {}/{} in-bound cases in {drawn} attempts",
            cases.len(),
            opt.save_corpus
        );
        return 2;
    }
    eprintln!(
        "persisted {} corpus cases (≤{} threads, ≤{} ops) under {}",
        cases.len(),
        bounds.max_threads,
        bounds.max_ops,
        corpus.display()
    );
    0
}

/// Runs the fuzz subcommand; returns the process exit code (0 = clean,
/// 1 = violation found, 2 = usage/IO error).
pub fn run_fuzz(opt: &FuzzOptions) -> i32 {
    if let Some(path) = &opt.replay {
        return replay(opt, &path.clone());
    }
    if opt.save_corpus > 0 {
        return save_corpus(opt);
    }
    let started = std::time::Instant::now();
    let policies = policy_list(&opt.policy).len() as u64;
    eprintln!(
        "fuzzing {} programs x {} policies x {} seeds (base seed {}, {} jobs, {} kernel, {} coherence)",
        opt.programs, policies, opt.seeds, opt.base_seed, opt.jobs, opt.kernel, opt.coherence
    );

    let findings = sweep_cases(opt, &|d, n, violations| {
        if d % 100 == 0 || d == n {
            eprintln!(
                "[{d}/{n} programs, {violations} violation(s), {:.1}s]",
                started.elapsed().as_secs_f64()
            );
        }
    });
    let sims = opt.programs * policies * opt.seeds;
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "[fuzz: {:.1}s, {} sims ({:.1} sims/s), {} violation(s)]",
        secs,
        sims,
        if secs > 0.0 { sims as f64 / secs } else { 0.0 },
        findings.len()
    );
    if findings.is_empty() {
        return 0;
    }
    for f in &findings {
        if let Err(e) = report_finding(opt, f) {
            eprintln!("fuzz: cannot persist counterexample: {e}");
        }
    }
    1
}

/// Entry point called from `main` for `tus-harness fuzz ...`.
pub fn main_fuzz(argv: &[String]) -> ! {
    let build = |args: Args<'_>| FuzzOptions::from_args(args, FuzzOptions::default());
    let opt = parse_cli(&FUZZ, "tus-harness fuzz", argv, build)
        .unwrap_or_else(|code| std::process::exit(code));
    std::process::exit(run_fuzz(&opt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_flags_cover_options() {
        let args: Vec<String> = [
            "--programs", "10", "--seeds", "4", "--seed", "9", "--jobs", "2", "--policy", "tus",
            "--out", "/tmp/x", "--no-shrink", "--kernel", "lockstep", "--coherence", "tardis",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = FuzzOptions::from_args(Args::from_argv(&FUZZ, &args).unwrap(), FuzzOptions::default())
            .unwrap();
        assert_eq!(o.programs, 10);
        assert_eq!(o.seeds, 4);
        assert_eq!(o.base_seed, 9);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.policy, Some(PolicyKind::Tus));
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
        assert!(!o.shrink);
        assert!(o.replay.is_none());
        assert_eq!(o.kernel, KernelKind::Lockstep);
        assert_eq!(o.coherence, CoherenceKind::Tardis);
    }

    /// A tiny end-to-end sweep under the Tardis backend is clean too.
    #[test]
    fn small_sweep_is_clean_under_tardis() {
        let opt = FuzzOptions {
            programs: 3,
            seeds: 2,
            base_seed: 1,
            jobs: 2,
            coherence: CoherenceKind::Tardis,
            ..FuzzOptions::default()
        };
        assert_eq!(run_fuzz(&opt), 0);
    }

    /// A tiny end-to-end sweep is clean and deterministic.
    #[test]
    fn small_sweep_is_clean() {
        let opt = FuzzOptions {
            programs: 3,
            seeds: 2,
            base_seed: 1,
            jobs: 2,
            ..FuzzOptions::default()
        };
        assert_eq!(run_fuzz(&opt), 0);
    }

    /// Replay of a hand-written passing corpus file returns 0; garbage
    /// and an out-of-range location return 2.
    #[test]
    fn replay_roundtrip() {
        let dir = std::env::temp_dir().join("tus-fuzz-replay-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sb.txt");
        std::fs::write(
            &path,
            "tusfuzz v1\npolicy TUS\nseeds 2\nthread\nst 0 1\nld 1\nthread\nst 1 2\nld 0\n",
        )
        .expect("write");
        let opt = FuzzOptions {
            replay: Some(path.clone()),
            seeds: 2,
            ..FuzzOptions::default()
        };
        assert_eq!(run_fuzz(&opt), 0);
        std::fs::write(&path, "garbage").expect("write");
        assert_eq!(run_fuzz(&opt), 2);
        // A location index past the decoder's cap is a parse error, not
        // an allocation of the index's size.
        std::fs::write(&path, "tusfuzz v1\nseeds 1\nthread\nst 4000000000000 1\n")
            .expect("write");
        assert_eq!(run_fuzz(&opt), 2);
    }
}
