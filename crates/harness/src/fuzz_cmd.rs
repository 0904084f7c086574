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

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_tso::check::CheckConfig;
use tus_tso::fuzz::{
    case_at, cases_in_bounds, check_policies, decode_case, encode_case, shrink_with, CaseFailure,
    FailureKind, FuzzCase,
};

use crate::args::{
    bad, policy_list, Args, Command, Flag, COHERENCE, JOBS, KERNEL, NO_SHRINK, OUT, POLICY, SEED,
};
use crate::errors::HarnessError;
use crate::executor::{run_indexed, Executor};
use crate::request::{Progress, Reply, Side};

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

/// `tus-harness fuzz` and the `FuzzSweep` request: the differential
/// sweep, or on the CLI one of its two other modes, `--replay` and
/// `--save-corpus`. Each returns its own reply; `violations=` in it sets
/// the exit code.
pub fn run(side: Side<'_>, args: Args<'_>, progress: &Progress<'_>) -> Result<Reply, HarnessError> {
    let base = match side {
        Side::Cli => FuzzOptions::default(),
        Side::Daemon(s) => FuzzOptions {
            programs: 50,
            out: s.opt.out.clone(),
            jobs: s.opt.jobs,
            ..FuzzOptions::default()
        },
    };
    let opt = FuzzOptions::from_args(args, base)?;
    match &opt.replay {
        Some(path) => replay(&opt, path),
        None if opt.save_corpus > 0 => save_corpus(&opt),
        None => sweep(&opt, progress),
    }
}

/// One confirmed finding of the sweep.
struct Finding {
    /// Program index within the sweep (the RNG fork).
    index: u64,
    /// The generated litmus case.
    case: FuzzCase,
    /// What went wrong (policy, kind, diagnostics).
    failure: CaseFailure,
}

/// Renders one finding, then shrinks and persists it, listing the corpus
/// paths written.
fn report_finding(opt: &FuzzOptions, f: &Finding, progress: &Progress<'_>) -> String {
    let mut s = format!("--- VIOLATION (program {}) ---\n{}\n", f.index, f.failure);
    if let FailureKind::Timeout { report, .. } = &f.failure.kind {
        let _ = writeln!(s, "{report}");
    }
    let _ = write!(s, "{}", f.case);
    if let Err(e) = persist_finding(opt, f, progress, &mut s) {
        let _ = writeln!(s, "cannot persist counterexample: {e}");
    }
    s
}

/// Persists the finding as generated and, unless `--no-shrink`, shrunk,
/// rendering the shrunk case and the paths into `s`.
fn persist_finding(
    opt: &FuzzOptions,
    f: &Finding,
    progress: &Progress<'_>,
    s: &mut String,
) -> std::io::Result<()> {
    let corpus = opt.out.join("fuzz-corpus");
    std::fs::create_dir_all(&corpus)?;
    let stem = format!("seed{}-case{}", opt.base_seed, f.index);
    let orig = corpus.join(format!("{stem}.orig.txt"));
    std::fs::write(&orig, encode_case(&f.case, Some(f.failure.policy), opt.seeds))?;
    let mut written = vec![orig];
    if opt.shrink {
        progress(&format!("shrinking program {}", f.index));
        let policy = [f.failure.policy];
        let (small, small_fail) = shrink_with(&f.case, |c| {
            check_policies(c, &policy, opt.seeds, opt.kernel, opt.coherence)
        });
        let (threads, ops) = (small.program.threads.len(), small.program.ops());
        let _ = write!(
            s,
            "shrunk to {threads} thread(s), {ops} op(s): {small_fail}\n{small}"
        );
        let path = corpus.join(format!("{stem}.txt"));
        std::fs::write(&path, encode_case(&small, Some(small_fail.policy), opt.seeds))?;
        written.push(path);
    }
    for p in &written {
        let _ = writeln!(s, "persisted: {}", p.display());
    }
    Ok(())
}

/// `--replay FILE`: re-checks one corpus file. An unreadable or
/// unparsable file is an error.
fn replay(opt: &FuzzOptions, path: &Path) -> Result<Reply, HarnessError> {
    let at = path.display();
    let text = std::fs::read_to_string(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot read {at}: {e}")))?;
    let entry = decode_case(&text).map_err(|e| bad(format!("cannot parse {at}: {e}")))?;
    let policy = opt.policy.or(entry.policy);
    let seeds = opt.seeds.max(entry.seeds);
    let case = &entry.case;
    let mut s = format!(
        "replaying {at} ({} thread(s), {} op(s), {seeds} seeds, policy {})\n{case}",
        case.program.threads.len(),
        case.program.ops(),
        policy.map_or("all", |p| p.label()),
    );
    let failure = check_policies(case, policy_list(&policy), seeds, opt.kernel, opt.coherence);
    match &failure {
        Some(fail) => {
            let _ = writeln!(s, "still failing: {fail}");
            if let FailureKind::Timeout { report, .. } = &fail.kind {
                let _ = writeln!(s, "{report}");
            }
        }
        None => s += "case passes: every outcome TSO-allowed, no hangs\n",
    }
    let violations = usize::from(failure.is_some());
    Ok(format!("programs=1\nseeds={seeds}\nviolations={violations}\n\n{s}").into())
}

/// The sweep: `opt.programs` cases of stream `opt.base_seed` checked on
/// the worker pool, a progress line about every 100 programs, and a reply
/// with its counts and each finding, in program order, shrunk and
/// persisted.
fn sweep(opt: &FuzzOptions, progress: &Progress<'_>) -> Result<Reply, HarnessError> {
    let started = Instant::now();
    let policies = policy_list(&opt.policy);
    let (n, sims) = (
        opt.programs,
        opt.programs * policies.len() as u64 * opt.seeds,
    );
    progress(&format!(
        "fuzzing {n} programs x {} policies x {} seeds (base seed {}, {} jobs, {} kernel, {} coherence)",
        policies.len(), opt.seeds, opt.base_seed, opt.jobs, opt.kernel, opt.coherence
    ));
    let violations = AtomicUsize::new(0);
    let check = |i: usize| {
        let case = case_at(opt.base_seed, i as u64);
        let failure = check_policies(&case, policies, opt.seeds, opt.kernel, opt.coherence)?;
        Some(Finding { index: i as u64, case, failure })
    };
    let checked = run_indexed(n as usize, opt.jobs, check, |done, finding| {
        let found = usize::from(finding.is_some());
        let so_far = violations.fetch_add(found, Ordering::Relaxed) + found;
        if done % 100 == 0 || done as u64 == n {
            let secs = started.elapsed().as_secs_f64();
            progress(&format!(
                "{done}/{n} programs, {so_far} violation(s), {secs:.1}s"
            ));
        }
    });
    let findings: Vec<Finding> = checked.into_iter().flatten().collect();
    let rendered: String = findings
        .iter()
        .map(|f| report_finding(opt, f, progress))
        .collect();
    Ok(format!(
        "programs={n}\nseeds={}\nsims={sims}\nviolations={}\nseconds={:.6}\n\n{rendered}",
        opt.seeds,
        findings.len(),
        started.elapsed().as_secs_f64(),
    )
    .into())
}

/// `--save-corpus N`: persists the first N cases of the stream within the
/// model checker's default bounds under `<out>/fuzz-corpus/` in the
/// replayable corpus format. Deterministic in the base seed.
fn save_corpus(opt: &FuzzOptions) -> Result<Reply, HarnessError> {
    let corpus = opt.out.join("fuzz-corpus");
    std::fs::create_dir_all(&corpus)?;
    let bounds = CheckConfig::default();
    let (cases, drawn) =
        cases_in_bounds(opt.base_seed, opt.save_corpus, bounds.max_threads, bounds.max_ops);
    for (k, (_, case)) in cases.iter().enumerate() {
        let path = corpus.join(format!("gen-seed{}-{k:03}.txt", opt.base_seed));
        std::fs::write(&path, encode_case(case, None, opt.seeds))?;
    }
    if (cases.len() as u64) < opt.save_corpus {
        return Err(bad(format!(
            "generator produced only {}/{} in-bound cases in {drawn} attempts",
            cases.len(),
            opt.save_corpus
        )));
    }
    Ok(format!(
        "programs={}\nseeds={}\n\npersisted {} corpus cases (≤{} threads, ≤{} ops) under {}\n",
        cases.len(),
        opt.seeds,
        cases.len(),
        bounds.max_threads,
        bounds.max_ops,
        corpus.display()
    )
    .into())
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
        let reply = sweep(&opt, &|_| {}).unwrap();
        assert!(reply.body.contains("\nviolations=0\n"), "{reply:?}");
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
        let reply = sweep(&opt, &|_| {}).unwrap();
        assert!(reply
            .body
            .starts_with("programs=3\nseeds=2\nsims=30\nviolations=0\n"));
        assert_eq!(reply.body.split_once("\n\n").unwrap().1, "");
    }

    /// Replay of a hand-written passing corpus file reports no violation;
    /// garbage and an out-of-range location are errors.
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
            seeds: 2,
            ..FuzzOptions::default()
        };
        let reply = replay(&opt, &path).unwrap();
        assert!(
            reply
                .body
                .starts_with("programs=1\nseeds=2\nviolations=0\n"),
            "{reply:?}"
        );
        assert!(reply
            .body
            .ends_with("case passes: every outcome TSO-allowed, no hangs\n"));
        std::fs::write(&path, "garbage").expect("write");
        assert_eq!(replay(&opt, &path).unwrap_err().kind_token(), "protocol");
        // A location index past the decoder's cap is a parse error, not
        // an allocation of the index's size.
        std::fs::write(&path, "tusfuzz v1\nseeds 1\nthread\nst 4000000000000 1\n")
            .expect("write");
        assert_eq!(replay(&opt, &path).unwrap_err().kind_token(), "protocol");
        let gone = dir.join("missing.txt");
        assert_eq!(replay(&opt, &gone).unwrap_err().kind_token(), "io");
    }
}
