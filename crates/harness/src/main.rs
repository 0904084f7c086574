//! `tus-harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! tus-harness <experiment> [--quick|--normal|--full] [--seed N] [--out DIR]
//!             [--parallel-cap N] [--jobs N] [--no-cache] [--kernel K]
//!             [--coherence C]
//! tus-harness fuzz|check|trace|serve|client ...
//! tus-harness bench-hotpath [experiment flags] [--min-sims-per-sec X]
//!
//! experiments: table1 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15
//!              intext ablation coherence all
//! kernels (K): lockstep event (default: event)
//! coherence backends (C): mesi tardis (default: mesi)
//! ```
//!
//! Each command's flags are the rows of its argument table
//! ([`tus_harness::args`]); running `tus-harness` with no arguments
//! prints them all.
//!
//! Runs are executed by a worker pool (`--jobs`, default: available
//! parallelism), deduplicated across figures, and memoized on disk
//! under `<out>/.runcache` (`--no-cache` disables the disk cache).
//! All of this is output-neutral: simulations are seeded and
//! deterministic, so the tables and CSVs are byte-identical to a
//! sequential, uncached run — under **any** simulation kernel
//! (`--kernel`), which is what the CI kernel-equivalence job checks.
//! Each experiment reports wall-clock time and simulation throughput on
//! stderr. `bench-hotpath` runs the suite cold once (no memoization, no
//! disk cache) and **appends** a timestamped entry to
//! `BENCH_hotpath.json`, so the file accumulates a throughput trajectory
//! across optimization rounds; `--min-sims-per-sec` makes it exit
//! non-zero below a floor (the CI perf-smoke contract).

use tus_harness::args::{usage_error, Args, Command};
use tus_harness::check_cmd::CHECK;
use tus_harness::experiments::{self, Options, EXPERIMENT, EXPERIMENTS};
use tus_harness::fuzz_cmd::FUZZ;
use tus_harness::serve::SERVE;
use tus_harness::trace_cmd::TRACE;
use tus_harness::{ExecCounters, Executor, HarnessError};
use tus_sim::{CoherenceKind, KernelKind};

/// The full usage text: every command's synopsis, from its table.
fn usage() -> String {
    let line = |cmd: &Command, head: &str| {
        let text = cmd.synopsis(head, true);
        format!("       {}\n", text.replace('\n', "\n       "))
    };
    let mut s = line(&EXPERIMENT, "tus-harness <experiment>");
    s.replace_range(..7, "usage: ");
    s += &line(&FUZZ, "tus-harness fuzz");
    s += &line(&CHECK, "tus-harness check");
    s += &line(&TRACE, "tus-harness trace [WORKLOAD]");
    s += &line(&SERVE, "tus-harness serve");
    s += "       tus-harness client (--connect HOST:PORT | --socket PATH) [--wait SECS]\n\
          \x20                  <ping|point|experiment|fuzz|check|trace|counters|shutdown>\n";
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "{s}{}\n\
         experiments: {} all bench-hotpath\n\
         kernels (K): {} (default: {})\n\
         coherence backends (C): {} (default: {})",
        EXPERIMENT.about,
        names.join(" "),
        KernelKind::ALL.map(|k| k.label()).join(" "),
        KernelKind::default(),
        CoherenceKind::ALL.map(|c| c.label()).join(" "),
        CoherenceKind::default(),
    )
}

/// One experiment's measured execution cost.
struct Timing {
    name: &'static str,
    seconds: f64,
    counters: ExecCounters,
}

impl Timing {
    fn sims_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.counters.executed as f64 / self.seconds
        } else {
            0.0
        }
    }
}

fn report(t: &Timing) {
    eprintln!(
        "[{}: {:.1}s, {} sims ({:.1} sims/s), {} memo hits, {} cache hits]",
        t.name,
        t.seconds,
        t.counters.executed,
        t.sims_per_sec(),
        t.counters.memo_hits,
        t.counters.disk_hits,
    );
}

/// Suite throughput (sims/sec, skip kernel, default scale) measured on
/// the commit immediately before the dense line-state overhaul — the
/// denominator `bench-hotpath` reports its speedup against. Update it
/// when a later optimization round establishes a new baseline.
const HOTPATH_BASELINE_SIMS_PER_SEC: f64 = 4.77;

/// `bench-hotpath`: runs the full experiment suite **cold** (fresh
/// executor, no memo table reuse across experiments beyond the run's
/// own, no disk cache) and appends a timestamped throughput entry to
/// `<out>/BENCH_hotpath.json`, so repeated runs accumulate a perf
/// trajectory instead of overwriting each other. With
/// `--min-sims-per-sec`, exits non-zero when measured throughput falls
/// below the floor — the CI perf-smoke contract. Returns the process
/// exit code.
fn bench_hotpath(opt: &Options) -> i32 {
    let hopt = Options {
        out: opt.out.join("bench-hotpath"),
        ..opt.clone()
    };
    let ex = Executor::new(opt.jobs, None);
    eprintln!(
        "[bench-hotpath: running all experiments cold, {} kernel, {} backend]",
        hopt.kernel, hopt.coherence
    );
    let started = std::time::Instant::now();
    experiments::all(&ex, &hopt);
    let seconds = started.elapsed().as_secs_f64();
    let counters = ex.counters();
    let sims_per_sec = if seconds > 0.0 {
        counters.executed as f64 / seconds
    } else {
        0.0
    };
    let speedup = sims_per_sec / HOTPATH_BASELINE_SIMS_PER_SEC;
    eprintln!(
        "[bench-hotpath: {seconds:.1}s, {} sims, {sims_per_sec:.2} sims/s, \
         {speedup:.2}x over the {HOTPATH_BASELINE_SIMS_PER_SEC} sims/s baseline \
         ({} kernel, {} backend)]",
        counters.executed, hopt.kernel, hopt.coherence
    );
    if let Err(e) = write_bench_hotpath_json(&opt.out, &hopt, seconds, counters, sims_per_sec) {
        eprintln!("bench-hotpath: cannot write BENCH_hotpath.json: {e}");
        return 2;
    }
    if let Some(floor) = opt.min_sims_per_sec {
        if sims_per_sec < floor {
            eprintln!(
                "bench-hotpath: FAIL — {sims_per_sec:.2} sims/s is below the \
                 floor of {floor:.2} sims/s"
            );
            return 1;
        }
        eprintln!("bench-hotpath: ok — above the {floor:.2} sims/s floor");
    }
    0
}

/// A one-line fingerprint of the machine a benchmark entry was measured
/// on — CPU model and logical core count — so entries from different
/// boxes in the trajectory are never compared as if like-for-like.
fn host_fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.split_whitespace().collect::<Vec<_>>().join(" "))
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The fingerprint lands inside a JSON string literal.
    let model: String = model.chars().filter(|c| *c != '"' && *c != '\\').collect();
    format!("{model} x{cores}")
}

/// Appends one timestamped entry to `BENCH_hotpath.json`, keeping the
/// file a valid JSON array across runs (hand-rolled JSON; the workspace
/// is std-only). A missing file — or a pre-trajectory single-object file
/// — starts a fresh array.
fn write_bench_hotpath_json(
    out: &std::path::Path,
    hopt: &Options,
    seconds: f64,
    counters: ExecCounters,
    sims_per_sec: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let path = out.join("BENCH_hotpath.json");
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let entry = format!(
        "  {{\"unix_time\": {unix_time}, \"host\": \"{}\", \
         \"kernel\": \"{}\", \"coherence\": \"{}\", \
         \"seconds\": {seconds:.3}, \
         \"sims\": {}, \"sims_per_sec\": {sims_per_sec:.2}, \
         \"baseline_sims_per_sec\": {HOTPATH_BASELINE_SIMS_PER_SEC:.2}, \
         \"speedup\": {:.3}}}",
        host_fingerprint(),
        hopt.kernel,
        hopt.coherence,
        counters.executed,
        sims_per_sec / HOTPATH_BASELINE_SIMS_PER_SEC,
    );
    let body = match std::fs::read_to_string(&path) {
        Ok(prev) => {
            let prev = prev.trim_end();
            match prev.strip_suffix(']') {
                // An existing trajectory: splice the new entry in front
                // of the closing bracket.
                Some(head) if prev.starts_with('[') => {
                    let head = head.trim_end();
                    if head == "[" {
                        format!("[\n{entry}\n]\n")
                    } else {
                        format!("{head},\n{entry}\n]\n")
                    }
                }
                _ => format!("[\n{entry}\n]\n"),
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(&path, body)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprintln!("{}", usage());
            std::process::exit(2)
        }
        Some("fuzz") => tus_harness::fuzz_cmd::main_fuzz(&args[1..]),
        Some("check") => tus_harness::check_cmd::main_check(&args[1..]),
        Some("trace") => tus_harness::trace_cmd::main_trace(&args[1..]),
        Some("serve") => tus_harness::serve::main_serve(&args[1..]),
        Some("client") => tus_harness::client::main_client(&args[1..]),
        _ => {}
    }
    let known = |name: &str| {
        ["all", "bench-hotpath"].contains(&name) || EXPERIMENTS.iter().any(|&(n, _)| n == name)
    };
    let (name, opt) = Args::from_argv(&EXPERIMENT, &args)
        .and_then(|args| Options::from_args(args, Options::default()))
        .and_then(|(name, opt)| {
            let unknown = || HarnessError::UnknownExperiment { name: name.to_owned() };
            known(name).then_some((name, opt)).ok_or_else(unknown)
        })
        .unwrap_or_else(|e| std::process::exit(usage_error("tus-harness", &e, &usage())));
    if name == "bench-hotpath" {
        std::process::exit(bench_hotpath(&opt));
    }
    let cache_dir = opt.cache.then(|| opt.out.join(".runcache"));
    let ex = Executor::new(opt.jobs, cache_dir);

    let run_timed = |name: &'static str, f: fn(&Executor, &Options)| -> Timing {
        let before = ex.counters();
        let started = std::time::Instant::now();
        f(&ex, &opt);
        Timing {
            name,
            seconds: started.elapsed().as_secs_f64(),
            counters: ex.counters().since(before),
        }
    };

    let started = std::time::Instant::now();
    for &(experiment, f) in EXPERIMENTS {
        if name == "all" || name == experiment {
            report(&run_timed(experiment, f));
        }
    }
    eprintln!("[{:.1}s]", started.elapsed().as_secs_f64());
}
