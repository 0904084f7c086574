//! `tus-harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! tus-harness <experiment> [--quick|--full] [--seed N] [--out DIR]
//!             [--parallel-cap N] [--jobs N] [--no-cache] [--kernel K]
//!             [--coherence C]
//! tus-harness fuzz [--programs N] [--seeds N] [--seed N] [--jobs N]
//!             [--policy P] [--out DIR] [--replay FILE] [--save-corpus N]
//!             [--no-shrink] [--kernel K] [--coherence C]
//! tus-harness check [--corpus DIR] [--litmus all|NAME[,NAME]] [--fuzz N]
//!             [--seed N] [--max-threads N] [--max-ops N] [--max-states N]
//!             [--seeds N] [--no-reduction] [--no-lazy] [--stats]
//!             [--policy P] [--kernel K] [--coherence C] [--out DIR] [--jobs N]
//! tus-harness bench-hotpath [--quick|--full] [--seed N] [--out DIR]
//!             [--parallel-cap N] [--jobs N] [--kernel K]
//!             [--min-sims-per-sec X]
//!
//! experiments: table1 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15
//!              intext ablation coherence all
//! kernels (K): lockstep event (default: event)
//! coherence backends (C): mesi tardis (default: mesi)
//! ```
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

use tus_harness::experiments::{self, Options, EXPERIMENTS};
use tus_harness::{ExecCounters, Executor, Scale};
use tus_sim::{CoherenceKind, KernelKind};

fn usage() -> ! {
    eprintln!(
        "usage: tus-harness <experiment> [--quick|--full] [--seed N] [--out DIR]\n\
         \x20                  [--parallel-cap N] [--jobs N] [--no-cache] [--kernel K]\n\
         \x20                  [--coherence C] [--trace]\n\
         \x20      tus-harness fuzz [--programs N] [--seeds N] [--seed N] [--jobs N]\n\
         \x20                  [--policy P] [--out DIR] [--replay FILE] [--no-shrink]\n\
         \x20                  [--kernel K] [--coherence C] [--trace]\n\
         \x20      tus-harness check [--corpus DIR] [--litmus all|NAME[,NAME]] [--fuzz N]\n\
         \x20                  [--seed N] [--max-threads N] [--max-ops N] [--max-states N]\n\
         \x20                  [--seeds N] [--no-reduction] [--no-lazy] [--stats] [--policy P]\n\
         \x20                  [--kernel K] [--coherence C] [--out DIR] [--jobs N] [--no-shrink]\n\
         \x20      tus-harness trace [WORKLOAD] [--policy P] [--sb N] [--kernel K]\n\
         \x20                  [--coherence C] [--seed N] [--insts N] [--cap N] [--out DIR]\n\
         \x20      tus-harness serve [--listen ADDR:PORT] [--socket PATH] [--jobs N]\n\
         \x20                  [--handlers N] [--out DIR] [--no-cache] [--max-budget N]\n\
         \x20      tus-harness client (--connect HOST:PORT | --socket PATH) [--wait SECS]\n\
         \x20                  <ping|point|experiment|fuzz|trace|counters|shutdown> [...]\n\
         \x20      tus-harness bench-hotpath [--quick|--full] [--seed N] [--out DIR]\n\
         \x20                  [--parallel-cap N] [--jobs N] [--kernel K]\n\
         \x20                  [--min-sims-per-sec X]\n\
         experiments: table1 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15 intext ablation\n\
         \x20            coherence all\n\
         kernels (K): {} (default: {})\n\
         coherence backends (C): {} (default: {})\n\
         --trace arms the structured event recorder in every simulation\n\
         (observation-only: outputs and memo keys are unchanged)",
        KernelKind::ALL.map(|k| k.label()).join(" "),
        KernelKind::default(),
        CoherenceKind::ALL.map(|c| c.label()).join(" "),
        CoherenceKind::default(),
    );
    std::process::exit(2);
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
fn bench_hotpath(opt: &Options, jobs: usize, floor: Option<f64>) -> i32 {
    let hopt = Options {
        out: opt.out.join("bench-hotpath"),
        ..opt.clone()
    };
    let ex = Executor::new(jobs, None);
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
    if let Some(floor) = floor {
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
    if args.is_empty() {
        usage();
    }
    if args[0] == "fuzz" {
        tus_harness::fuzz_cmd::main_fuzz(&args[1..]);
    }
    if args[0] == "check" {
        tus_harness::check_cmd::main_check(&args[1..]);
    }
    if args[0] == "trace" {
        tus_harness::trace_cmd::main_trace(&args[1..]);
    }
    if args[0] == "serve" {
        tus_harness::serve::main_serve(&args[1..]);
    }
    if args[0] == "client" {
        tus_harness::client::main_client(&args[1..]);
    }
    let mut opt = Options::default();
    let mut cmd = None;
    let mut jobs = Executor::default_jobs();
    let mut cache = true;
    let mut min_sims_per_sec = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opt.scale = Scale::Quick,
            "--full" => opt.scale = Scale::Full,
            "--seed" => {
                opt.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => opt.out = it.next().unwrap_or_else(|| usage()).into(),
            "--parallel-cap" => {
                opt.parallel_cap = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--no-cache" => cache = false,
            "--min-sims-per-sec" => {
                min_sims_per_sec = Some(
                    it.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => tus::set_trace_default(true),
            "--kernel" => {
                opt.kernel = it
                    .next()
                    .and_then(|v| KernelKind::parse(&v))
                    .unwrap_or_else(|| usage())
            }
            "--coherence" => {
                opt.coherence = it
                    .next()
                    .and_then(|v| CoherenceKind::parse(&v))
                    .unwrap_or_else(|| usage())
            }
            c if cmd.is_none() && !c.starts_with('-') => cmd = Some(c.to_owned()),
            _ => usage(),
        }
    }
    let Some(cmd) = cmd else { usage() };
    if cmd == "bench-hotpath" {
        std::process::exit(bench_hotpath(&opt, jobs, min_sims_per_sec));
    }
    let cache_dir = cache.then(|| opt.out.join(".runcache"));
    let ex = Executor::new(jobs, cache_dir);

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
    if cmd == "all" {
        for &(name, f) in EXPERIMENTS {
            report(&run_timed(name, f));
        }
    } else {
        let Some(&(name, f)) = EXPERIMENTS.iter().find(|&&(n, _)| n == cmd) else {
            eprintln!(
                "{}",
                tus_harness::HarnessError::UnknownExperiment { name: cmd.clone() }
            );
            usage()
        };
        report(&run_timed(name, f));
    }
    eprintln!("[{:.1}s]", started.elapsed().as_secs_f64());
}
