//! `tus-harness` — regenerate the paper's tables and figures.
//!
//! ```text
//! tus-harness <experiment> [--quick|--normal|--full] [--seed N] [--out DIR]
//!             [--parallel-cap N] [--jobs N] [--no-cache] [--kernel K]
//!             [--coherence C]
//! tus-harness fuzz|check|trace|serve|client ...
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
//! An experiment, `fuzz`, `check` and `trace` run through the same
//! function as the daemon's request of the same name
//! ([`tus_harness::request`]): progress lines go to stderr, and the
//! reply goes to stdout exactly as `client` prints it (`trace` writes its
//! Chrome-trace JSON to `<out>/trace_<workload>_<policy>.json` instead).
//! The exit code is `client`'s: 0, or 1 when the reply reports
//! violations or the run gave up; usage and I/O errors exit 2.
//!
//! Runs are executed by a worker pool (`--jobs`, default: available
//! parallelism), deduplicated across figures, and memoized on disk
//! under `<out>/.runcache` (`--no-cache` disables the disk cache).
//! All of this is output-neutral: simulations are seeded and
//! deterministic, so the tables and CSVs are byte-identical to a
//! sequential, uncached run — under **any** simulation kernel
//! (`--kernel`), which is what the CI kernel-equivalence job checks.

use tus_harness::args::{cli_usage, usage_error, Args, Command};
use tus_harness::client::{finish, print_progress};
use tus_harness::experiments::{EXPERIMENT, EXPERIMENTS};
use tus_harness::protocol::FrameKind;
use tus_harness::request::{by_argv, Request, Side, REQUESTS};
use tus_harness::serve::SERVE;
use tus_harness::HarnessError;
use tus_sim::{CoherenceKind, KernelKind};

/// The full usage text: every command's synopsis, from its table.
fn usage() -> String {
    let line = |cmd: &Command, head: &str| {
        let text = cmd.synopsis(head, true);
        format!("       {}\n", text.replace('\n', "\n       "))
    };
    let mut s: String = REQUESTS
        .iter()
        .filter_map(|r| Some(line(r.cmd, r.cli?)))
        .collect();
    s.replace_range(..7, "usage: ");
    s += &line(&SERVE, "tus-harness serve");
    s += "       tus-harness client (--connect HOST:PORT | --socket PATH) [--wait SECS]\n\
          \x20                  <ping|point|experiment|fuzz|check|trace|counters|shutdown>\n";
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "{s}{}\n\
         experiments: {} all\n\
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

/// Prints why `req` failed and returns the exit code: 2 for a usage error
/// (then the usage) or an I/O error, and 1 for a run that gave up or
/// panicked, as `client` exits on an error reply.
fn failed(req: &Request, e: &HarnessError) -> i32 {
    let (prefix, usage) = match (req.kind, req.cli) {
        // `argv[0]` named no other command: show them all.
        (FrameKind::Experiment, _) | (_, None) => ("tus-harness".to_owned(), usage()),
        (_, Some(head)) => (
            format!("tus-harness {}", req.cmd.name),
            cli_usage(req.cmd, head),
        ),
    };
    match e {
        HarnessError::Protocol { .. }
        | HarnessError::UnknownWorkload { .. }
        | HarnessError::UnknownExperiment { .. } => usage_error(&prefix, e, &usage),
        HarnessError::Io(_) => {
            eprintln!("{prefix}: {e}");
            2
        }
        _ => {
            eprintln!("{prefix}: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprintln!("{}", usage());
            std::process::exit(2)
        }
        Some("serve") => tus_harness::serve::main_serve(&args[1..]),
        Some("client") => tus_harness::client::main_client(&args[1..]),
        _ => {}
    }
    let (req, argv) = by_argv(&args);
    let ran = Args::from_argv(req.cmd, argv).and_then(|a| (req.run)(Side::Cli, a, &print_progress));
    std::process::exit(match ran {
        Ok(reply) => finish(&reply.body, reply.file.as_deref()),
        Err(e) => failed(req, &e),
    })
}
