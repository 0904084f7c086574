//! The harness's commands, one row each, and the one function each runs
//! through.
//!
//! `experiment`, `fuzz`, `check` and `trace` run on the CLI and as daemon
//! requests; `point` runs on the daemon only. A row names the request
//! frame, the reply frame, the argument table and the function. Both
//! sides call that function with the command's [`Args`]: it builds the
//! options over its [`Side`]'s base, runs the command, streams progress
//! lines through a callback and returns the [`Reply`]. The daemon sends
//! each progress line as a `Progress` frame and the body as the row's
//! reply frame; the CLI prints progress lines on stderr and the body as
//! `client` prints it ([`crate::client::finish`]), so the two sides give
//! the same reply.

use std::path::PathBuf;

use crate::args::{Args, Command};
use crate::check_cmd::CHECK;
use crate::errors::HarnessError;
use crate::experiments::EXPERIMENT;
use crate::fuzz_cmd::FUZZ;
use crate::protocol::FrameKind;
use crate::serve::{Server, POINT};
use crate::trace_cmd::TRACE;
use crate::{check_cmd, experiments, fuzz_cmd, serve, trace_cmd};

/// Where a command runs.
#[derive(Clone, Copy)]
pub enum Side<'a> {
    /// `tus-harness <command>`: the command's own defaults, and an
    /// executor of its own.
    Cli,
    /// A request to the daemon: its `out` and `jobs`, its shared executor
    /// and its budget ceiling.
    Daemon(&'a Server),
}

/// The callback a command streams its progress lines through (no
/// trailing newline). Sweeps call it from their worker threads.
pub type Progress<'a> = dyn Fn(&str) + Sync + 'a;

/// A command's terminal reply.
#[derive(Debug)]
pub struct Reply {
    /// The reply frame's body.
    pub body: String,
    /// Where the CLI writes the body instead of stdout: `trace`'s JSON.
    pub file: Option<PathBuf>,
}

impl From<String> for Reply {
    fn from(body: String) -> Reply {
        Reply { body, file: None }
    }
}

/// One harness command.
pub struct Request {
    /// The request frame that carries it.
    pub kind: FrameKind,
    /// The frame its reply goes back in.
    pub reply: FrameKind,
    /// Its argument table.
    pub cmd: &'static Command,
    /// The head of its CLI synopsis; `None` for a daemon-only command.
    pub cli: Option<&'static str>,
    /// Runs it on either side.
    pub run: fn(Side<'_>, Args<'_>, &Progress<'_>) -> Result<Reply, HarnessError>,
}

/// Every command, in usage order.
pub static REQUESTS: [Request; 5] = [
    Request {
        kind: FrameKind::RunPoint,
        reply: FrameKind::RunDone,
        cmd: &POINT,
        cli: None,
        run: serve::run_point,
    },
    Request {
        kind: FrameKind::Experiment,
        reply: FrameKind::ExperimentDone,
        cmd: &EXPERIMENT,
        cli: Some("tus-harness <experiment>"),
        run: experiments::run,
    },
    Request {
        kind: FrameKind::FuzzSweep,
        reply: FrameKind::FuzzDone,
        cmd: &FUZZ,
        cli: Some("tus-harness fuzz"),
        run: fuzz_cmd::run,
    },
    Request {
        kind: FrameKind::Check,
        reply: FrameKind::CheckDone,
        cmd: &CHECK,
        cli: Some("tus-harness check"),
        run: check_cmd::run,
    },
    Request {
        kind: FrameKind::TraceCapture,
        reply: FrameKind::TraceDone,
        cmd: &TRACE,
        cli: Some("tus-harness trace [WORKLOAD]"),
        run: trace_cmd::run,
    },
];

/// The command a request frame of `kind` carries.
pub fn by_kind(kind: FrameKind) -> Option<&'static Request> {
    REQUESTS.iter().find(|r| r.kind == kind)
}

/// The command a CLI command line runs, and its arguments: `fuzz`,
/// `check` or `trace` when `argv[0]` names it, else an experiment, which
/// `argv[0]` names.
pub fn by_argv(argv: &[String]) -> (&'static Request, &[String]) {
    let first = argv.first().map(String::as_str);
    let named = |r: &&Request| {
        r.cli.is_some() && r.kind != FrameKind::Experiment && Some(r.cmd.name) == first
    };
    match REQUESTS.iter().find(named) {
        Some(r) => (r, &argv[1..]),
        None => (by_kind(FrameKind::Experiment).expect("a row"), argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn command_lines_pick_their_row() {
        for (line, kind, rest) in [
            (&["fuzz", "--seed", "1"][..], FrameKind::FuzzSweep, 2),
            (&["check"], FrameKind::Check, 0),
            (&["trace", "505.mcf-like"], FrameKind::TraceCapture, 1),
            (&["fig10", "--quick"], FrameKind::Experiment, 2),
            // Neither the daemon-only `point` nor the experiment row's
            // own name is a CLI keyword: both are experiment names.
            (&["point", "x"], FrameKind::Experiment, 2),
            (&["experiment", "fig10"], FrameKind::Experiment, 2),
        ] {
            let argv = strings(line);
            let (r, args) = by_argv(&argv);
            assert_eq!((r.kind, args.len()), (kind, rest), "{line:?}");
        }
        for r in &REQUESTS {
            assert!(std::ptr::eq(by_kind(r.kind).expect("row"), r));
            assert!(r.reply.is_terminal_reply() && !r.kind.is_terminal_reply());
        }
    }
}
