//! `tus-harness client` — talk to a running `tus-serve` daemon.
//!
//! A thin synchronous client for the frame protocol of
//! [`crate::protocol`]: builds one request, streams `Progress` frames to
//! stderr as they arrive, prints the terminal reply body to stdout, and
//! maps the outcome onto process exit codes:
//!
//! * `0` — success reply reporting no violations,
//! * `1` — the daemon answered with a structured error reply, or a reply
//!   whose `violations=` header is above 0 (a `fuzz` or `check` that
//!   found some),
//! * `2` — usage error, connect failure, or a broken connection.
//!
//! The CLI prints the reply of the same command with [`finish`] too.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::args::{bad, usage_error, Args};
use crate::errors::HarnessError;
use crate::protocol::{decode_error, read_frame, write_frame, FrameKind, ReadOutcome};
use crate::request::REQUESTS;

/// Where the daemon lives.
#[derive(Debug, Clone)]
pub enum Target {
    /// `--connect HOST:PORT`.
    Tcp(String),
    /// `--socket PATH`.
    Unix(PathBuf),
}

/// Parsed `client` subcommand invocation.
#[derive(Debug)]
pub struct ClientOptions {
    /// Daemon address.
    pub target: Target,
    /// Keep retrying the connect for this long (daemon still starting).
    pub wait: Option<Duration>,
    /// The request frame to send.
    pub request: (FrameKind, String),
    /// Write the terminal reply body here instead of stdout (`--out`,
    /// chiefly for `trace` JSON).
    pub out: Option<PathBuf>,
}

/// The client's usage text, its actions' flags taken from their tables.
fn usage() -> String {
    let mut s = String::from(
        "usage: tus-harness client (--connect HOST:PORT | --socket PATH) [--wait SECS] <action>\n\
         actions:\n  ping [MESSAGE]\n",
    );
    for cmd in REQUESTS.iter().map(|r| r.cmd) {
        let mut head = format!("  {}", cmd.name);
        if let Some(key) = cmd.positional {
            head = format!("{head} {}", key.to_ascii_uppercase());
        }
        s.push_str(&cmd.synopsis(&head, false));
        s.push_str(" [--out FILE]\n");
    }
    s.push_str(
        "  counters\n  shutdown\n\
         exit codes: 0 success, 1 structured error reply or violations=N>0, 2 usage/IO",
    );
    s
}

impl ClientOptions {
    /// Parses the arguments following the `client` keyword. The action's
    /// flags are checked against its table and forwarded as header pairs;
    /// the daemon judges their values.
    pub fn parse(argv: &[String]) -> Result<ClientOptions, HarnessError> {
        let mut target = None;
        let mut wait = None;
        let mut rest = argv;
        // Connection flags come first, then the action and its flags.
        while let Some((flag, tail)) = rest
            .split_first()
            .filter(|(f, _)| matches!(f.as_str(), "--connect" | "--socket" | "--wait"))
        {
            let (value, tail) = tail
                .split_first()
                .ok_or_else(|| bad(format!("{flag} needs a value")))?;
            match flag.as_str() {
                "--connect" => target = Some(Target::Tcp(value.clone())),
                "--socket" => target = Some(Target::Unix(value.into())),
                _ => {
                    let secs = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad(format!("--wait {value:?} is not a duration")))?;
                    wait = Some(Duration::from_secs_f64(secs));
                }
            }
            rest = tail;
        }
        let target = target.ok_or_else(|| bad("needs --connect or --socket".into()))?;
        let (action, rest) = rest.split_first().ok_or_else(|| bad("needs an action".into()))?;
        let (request, out) = match (action.as_str(), rest) {
            ("ping", [] | [_]) => ((FrameKind::Ping, rest.concat()), None),
            ("counters", []) => ((FrameKind::Counters, String::new()), None),
            ("shutdown", []) => ((FrameKind::Shutdown, String::new()), None),
            (name, _) => {
                let req = REQUESTS
                    .iter()
                    .find(|r| r.cmd.name == name)
                    .ok_or_else(|| bad(format!("unknown action or arguments: {name}")))?;
                let mut args = Args::from_argv(req.cmd, rest)?;
                if let Some(key) = req.cmd.positional {
                    args.require(key)?;
                }
                let out = args.str("out").map(PathBuf::from);
                ((req.kind, args.into_headers()?), out)
            }
        };
        Ok(ClientOptions {
            target,
            wait,
            request,
            out,
        })
    }
}

/// A connected stream of either flavor.
trait Stream: Read + Write {}
impl<T: Read + Write> Stream for T {}

/// Connects, retrying until the `--wait` deadline (covers the window
/// where CI has just forked the daemon and it hasn't bound yet).
fn connect(target: &Target, wait: Option<Duration>) -> std::io::Result<Box<dyn Stream>> {
    let deadline = wait.map(|w| Instant::now() + w);
    loop {
        let attempt: std::io::Result<Box<dyn Stream>> = match target {
            Target::Tcp(addr) => TcpStream::connect(addr).map(|s| Box::new(s) as _),
            Target::Unix(path) => UnixStream::connect(path).map(|s| Box::new(s) as _),
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) => match deadline {
                Some(d) if Instant::now() < d => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                _ => return Err(e),
            },
        }
    }
}

/// Sends the request and pumps replies until a terminal frame; returns
/// the process exit code.
pub fn run_client(opt: &ClientOptions) -> i32 {
    let mut stream = match connect(&opt.target, opt.wait) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("client: cannot connect: {e}");
            return 2;
        }
    };
    let (kind, body) = &opt.request;
    if let Err(e) = write_frame(&mut stream, *kind, body) {
        eprintln!("client: cannot send request: {e}");
        return 2;
    }
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::Eof) => {
                eprintln!("client: connection closed before a terminal reply");
                return 2;
            }
            Ok(ReadOutcome::Malformed(what)) => {
                eprintln!("client: malformed reply: {what}");
                return 2;
            }
            Err(e) => {
                eprintln!("client: read error: {e}");
                return 2;
            }
        };
        match frame.kind {
            FrameKind::Progress => print_progress(&frame.body),
            FrameKind::Error => {
                let (token, message) = decode_error(&frame.body);
                eprintln!("client: server error ({token}):");
                eprintln!("{message}");
                return 1;
            }
            k if k.is_terminal_reply() => return finish(&frame.body, opt.out.as_deref()),
            k => {
                eprintln!("client: unexpected {k:?} frame");
                return 2;
            }
        }
    }
}

/// Prints one progress line on stderr, bracketed.
pub fn print_progress(line: &str) {
    eprintln!("[{}]", line.trim_end());
}

/// Prints a success reply's body on stdout, or writes it to `file`, and
/// returns the exit code: 1 when a `violations=` header line is above 0,
/// 2 when the file cannot be written, else 0.
pub fn finish(body: &str, file: Option<&Path>) -> i32 {
    if let Some(path) = file {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return 2;
            }
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        eprintln!("wrote {} bytes to {}", body.len(), path.display());
    } else {
        print!("{body}");
        if !body.ends_with('\n') && !body.is_empty() {
            println!();
        }
    }
    let violations = body
        .lines()
        .take_while(|l| !l.is_empty())
        .find_map(|l| l.strip_prefix("violations="))
        .and_then(|v| v.parse::<u64>().ok());
    i32::from(violations.is_some_and(|v| v > 0))
}

/// Entry point for `tus-harness client ...`.
pub fn main_client(argv: &[String]) -> ! {
    match ClientOptions::parse(argv) {
        Ok(opt) => std::process::exit(run_client(&opt)),
        Err(e) => std::process::exit(usage_error("client", &e, &usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_point_request() {
        let o = ClientOptions::parse(&strings(&[
            "--connect", "127.0.0.1:9", "--wait", "2", "point", "502.gcc1-like", "--policy",
            "tus", "--sb", "32", "--quick", "--seed", "7", "--budget", "1000", "--coherence",
            "tardis",
        ])).unwrap();
        assert!(matches!(o.target, Target::Tcp(ref a) if a == "127.0.0.1:9"));
        assert_eq!(o.wait, Some(Duration::from_secs(2)));
        assert_eq!(o.request.0, FrameKind::RunPoint);
        let body = &o.request.1;
        for line in [
            "policy=tus", "sb=32", "scale=quick", "seed=7", "budget=1000",
            "coherence=tardis", "workload=502.gcc1-like",
        ] {
            assert!(body.contains(&format!("{line}\n")), "missing {line} in {body:?}");
        }
    }

    #[test]
    fn parse_experiment_and_fuzz_and_plain_actions() {
        let o = ClientOptions::parse(&strings(&[
            "--socket", "/tmp/t.sock", "experiment", "fig10", "--quick",
        ])).unwrap();
        assert!(matches!(o.target, Target::Unix(_)));
        assert_eq!(o.request.0, FrameKind::Experiment);
        assert!(o.request.1.contains("name=fig10\n"));

        let o = ClientOptions::parse(&strings(&[
            "--connect", "h:1", "fuzz", "--programs", "5", "--seeds", "2",
        ])).unwrap();
        assert_eq!(o.request.0, FrameKind::FuzzSweep);

        let o = ClientOptions::parse(&strings(&[
            "--connect", "h:1", "check", "--litmus", "SB,MP", "--corpus", "results/fuzz-corpus",
            "--max-threads", "4", "--max-ops", "10", "--max-states", "5000", "--no-reduction",
            "--no-lazy", "--programs", "3",
        ])).unwrap();
        assert_eq!(o.request.0, FrameKind::Check);
        for line in [
            "litmus=SB,MP", "corpus=results/fuzz-corpus", "max_threads=4", "max_ops=10",
            "max_states=5000", "reduction=0", "lazy=0", "programs=3",
        ] {
            assert!(
                o.request.1.contains(&format!("{line}\n")),
                "missing {line} in {:?}",
                o.request.1
            );
        }

        let o = ClientOptions::parse(&strings(&["--connect", "h:1", "ping", "hello"])).unwrap();
        assert_eq!(o.request, (FrameKind::Ping, "hello".to_owned()));

        let o = ClientOptions::parse(&strings(&["--connect", "h:1", "shutdown"])).unwrap();
        assert_eq!(o.request.0, FrameKind::Shutdown);
        let o = ClientOptions::parse(&strings(&["--connect", "h:1", "counters"])).unwrap();
        assert_eq!(o.request.0, FrameKind::Counters);
    }

    #[test]
    fn violation_count_drives_exit_code() {
        assert_eq!(finish("programs=5\nviolations=0\n", None), 0);
        assert_eq!(finish("programs=5\nviolations=2\n", None), 1);
        // Only header lines count: the body after the blank line is text.
        assert_eq!(finish("programs=5\n\nviolations=2\n", None), 0);
    }
}
