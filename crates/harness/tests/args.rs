//! The one argument model, checked from outside.
//!
//! * Parity: for every command and every flag in its table, the options
//!   the CLI builds from argv equal the options the daemon builds from the
//!   headers `client` forwards for the same argv; a CLI-only flag is
//!   refused by `client` and as a header, a daemon-only one by the CLI.
//! * Robustness: every `tus-harness` invocation in ci.yml, README.md and
//!   EXPERIMENTS.md and every request body in `tests/serve.rs`, mutated a
//!   few thousand ways, comes back `Ok` or as a `HarnessError` — never a
//!   panic, and never a process exit (which would end this test binary).

use tus_harness::args::{Arg, Args, Command, Reach};
use tus_harness::check_cmd::CheckOptions;
use tus_harness::client::ClientOptions;
use tus_harness::experiments::Options;
use tus_harness::fuzz_cmd::FuzzOptions;
use tus_harness::request::{by_argv, by_kind, REQUESTS};
use tus_harness::serve::{point_spec, ServeOptions, POINT, SERVE};
use tus_harness::trace_cmd::{TraceOptions, TRACE};
use tus_harness::HarnessError;
use tus_sim::SimRng;

fn strings(tokens: &[&str]) -> Vec<String> {
    tokens.iter().map(|t| t.to_string()).collect()
}

/// The options `cmd`'s builder makes from `args` over its defaults, as
/// `Debug` text so the different option types compare alike.
fn build(cmd: &Command, args: Args<'_>) -> Result<String, HarnessError> {
    Ok(match cmd.name {
        "point" => format!("{:?}", point_spec(args)?),
        "experiment" => format!("{:?}", Options::from_args(args, Options::default())?),
        "fuzz" => format!(
            "{:?}",
            FuzzOptions::from_args(args, FuzzOptions::default())?
        ),
        "check" => format!(
            "{:?}",
            CheckOptions::from_args(args, CheckOptions::default())?
        ),
        "trace" => format!(
            "{:?}",
            TraceOptions::from_args(args, TraceOptions::default())?
        ),
        "serve" => format!("{:?}", ServeOptions::from_args(args)?),
        other => panic!("no builder for {other}"),
    })
}

/// What the CLI builds from `argv`. `point` has no CLI; its argv reading
/// is the client's, through the same table.
fn cli(cmd: &'static Command, argv: &[String]) -> Result<String, HarnessError> {
    build(cmd, Args::from_argv(cmd, argv)?)
}

/// What the daemon builds from a request body.
fn daemon(cmd: &'static Command, body: &str) -> Result<String, HarnessError> {
    build(cmd, Args::from_headers(cmd, body)?)
}

/// A valid value for `key`.
fn sample(key: &str) -> &'static str {
    match key {
        "policy" => "csb",
        "kernel" => "lockstep",
        "coherence" => "tardis",
        "litmus" => "SB,MP",
        "workload" => "557.xz-like",
        "name" => "fig10",
        "corpus" | "out" | "replay" | "socket" => "/tmp/x",
        "listen" => "127.0.0.1:0",
        _ => "7",
    }
}

/// The least argv a command accepts: its positional argument, and for
/// `point` its policy.
fn base_argv(cmd: &Command) -> Vec<String> {
    let mut argv: Vec<String> = cmd
        .positional
        .map(|k| sample(k).to_owned())
        .into_iter()
        .collect();
    if cmd.name == "point" {
        argv.extend(strings(&["--policy", "tus"]));
    }
    argv
}

#[test]
fn cli_and_client_build_the_same_options() {
    for req in &REQUESTS {
        let cmd = req.cmd;
        for flag in cmd.flags {
            let mut argv = base_argv(cmd);
            argv.push(flag.flag.to_owned());
            let value = match flag.arg {
                Arg::Value(_) => sample(flag.key),
                Arg::Sets(v) => v,
            };
            if let Arg::Value(_) = flag.arg {
                argv.push(value.to_owned());
            }
            let mut client_argv = strings(&["--connect", "h:1", cmd.name]);
            client_argv.extend(argv.iter().cloned());
            let client = ClientOptions::parse(&client_argv);
            let what = format!("{} {}", cmd.name, flag.flag);
            match flag.reach {
                Reach::Both => {
                    let body = client.unwrap_or_else(|e| panic!("{what}: {e}")).request.1;
                    let built = daemon(cmd, &body).unwrap_or_else(|e| panic!("{what}: {e}"));
                    let local = cli(cmd, &argv).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(local, built, "{what}");
                }
                Reach::Cli => {
                    if flag.key == "out" {
                        let c = client.unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert_eq!(
                            c.out.as_deref(),
                            Some(std::path::Path::new(value)),
                            "{what}"
                        );
                        assert!(!c.request.1.contains("out="), "{what}: --out is forwarded");
                    } else {
                        assert!(client.is_err(), "{what}: client forwards a CLI-only flag");
                    }
                    if req.cli.is_some() {
                        cli(cmd, &argv).unwrap_or_else(|e| panic!("{what}: {e}"));
                    }
                    let base = base_argv(cmd);
                    let mut body = Args::from_argv(cmd, &base).unwrap().into_headers().unwrap();
                    body += &format!("{}={value}\n", flag.key);
                    let e = daemon(cmd, &body).expect_err(&what);
                    assert_eq!(e.kind_token(), "protocol", "{what}");
                    assert!(
                        e.to_string().contains(&format!("{:?}", flag.key)),
                        "{what}: {e}"
                    );
                }
                Reach::Wire => {
                    assert!(
                        cli(cmd, &argv).is_err(),
                        "{what}: the CLI takes a daemon-only flag"
                    );
                    let body = client.unwrap_or_else(|e| panic!("{what}: {e}")).request.1;
                    daemon(cmd, &body).unwrap_or_else(|e| panic!("{what}: {e}"));
                }
            }
        }
    }
}

/// Every `serve` flag builds its option from the CLI; none is a header.
#[test]
fn serve_flags_are_cli_only() {
    for flag in SERVE.flags {
        assert_eq!(flag.reach, Reach::Cli, "{}", flag.flag);
        let mut argv = vec![flag.flag.to_owned()];
        if let Arg::Value(_) = flag.arg {
            argv.push(sample(flag.key).to_owned());
        }
        build(&SERVE, Args::from_argv(&SERVE, &argv).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", flag.flag));
    }
}

fn repo_file(path: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    std::fs::read_to_string(format!("{root}{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every `tus-harness` command line in `text`, as the argv after the
/// binary name, each marked whether it sits in shell code (all of `text`
/// when `all_shell`, else a ```` ```sh ```` block) rather than in prose.
fn invocations(text: &str, all_shell: bool) -> Vec<(Vec<String>, bool)> {
    let text = text
        .replace("\\\n", " ")
        .replace("\"$f\"", "results/fuzz-open/mesi/x.txt")
        .replace("\"$backend\"", "mesi");
    let (mut fenced, mut sh) = (false, false);
    let mut found = Vec::new();
    for line in text.lines() {
        if let Some(lang) = line.trim_start().strip_prefix("```") {
            (fenced, sh) = (!fenced, !fenced && lang == "sh");
            continue;
        }
        let mut rest = line;
        while let Some(i) = rest.find("tus-harness") {
            let (before, after) = (&rest[..i], &rest[i + "tus-harness".len()..]);
            rest = after;
            // Cargo's `-p tus-harness` names the package; the harness's
            // arguments follow `--`.
            let args = if before.ends_with("-p ") {
                match after.trim_start().strip_prefix("-- ") {
                    Some(args) => args,
                    None => continue,
                }
            } else if after.starts_with(' ') {
                after
            } else {
                continue;
            };
            let mut argv = Vec::new();
            for token in args.split_whitespace() {
                if ["|", "||", "&&", "&", ";", ">"].contains(&token)
                    || token.starts_with("2>")
                    || token.starts_with('#')
                {
                    break;
                }
                let (token, ends) = match token.split_once('`') {
                    Some((head, _)) => (head, true),
                    None => (token, false),
                };
                if !token.is_empty() {
                    argv.push(token.trim_matches(|c| c == '"' || c == '\'').to_owned());
                }
                if ends {
                    break;
                }
            }
            found.push((argv, all_shell || sh));
        }
    }
    found
}

/// Parses a whole command line as `main` dispatches it. A `client` line
/// also has its request body built by the daemon's builder, whose errors
/// (an unknown workload, say) are the daemon's, not the line's.
fn parse_line(argv: &[String]) -> Result<(), HarnessError> {
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("serve") => build(&SERVE, Args::from_argv(&SERVE, rest)?).map(drop),
        Some("client") => {
            let c = ClientOptions::parse(rest)?;
            if let Some(req) = by_kind(c.request.0) {
                let _ = daemon(req.cmd, &c.request.1);
            }
            Ok(())
        }
        _ => {
            let (req, rest) = by_argv(argv);
            cli(req.cmd, rest).map(drop)
        }
    }
}

/// The request bodies `tests/serve.rs` sends: its string literals holding
/// a `key=value` line, with `{POINT}` expanded.
fn serve_test_bodies() -> Vec<String> {
    let src = repo_file("crates/harness/tests/serve.rs");
    let literals: Vec<String> = src
        .split('"')
        .skip(1)
        .step_by(2)
        .map(|l| l.replace("\\n", "\n"))
        .collect();
    let point = literals
        .iter()
        .find(|l| l.starts_with("workload=502.gcc1-like\npolicy=tus\nsb=114"))
        .expect("serve.rs's POINT body")
        .clone();
    literals
        .iter()
        .filter(|l| l.contains('=') && l.ends_with('\n'))
        .map(|l| l.replace("{POINT}", &point))
        .filter(|l| !l.contains('{'))
        .collect()
}

/// Values a mutation puts in place of a token or a header value.
const ODD_VALUES: [&str; 12] = [
    "",
    "0",
    "-1",
    "18446744073709551616",
    "99999999999999999999999",
    "nan",
    "inf",
    "1e400",
    "=",
    "é",
    "--",
    "all|NAME",
];

fn mutate<T: Clone>(rng: &mut SimRng, items: &[T], odd: impl Fn(&mut SimRng) -> T) -> Vec<T> {
    let mut v = items.to_vec();
    let n = v.len();
    match rng.index(6) {
        0 if n > 0 => {
            v.remove(rng.index(n));
        }
        1 if n > 0 => {
            let i = rng.index(n);
            v.insert(i, v[i].clone());
        }
        2 if n > 1 => {
            let (i, j) = (rng.index(n), rng.index(n));
            v.swap(i, j);
        }
        3 => v.truncate(rng.index(n + 1)),
        4 if n > 0 => {
            let i = rng.index(n);
            v[i] = odd(rng);
        }
        _ => {
            let i = rng.index(n + 1);
            v.insert(i, odd(rng));
        }
    }
    v
}

#[test]
fn documented_invocations_parse() {
    let mut seeds = Vec::new();
    seeds.extend(invocations(&repo_file(".github/workflows/ci.yml"), true));
    seeds.extend(invocations(&repo_file("README.md"), false));
    seeds.extend(invocations(&repo_file("EXPERIMENTS.md"), false));
    let shell: Vec<&Vec<String>> = seeds.iter().filter(|(_, s)| *s).map(|(a, _)| a).collect();
    assert!(
        shell.len() >= 30,
        "found only {} shell invocations",
        shell.len()
    );
    for argv in shell {
        // CI's daemon-smoke job sends `--bogus` to prove it is refused.
        let bogus = argv.iter().any(|t| t == "--bogus");
        let parsed = parse_line(argv);
        assert_eq!(
            parsed.is_err(),
            bogus,
            "tus-harness {}: {parsed:?}",
            argv.join(" ")
        );
    }
}

#[test]
fn mutated_command_lines_and_headers_never_panic() {
    let mut rng = SimRng::seed(0x7a5);
    let mut lines: Vec<Vec<String>> = [".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md"]
        .iter()
        .flat_map(|f| invocations(&repo_file(f), f.ends_with(".yml")))
        .map(|(argv, _)| argv)
        .collect();
    lines.sort();
    lines.dedup();
    let mut runs = 0;
    for argv in &lines {
        let _ = parse_line(argv);
        for _ in 0..40 {
            let mut m = argv.clone();
            for _ in 0..=rng.index(3) {
                m = mutate(&mut rng, &m, |rng| {
                    let pick = rng.index(ODD_VALUES.len() + 3);
                    match ODD_VALUES.get(pick) {
                        Some(v) => v.to_string(),
                        None => ["--bogus", "--out", "fig99"][pick - ODD_VALUES.len()].to_owned(),
                    }
                });
            }
            let _ = parse_line(&m);
            runs += 1;
        }
    }
    let bodies = serve_test_bodies();
    assert!(
        bodies.len() >= 10,
        "found only {} request bodies",
        bodies.len()
    );
    for body in &bodies {
        let seed: Vec<String> = body.lines().map(str::to_owned).collect();
        for _ in 0..40 {
            let mut m = seed.clone();
            for _ in 0..=rng.index(3) {
                m = mutate(&mut rng, &m, |rng| {
                    let key = [
                        "seed", "sb", "budget", "programs", "bogus", "kernal", "out", "x",
                    ][rng.index(8)];
                    format!("{key}={}", ODD_VALUES[rng.index(ODD_VALUES.len())])
                });
            }
            let mut text = m.join("\n");
            if rng.chance(0.2) {
                // Cut mid-line, on a character boundary.
                let mut cut = rng.index(text.len() + 1);
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
            }
            for req in &REQUESTS {
                let _ = daemon(req.cmd, &text);
            }
            runs += 1;
        }
    }
    assert!(runs >= 2_000, "only {runs} mutated inputs");
}

/// `sb` sizes the store buffer, which reserves its entries up front: a
/// `RunPoint` or `TraceCapture` asking for a trillion entries is refused
/// by name instead of aborting the daemon on the allocation.
#[test]
fn oversized_sb_is_refused() {
    for cmd in [&POINT, &TRACE] {
        let body = "workload=557.xz-like\npolicy=tus\nsb=1000000000000\n";
        let e = daemon(cmd, body).expect_err(cmd.name);
        assert_eq!(e.kind_token(), "protocol", "{}", cmd.name);
        assert!(
            e.to_string().contains("sb=1000000000000"),
            "{}: {e}",
            cmd.name
        );
    }
}
