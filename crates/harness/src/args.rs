//! One argument model for every `tus-harness` command.
//!
//! A command's settings are `key=value` pairs. CLI argv becomes pairs
//! through the command's flag table ([`Command`]): `--max-threads 4` ↔
//! `max_threads=4`, `--no-lazy` ↔ `lazy=0`, `--quick` ↔ `scale=quick`, and
//! the positional argument ↔ `workload=` or `name=`. A request frame's
//! header lines are pairs already. One builder per command reads them
//! through the typed getters of [`Args`], which return a [`HarnessError`]
//! instead of exiting, and ends with [`Args::finish`], which refuses every
//! key it did not read. The CLI and the daemon call the same builder, and
//! `client` checks only flag syntax against the same table before it
//! forwards the pairs as headers. [`Reach`] marks the keys only one side
//! may set.

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};

use crate::errors::HarnessError;
use crate::runner::Scale;

/// Which side may set a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// The CLI, and request headers (which `client` forwards).
    Both,
    /// Only the CLI: the key names the caller's own files, threads or
    /// process, which a request to a shared daemon may not choose.
    /// `client` keeps `out` for itself and refuses the rest.
    Cli,
    /// Only request headers: a limit the daemon enforces.
    Wire,
}

/// What a flag's argv tokens set.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// `--flag V` sets `key=V`; the string names `V` in usage text.
    Value(&'static str),
    /// `--flag` alone sets `key=` this value.
    Sets(&'static str),
}

/// One row of a command's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The CLI spelling (`--max-threads`).
    pub flag: &'static str,
    /// The pair's key (`max_threads`).
    pub key: &'static str,
    /// What the flag's tokens set.
    pub arg: Arg,
    /// Which side may set the key.
    pub reach: Reach,
}

impl Flag {
    /// `--flag V` ↔ `key=V`, settable from both sides.
    pub const fn value(flag: &'static str, key: &'static str, meta: &'static str) -> Flag {
        Flag {
            flag,
            key,
            arg: Arg::Value(meta),
            reach: Reach::Both,
        }
    }

    /// `--flag` ↔ `key=value`, settable from both sides.
    pub const fn sets(flag: &'static str, key: &'static str, value: &'static str) -> Flag {
        Flag {
            flag,
            key,
            arg: Arg::Sets(value),
            reach: Reach::Both,
        }
    }

    /// This flag, settable only from the CLI.
    pub const fn cli(mut self) -> Flag {
        self.reach = Reach::Cli;
        self
    }

    /// This flag, settable only from request headers.
    pub const fn wire(mut self) -> Flag {
        self.reach = Reach::Wire;
        self
    }
}

// Flags several commands share.
pub(crate) const SEED: Flag = Flag::value("--seed", "seed", "N");
pub(crate) const POLICY: Flag = Flag::value("--policy", "policy", "base|SSB|CSB|SPB|TUS");
pub(crate) const KERNEL: Flag = Flag::value("--kernel", "kernel", "lockstep|event");
pub(crate) const COHERENCE: Flag = Flag::value("--coherence", "coherence", "mesi|tardis");
pub(crate) const SB: Flag = Flag::value("--sb", "sb", "N");
pub(crate) const QUICK: Flag = Flag::sets("--quick", "scale", "quick");
pub(crate) const NORMAL: Flag = Flag::sets("--normal", "scale", "normal");
pub(crate) const FULL: Flag = Flag::sets("--full", "scale", "full");
pub(crate) const BUDGET: Flag = Flag::value("--budget", "budget", "CYCLES");
pub(crate) const OUT: Flag = Flag::value("--out", "out", "DIR").cli();
pub(crate) const JOBS: Flag = Flag::value("--jobs", "jobs", "N").cli();
pub(crate) const NO_SHRINK: Flag = Flag::sets("--no-shrink", "shrink", "0").cli();
pub(crate) const NO_CACHE: Flag = Flag::sets("--no-cache", "cache", "0").cli();

/// The policies a `--policy` value selects: that one, or all five.
pub(crate) fn policy_list(policy: &Option<PolicyKind>) -> &[PolicyKind] {
    const ALL: &[PolicyKind] = &PolicyKind::ALL;
    policy.as_ref().map_or(ALL, std::slice::from_ref)
}

/// A command's argument table.
#[derive(Debug)]
pub struct Command {
    /// The command's name (`client <name>`, and `tus-harness <name>` for
    /// every command but experiments).
    pub name: &'static str,
    /// The key the positional argument sets, if the command takes one.
    pub positional: Option<&'static str>,
    /// The flag table.
    pub flags: &'static [Flag],
    /// One-paragraph description for usage text.
    pub about: &'static str,
}

impl Command {
    fn reach(&self, key: &str) -> Reach {
        let flag = self.flags.iter().find(|f| f.key == key);
        flag.map_or(Reach::Both, |f| f.reach)
    }

    /// `head` followed by every flag the CLI (`cli`) or a request
    /// (`!cli`) may set, wrapped at 72 columns; continuation lines start
    /// under `head`'s second word.
    pub fn synopsis(&self, head: &str, cli: bool) -> String {
        let hidden = if cli { Reach::Wire } else { Reach::Cli };
        let word = head.trim_start();
        let pad = head.len() - word.len() + word.find(' ').unwrap_or(word.len()) + 1;
        let mut lines = vec![head.to_owned()];
        for f in self.flags.iter().filter(|f| f.reach != hidden) {
            let item = match f.arg {
                Arg::Value(meta) => format!("[{} {meta}]", f.flag),
                Arg::Sets(_) => format!("[{}]", f.flag),
            };
            let line = lines.last_mut().expect("lines start with the head");
            if line.len() + 1 + item.len() > 72 {
                lines.push(format!("{:pad$}{item}", ""));
            } else {
                *line += &format!(" {item}");
            }
        }
        lines.join("\n")
    }
}

/// The `(key, value, read)` pairs of one invocation, as argv or request
/// headers gave them; a getter marks what it reads.
#[derive(Debug)]
pub struct Args<'a> {
    cmd: &'static Command,
    /// Whether the pairs came from request headers (else from argv).
    wire: bool,
    pairs: Vec<(&'a str, &'a str, bool)>,
}

/// The largest `sb=` taken: the size of SSB's TSOB, the largest store
/// queue the simulator models.
const MAX_SB: usize = 1024;

pub(crate) fn bad(what: String) -> HarnessError {
    HarnessError::Protocol { what }
}

impl<'a> Args<'a> {
    /// Reads CLI argv through `cmd`'s flag table. Only syntax is checked
    /// here: every token is a flag of the table or its value, and there is
    /// at most one positional argument, for a command that takes one.
    pub fn from_argv(cmd: &'static Command, argv: &'a [String]) -> Result<Args<'a>, HarnessError> {
        let mut pairs = Vec::new();
        let mut tokens = argv.iter().map(String::as_str);
        let mut positional = cmd.positional;
        while let Some(token) = tokens.next() {
            let flag = cmd.flags.iter().find(|f| f.flag == token);
            let pair = match (flag, positional) {
                (Some(f), _) => match f.arg {
                    Arg::Sets(v) => (f.key, v),
                    Arg::Value(meta) => match tokens.next() {
                        Some(v) => (f.key, v),
                        None => return Err(bad(format!("{token} needs a value ({meta})"))),
                    },
                },
                (None, _) if token.starts_with('-') => {
                    return Err(bad(format!("unknown flag {token}")))
                }
                (None, Some(key)) => {
                    positional = None;
                    (key, token)
                }
                (None, None) => return Err(bad(format!("unexpected argument {token:?}"))),
            };
            pairs.push((pair.0, pair.1, false));
        }
        Ok(Args {
            cmd,
            wire: false,
            pairs,
        })
    }

    /// Reads a request body's `key=value` header lines, up to the first
    /// blank line (the rest is payload). A line without `=` is refused.
    pub fn from_headers(cmd: &'static Command, body: &'a str) -> Result<Args<'a>, HarnessError> {
        let mut pairs = Vec::new();
        for line in body.lines().take_while(|l| !l.is_empty()) {
            let Some((key, value)) = line.split_once('=') else {
                return Err(bad(format!("malformed header line {line:?}")));
            };
            pairs.push((key, value, false));
        }
        Ok(Args {
            cmd,
            wire: true,
            pairs,
        })
    }

    /// The value of `key`, if it was set from a side that may set it. The
    /// last of repeated pairs wins; all of them count as read.
    pub fn str(&mut self, key: &str) -> Option<&'a str> {
        let hidden = if self.wire { Reach::Cli } else { Reach::Wire };
        if self.cmd.reach(key) == hidden {
            return None;
        }
        let mut value = None;
        for (_, v, read) in self.pairs.iter_mut().filter(|p| p.0 == key) {
            *read = true;
            value = Some(*v);
        }
        value
    }

    /// [`Args::str`] for a key the command cannot do without.
    pub fn require(&mut self, key: &str) -> Result<&'a str, HarnessError> {
        self.str(key).ok_or_else(|| missing(key))
    }

    /// A number.
    pub fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, HarnessError> {
        let Some(v) = self.str(key) else {
            return Ok(None);
        };
        let n = v
            .parse()
            .map_err(|_| bad(format!("{key}={v:?} is not a valid number")))?;
        Ok(Some(n))
    }

    /// A count that must be at least 1.
    pub fn count(&mut self, key: &str) -> Result<Option<usize>, HarnessError> {
        match self.num(key)? {
            Some(0) => Err(bad(format!("{key}=0: must be at least 1"))),
            n => Ok(n),
        }
    }

    /// `sb=`, the store-buffer size: 0 reads as 1, and a size above
    /// `MAX_SB` is refused (the buffer reserves its entries up front).
    pub fn sb(&mut self) -> Result<Option<usize>, HarnessError> {
        match self.num::<usize>("sb")? {
            Some(n) if n > MAX_SB => Err(bad(format!("sb={n}: at most {MAX_SB} entries"))),
            n => Ok(n.map(|n| n.max(1))),
        }
    }

    /// A switch (`lazy=0`): any number, non-zero meaning on.
    pub fn switch(&mut self, key: &str) -> Result<Option<bool>, HarnessError> {
        Ok(self.num::<u32>(key)?.map(|n| n != 0))
    }

    /// A label that `parse` reads, one of `known`.
    fn label<T>(
        &mut self,
        key: &str,
        parse: fn(&str) -> Option<T>,
        known: &[&str],
    ) -> Result<Option<T>, HarnessError> {
        let Some(v) = self.str(key) else {
            return Ok(None);
        };
        let unknown = || bad(format!("unknown {key} {v:?}; known: {}", known.join(" ")));
        parse(v).map(Some).ok_or_else(unknown)
    }

    /// `policy=`.
    pub fn policy(&mut self) -> Result<Option<PolicyKind>, HarnessError> {
        let known = PolicyKind::ALL.map(PolicyKind::label);
        self.label("policy", PolicyKind::parse, &known)
    }

    /// `kernel=`.
    pub fn kernel(&mut self) -> Result<Option<KernelKind>, HarnessError> {
        let known = KernelKind::ALL.map(KernelKind::label);
        self.label("kernel", KernelKind::parse, &known)
    }

    /// `coherence=`.
    pub fn coherence(&mut self) -> Result<Option<CoherenceKind>, HarnessError> {
        let known = CoherenceKind::ALL.map(CoherenceKind::label);
        self.label("coherence", CoherenceKind::parse, &known)
    }

    /// `scale=`.
    pub fn scale(&mut self) -> Result<Option<Scale>, HarnessError> {
        self.label("scale", Scale::parse, &["quick", "normal", "full"])
    }

    /// Refuses the first pair no getter read: an unknown key, a key this
    /// side may not set, or a setting the command does not take.
    pub fn finish(self) -> Result<(), HarnessError> {
        match self.pairs.iter().find(|p| !p.2) {
            Some((key, ..)) => Err(bad(format!("{} takes no {key:?}", self.cmd.name))),
            None => Ok(()),
        }
    }

    /// The header body `client` forwards for argv pairs, in argv order:
    /// every pair a request may carry. A CLI-only pair is refused, unless
    /// a getter has read it already (the client's own `--out`).
    pub fn into_headers(self) -> Result<String, HarnessError> {
        let mut body = String::new();
        for &(key, value, read) in &self.pairs {
            match self.cmd.reach(key) {
                Reach::Cli if !read => return Err(bad(format!("the daemon takes no {key:?}"))),
                Reach::Cli => {}
                Reach::Both | Reach::Wire => body += &format!("{key}={value}\n"),
            }
        }
        Ok(body)
    }
}

/// The error for a required `key` that is absent.
pub fn missing(key: &str) -> HarnessError {
    bad(format!("missing required {key:?}"))
}

/// A CLI command's usage text: its synopsis under `head`, and what it does.
pub fn cli_usage(cmd: &Command, head: &str) -> String {
    let synopsis = cmd.synopsis(head, true).replace('\n', "\n       ");
    format!("usage: {synopsis}\n{}", cmd.about)
}

/// Prints a CLI parse failure under `prefix`, then `usage`; returns the
/// usage exit code, 2.
pub fn usage_error(prefix: &str, e: &HarnessError, usage: &str) -> i32 {
    match e {
        HarnessError::Protocol { what } => eprintln!("{prefix}: {what}"),
        e => eprintln!("{e}"),
    }
    eprintln!("{usage}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    static DEMO: Command = Command {
        name: "demo",
        positional: Some("workload"),
        flags: &[
            SEED,
            QUICK,
            FULL,
            OUT,
            BUDGET.wire(),
            Flag::sets("--no-lazy", "lazy", "0"),
        ],
        about: "a demo",
    };

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn argv_and_headers_give_the_same_pairs() {
        let v = argv(&["--seed", "7", "w", "--quick", "--full", "--no-lazy"]);
        let body = "seed=7\nworkload=w\nscale=quick\nscale=full\nlazy=0\n\nfree = text";
        for mut a in [
            Args::from_argv(&DEMO, &v).unwrap(),
            Args::from_headers(&DEMO, body).unwrap(),
        ] {
            assert_eq!(a.num::<u64>("seed").unwrap(), Some(7));
            assert_eq!(a.str("workload"), Some("w"));
            assert_eq!(
                a.scale().unwrap(),
                Some(Scale::Full),
                "the last repeat wins"
            );
            assert_eq!(a.switch("lazy").unwrap(), Some(false));
            a.finish().unwrap();
        }
    }

    #[test]
    fn syntax_errors_name_the_token() {
        let err = |tokens: &[&str]| {
            Args::from_argv(&DEMO, &argv(tokens))
                .unwrap_err()
                .to_string()
        };
        assert!(err(&["--seed"]).contains("--seed needs a value"));
        assert!(err(&["--bogus"]).contains("unknown flag --bogus"));
        assert!(err(&["a", "b"]).contains("unexpected argument \"b\""));
        let e = Args::from_headers(&DEMO, "seed=1\nno equals sign\n").unwrap_err();
        assert!(e.to_string().contains("malformed header line"));
    }

    #[test]
    fn typed_getters_and_finish_refuse_bad_pairs() {
        let mut a = Args::from_headers(&DEMO, "seed=x\nscale=warp\nkernal=lockstep\n").unwrap();
        let e = a.num::<u64>("seed").unwrap_err().to_string();
        assert!(e.contains("seed=\"x\" is not a valid number"), "{e}");
        let e = a.scale().unwrap_err().to_string();
        assert!(
            e.ends_with("unknown scale \"warp\"; known: quick normal full"),
            "{e}"
        );
        let e = a.finish().unwrap_err();
        assert_eq!(e.kind_token(), "protocol");
        assert!(e.to_string().contains("demo takes no \"kernal\""), "{e}");
        let mut a = Args::from_headers(&DEMO, "").unwrap();
        assert!(a
            .require("workload")
            .unwrap_err()
            .to_string()
            .contains("\"workload\""));
    }

    /// `out` reaches only the CLI and `budget` only the daemon: each side
    /// leaves the other's key unread, so `finish` refuses it, and the
    /// client keeps `out` for itself.
    #[test]
    fn reach_splits_the_sides() {
        let mut a = Args::from_headers(&DEMO, "out=/etc\nbudget=5\n").unwrap();
        assert_eq!(a.str("out"), None);
        assert_eq!(a.num::<u64>("budget").unwrap(), Some(5));
        assert!(a.finish().unwrap_err().to_string().contains("\"out\""));

        let v = argv(&["--out", "d", "--budget", "5"]);
        let mut a = Args::from_argv(&DEMO, &v).unwrap();
        assert_eq!(a.num::<u64>("budget").unwrap(), None);
        assert_eq!(a.str("out"), Some("d"));
        assert!(a.finish().unwrap_err().to_string().contains("\"budget\""));

        let a = Args::from_argv(&DEMO, &v).unwrap();
        assert!(a
            .into_headers()
            .unwrap_err()
            .to_string()
            .contains("takes no \"out\""));
        let mut a = Args::from_argv(&DEMO, &v).unwrap();
        assert_eq!(a.str("out"), Some("d"));
        assert_eq!(a.into_headers().unwrap(), "budget=5\n");
    }

    #[test]
    fn synopsis_lists_each_sides_flags() {
        let cli = DEMO.synopsis("tus-harness demo [WORKLOAD]", true);
        assert!(
            cli.contains("[--out DIR]") && !cli.contains("--budget"),
            "{cli}"
        );
        let wire = DEMO.synopsis("demo WORKLOAD", false);
        assert!(
            wire.contains("[--budget CYCLES]") && !wire.contains("--out"),
            "{wire}"
        );
        let long = FUZZ_LIKE.synopsis("tus-harness long", true);
        assert!(
            long.lines().count() > 1 && long.lines().all(|l| l.len() <= 72),
            "{long}"
        );
        assert!(
            long.lines().skip(1).all(|l| l.starts_with("            [")),
            "{long}"
        );
    }

    static FUZZ_LIKE: Command = Command {
        name: "long",
        positional: None,
        flags: &[
            SEED, POLICY, KERNEL, COHERENCE, SB, QUICK, NORMAL, FULL, OUT, JOBS, NO_CACHE,
        ],
        about: "",
    };
}
