//! `tus-harness trace` — run one traced simulation and export it.
//!
//! Runs a single workload/policy point with the structured event
//! recorder armed and replies with the Chrome-trace/Perfetto JSON. The
//! CLI writes it to `trace_<workload>_<policy>.json` and prints a
//! per-core stall-attribution breakdown table (also written as CSV).
//!
//! The JSON is the classic `{"traceEvents": [...]}` array format:
//! spans are `ph: "X"` complete events, point events are `ph: "i"`
//! instants, and each simulator component gets its own named thread
//! via `ph: "M"` `thread_name` metadata. Cycles are mapped 1:1 to
//! microseconds, so a 10 k-cycle run reads as a 10 ms timeline in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::args::{Args, Command, Flag, BUDGET, COHERENCE, KERNEL, OUT, POLICY, SB, SEED};
use crate::errors::{workload, HarnessError};
use crate::request::{Progress, Reply, Side};
use crate::runner::{default_budget, RunSpec, Scale};
use crate::table::Table;
use tus_sim::stats::names;
use tus_sim::trace::{AttrClass, Attribution, TraceRecord};
use tus_sim::PolicyKind;
use tus_workloads::by_name;

/// Parsed `trace` subcommand options.
#[derive(Debug)]
pub struct TraceOptions {
    /// The point to trace, measured from cycle zero (no warm-up). The
    /// default is `502.gcc1-like` under TUS with 32 SB entries (the
    /// constrained point where stalls show), 20 000 instructions per
    /// core, seed 42.
    pub spec: RunSpec,
    /// Ring capacity per component tracer.
    pub cap: usize,
    /// Output directory.
    pub out: PathBuf,
    /// Absolute cycle budget (`None` = the runner's default formula).
    /// Over-budget runs surface the structured [`tus::DeadlockReport`]
    /// from [`try_run_traced`].
    pub budget: Option<u64>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        let gcc = by_name("502.gcc1-like").expect("built-in workload");
        TraceOptions {
            spec: RunSpec {
                warmup: 0,
                insts: 20_000,
                ..RunSpec::new(gcc, PolicyKind::Tus, 32, Scale::Quick)
            },
            cap: tus::DEFAULT_TRACE_CAP,
            out: PathBuf::from("results"),
            budget: None,
        }
    }
}

/// `tus-harness trace` and the `TraceCapture` request.
pub static TRACE: Command = Command {
    name: "trace",
    positional: Some("workload"),
    flags: &[
        POLICY,
        SB,
        KERNEL,
        SEED,
        COHERENCE,
        Flag::value("--insts", "insts", "N"),
        Flag::value("--cap", "cap", "N").cli(),
        OUT,
        BUDGET.wire(),
    ],
    about: "runs one traced simulation, writes Chrome-trace JSON (load it in\n\
            chrome://tracing or ui.perfetto.dev) and prints the per-core\n\
            cycle-attribution breakdown (every cycle lands in exactly one\n\
            category; the sum is asserted to equal total cycles)",
};

impl TraceOptions {
    /// The options a `trace` command line or a `TraceCapture` request
    /// gives, over `base`.
    pub fn from_args(mut args: Args<'_>, base: TraceOptions) -> Result<TraceOptions, HarnessError> {
        let TraceOptions { spec, cap, out, budget } = base;
        let w = match args.str("workload") {
            Some(name) => workload(name)?,
            None => spec.workload,
        };
        let policy = args.policy()?.unwrap_or(spec.policy);
        let sb = args.sb()?.unwrap_or(spec.sb_entries);
        let kernel = args.kernel()?.unwrap_or(spec.kernel);
        let seed = args.num("seed")?.unwrap_or(spec.seed);
        let coherence = args.coherence()?.unwrap_or(spec.coherence);
        let insts = args.num("insts")?.map_or(spec.insts, |n: u64| n.max(1));
        let opt = TraceOptions {
            spec: RunSpec {
                warmup: 0,
                insts,
                seed,
                kernel,
                coherence,
                ..RunSpec::new(w, policy, sb, Scale::Quick)
            },
            cap: args.num("cap")?.map_or(cap, |n: usize| n.max(16)),
            out: args.str("out").map_or(out, PathBuf::from),
            budget: args.num("budget")?.or(budget),
        };
        args.finish()?;
        Ok(opt)
    }
}

/// The outcome of one traced run: per-track event streams plus the
/// per-core cycle attribution.
pub struct TracedRun {
    /// `(track name, records)` per simulator component.
    pub tracks: Vec<(String, Vec<TraceRecord>)>,
    /// Per-core cycle attribution.
    pub attributions: Vec<Attribution>,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// Runs one simulation with tracing armed and harvests the event
/// streams and attribution counters. Budget exhaustion or a watchdog trip
/// comes back as the simulator's structured [`tus::DeadlockReport`].
pub fn try_run_traced(opt: &TraceOptions) -> Result<TracedRun, Box<tus::DeadlockReport>> {
    let mut sys = opt.spec.system();
    sys.enable_trace(opt.cap);
    let budget = opt.budget.unwrap_or_else(|| default_budget(&opt.spec));
    let stats = sys.try_run_committed(opt.spec.insts, budget)?;
    sys.check_attribution();
    Ok(TracedRun {
        tracks: sys.take_traces(),
        attributions: sys.attributions(),
        cycles: stats.get(names::CYCLES) as u64,
    })
}

/// Minimal JSON string escaping for event argument values (the values
/// are simulator-generated, but quotes and backslashes must not break
/// the document).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The harvested tracks as Chrome-trace JSON (hand-rolled; the workspace
/// is std-only). One metadata record names each track's thread; spans
/// become `ph:"X"` complete events and zero-duration records become
/// `ph:"i"` thread-scoped instants. `ts`/`dur` are the simulated cycle
/// numbers interpreted as microseconds.
pub fn chrome_trace_json(tracks: &[(String, Vec<TraceRecord>)]) -> String {
    let mut f = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |f: &mut String| {
        if !std::mem::take(&mut first) {
            f.push_str(",\n");
        }
    };
    for (tid, (track, records)) in tracks.iter().enumerate() {
        sep(&mut f);
        let _ = write!(
            f,
            "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"{}\"}}}}",
            json_escape(track)
        );
        for r in records {
            sep(&mut f);
            let mut args = String::new();
            for (i, (k, v)) in r.ev.args().into_iter().enumerate() {
                if i > 0 {
                    args.push_str(", ");
                }
                args.push_str(&format!("\"{k}\": \"{}\"", json_escape(&v)));
            }
            let ts = r.at.raw();
            let _ = if r.dur > 0 {
                write!(
                    f,
                    "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {tid}, \"name\": \"{}\", \
                     \"ts\": {ts}, \"dur\": {}, \"args\": {{{args}}}}}",
                    r.ev.name(),
                    r.dur,
                )
            } else {
                write!(
                    f,
                    "{{\"ph\": \"i\", \"pid\": 0, \"tid\": {tid}, \"name\": \"{}\", \
                     \"ts\": {ts}, \"s\": \"t\", \"args\": {{{args}}}}}",
                    r.ev.name(),
                )
            };
        }
    }
    f.push_str("\n]}\n");
    f
}

/// Builds the per-core cycle-attribution breakdown table: one column
/// per stall category plus the total, one row per core. Every row's
/// category sum equals its total column by construction (asserted in
/// the simulator at run end).
pub fn breakdown_table(attributions: &[Attribution], cycles: u64) -> Table {
    let mut cols: Vec<String> = AttrClass::ALL.iter().map(|c| c.label().to_owned()).collect();
    cols.push("total".into());
    let mut t = Table::new(
        format!("Cycle attribution ({} cycles/core)", cycles),
        cols,
    );
    t.precision = 0;
    for (i, attr) in attributions.iter().enumerate() {
        let mut vals: Vec<f64> = AttrClass::ALL.iter().map(|&c| attr.get(c) as f64).collect();
        vals.push(attr.total() as f64);
        t.push(format!("core{i}"), vals);
    }
    t
}

/// `tus-harness trace` and the `TraceCapture` request: the reply is the
/// Chrome-trace JSON. A capture must name its workload, and its budget is
/// clamped by the daemon's ceiling. The CLI also prints the breakdown
/// table, writes it as CSV, and writes the reply to
/// `<out>/trace_<workload>_<policy>.json`.
pub fn run(
    side: Side<'_>,
    mut args: Args<'_>,
    progress: &Progress<'_>,
) -> Result<Reply, HarnessError> {
    if let Side::Daemon(_) = side {
        args.require("workload")?;
    }
    let mut opt = TraceOptions::from_args(args, TraceOptions::default())?;
    if let Side::Daemon(s) = side {
        opt.budget = s.effective_budget(opt.budget);
    }
    let spec = &opt.spec;
    let (name, policy) = (spec.workload.name, spec.policy.label());
    progress(&format!(
        "trace: {name} {policy} sb{} {} seed {} — {} insts",
        spec.sb_entries,
        spec.kernel.label(),
        spec.seed,
        spec.insts,
    ));
    let run = try_run_traced(&opt)?;
    let events: usize = run.tracks.iter().map(|(_, r)| r.len()).sum();
    let tracks = run.tracks.len();
    progress(&format!(
        "{events} events across {tracks} tracks, {} cycles",
        run.cycles
    ));
    let body = chrome_trace_json(&run.tracks);
    let Side::Cli = side else {
        return Ok(body.into());
    };
    let stem = format!("trace_{}_{policy}", name.replace(['.', '/'], "-"));
    let table = breakdown_table(&run.attributions, run.cycles);
    print!("{}", table.render());
    table.write_csv(&opt.out, &format!("{stem}_breakdown"))?;
    let file = Some(opt.out.join(format!("{stem}.json")));
    Ok(Reply { body, file })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tus_sim::KernelKind;

    fn quick_opt() -> TraceOptions {
        let base = TraceOptions::default();
        TraceOptions {
            spec: RunSpec { insts: 3_000, ..base.spec },
            cap: 4_096,
            ..base
        }
    }

    #[test]
    fn trace_flags_cover_options() {
        let args: Vec<String> = [
            "557.xz-like", "--policy", "csb", "--sb", "64", "--kernel", "lockstep", "--seed",
            "7", "--insts", "1234", "--cap", "512", "--out", "/tmp/x",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opt = TraceOptions::from_args(Args::from_argv(&TRACE, &args).unwrap(), TraceOptions::default())
            .unwrap();
        assert_eq!(opt.spec.workload.name, "557.xz-like");
        assert_eq!(opt.spec.policy, PolicyKind::Csb);
        assert_eq!(opt.spec.sb_entries, 64);
        assert_eq!(opt.spec.kernel, KernelKind::Lockstep);
        assert_eq!(opt.spec.seed, 7);
        assert_eq!(opt.spec.insts, 1234);
        assert_eq!(opt.spec.warmup, 0);
        assert_eq!(opt.cap, 512);
        assert_eq!(opt.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn traced_run_attributes_every_cycle() {
        let run = try_run_traced(&quick_opt()).expect("run");
        assert!(run.cycles > 0);
        assert!(!run.attributions.is_empty());
        for attr in &run.attributions {
            assert_eq!(attr.total(), run.cycles);
        }
        assert!(run.tracks.iter().any(|(_, r)| !r.is_empty()));
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let run = try_run_traced(&quick_opt()).expect("run");
        let body = chrome_trace_json(&run.tracks);
        assert!(body.starts_with("{\"traceEvents\": ["));
        assert!(body.trim_end().ends_with("]}"));
        // Structural sanity a JSON parser would enforce: balanced braces
        // and brackets (no string in the document contains either —
        // values are escaped simulator identifiers).
        let balance = |open: char, close: char| {
            body.chars().filter(|&c| c == open).count()
                == body.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        // Every track got its thread_name metadata record.
        for (track, _) in &run.tracks {
            assert!(body.contains(&format!("\"name\": \"{track}\"")), "missing {track}");
        }
        // At least one span and its duration survived the round trip.
        assert!(body.contains("\"ph\": \"M\""));
        assert!(body.contains("\"ph\": \"X\"") || body.contains("\"ph\": \"i\""));
    }

    #[test]
    fn breakdown_table_row_sums_match_total_column() {
        let run = try_run_traced(&quick_opt()).expect("run");
        let t = breakdown_table(&run.attributions, run.cycles);
        assert_eq!(t.columns.len(), AttrClass::COUNT + 1);
        for (_, vals) in &t.rows {
            let sum: f64 = vals[..AttrClass::COUNT].iter().sum();
            assert_eq!(sum, vals[AttrClass::COUNT]);
        }
    }
}
