//! One function per table/figure of the paper's evaluation.
//!
//! Every experiment is *declarative*: it first enumerates the full list
//! of [`RunSpec`]s it needs, hands the batch to the [`Executor`] (which
//! deduplicates, memoizes and parallelizes), and only then formats
//! tables from the results. Baseline runs shared between figures are
//! therefore simulated once per `all` invocation, regardless of figure
//! order, and `--jobs N` parallelizes every batch without changing a
//! single output byte.
//!
//! Every function renders the regenerated table(s) into the reply and
//! writes CSVs under the output directory. The paper's absolute numbers
//! came from gem5 + SPEC/PARSEC reference runs; here the *shape* is the
//! target (see `EXPERIMENTS.md` for the paper-vs-measured record).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tus_energy::{sb_area, sb_search_energy, woq_area, woq_search_energy};
use tus_sim::stats::geomean;
use tus_sim::{CoherenceKind, KernelKind, PolicyKind, SimConfig};
use tus_workloads::{all_single, parsec16, sb_bound_single, Workload};

use crate::args::{
    Args, Command, Flag, COHERENCE, FULL, JOBS, KERNEL, NORMAL, NO_CACHE, OUT, QUICK, SEED,
};
use crate::errors::HarnessError;
use crate::executor::Executor;
use crate::request::{Progress, Reply, Side};
use crate::runner::{RunResult, RunSpec, Scale, Tweak};
use crate::table::Table;

/// Shared experiment options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run-length scaling.
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out: std::path::PathBuf,
    /// Restrict parallel suites to this many workloads (they are 16-core
    /// and expensive); `None` = all.
    pub parallel_cap: Option<usize>,
    /// Simulation kernel for every run (`--kernel`). Either kernel yields
    /// byte-identical CSVs; lockstep exists for equivalence checking.
    pub kernel: KernelKind,
    /// Coherence backend for every run (`--coherence`). Unlike the
    /// kernel, this *changes* measured results — Tardis trades
    /// invalidation traffic for lease expiries — so CSVs regenerated
    /// under `tardis` are expected to differ. The `coherence` experiment
    /// sweeps both backends explicitly regardless of this option.
    pub coherence: CoherenceKind,
    /// The CLI executor's worker threads (`--jobs`; CLI only).
    pub jobs: usize,
    /// Whether the CLI executor uses the on-disk run cache (CLI only).
    pub cache: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Normal,
            seed: 42,
            out: "results".into(),
            parallel_cap: None,
            kernel: KernelKind::default(),
            coherence: CoherenceKind::default(),
            jobs: Executor::default_jobs(),
            cache: true,
        }
    }
}

/// An experiment command line (`tus-harness <experiment>`) and the
/// `Experiment` request (`client experiment NAME`).
pub static EXPERIMENT: Command = Command {
    name: "experiment",
    positional: Some("name"),
    flags: &[
        QUICK,
        NORMAL,
        FULL,
        SEED,
        OUT,
        Flag::value("--parallel-cap", "parallel_cap", "N"),
        JOBS,
        NO_CACHE,
        KERNEL,
        COHERENCE,
    ],
    about: "regenerates one table or figure of the paper's evaluation (`all`: every one),\n\
            prints its tables and writes its CSVs under --out",
};

impl Options {
    /// The experiment name and options an experiment command line or an
    /// `Experiment` request gives, over `base`.
    pub fn from_args<'a>(mut args: Args<'a>, base: Options) -> Result<(&'a str, Options), HarnessError> {
        let name = args.require("name")?;
        let mut opt = base;
        opt.scale = args.scale()?.unwrap_or(opt.scale);
        opt.seed = args.num("seed")?.unwrap_or(opt.seed);
        opt.out = args.str("out").map_or(opt.out, PathBuf::from);
        opt.parallel_cap = args.num("parallel_cap")?.or(opt.parallel_cap);
        opt.kernel = args.kernel()?.unwrap_or(opt.kernel);
        opt.coherence = args.coherence()?.unwrap_or(opt.coherence);
        opt.jobs = args.count("jobs")?.unwrap_or(opt.jobs);
        opt.cache = args.switch("cache")?.unwrap_or(opt.cache);
        args.finish()?;
        Ok((name, opt))
    }
}

/// An experiment: runs its batch on the executor, renders its tables into
/// the string and writes their CSVs.
pub type Experiment = fn(&Executor, &Options, &mut String);

/// Every experiment, in figure order.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("intext", intext),
    ("ablation", ablation),
    ("coherence", coherence),
];

/// The experiments `name` selects: the one so named, or `all` of them.
pub fn select(name: &str) -> Result<&'static [(&'static str, Experiment)], HarnessError> {
    if name == "all" {
        return Ok(EXPERIMENTS);
    }
    match EXPERIMENTS.iter().position(|&(n, _)| n == name) {
        Some(i) => Ok(&EXPERIMENTS[i..=i]),
        None => Err(HarnessError::UnknownExperiment {
            name: name.to_owned(),
        }),
    }
}

/// `tus-harness <experiment>` and the `Experiment` request. The CLI runs
/// on an executor of its own (`--jobs`, and its run cache under `--out`
/// unless `--no-cache`); the daemon runs on its shared one, one experiment
/// request at a time, since each writes CSVs into its `out`. Each
/// experiment's cost is a progress line; the reply is the counter headers
/// and the rendered tables.
pub fn run(side: Side<'_>, args: Args<'_>, progress: &Progress<'_>) -> Result<Reply, HarnessError> {
    let base = match side {
        Side::Cli => Options::default(),
        Side::Daemon(s) => Options {
            out: s.opt.out.clone(),
            jobs: s.opt.jobs,
            ..Options::default()
        },
    };
    let (name, opt) = Options::from_args(args, base)?;
    let selected = select(name)?;
    let own;
    let (ex, _gate) = match side {
        Side::Cli => {
            own = Executor::new(opt.jobs, opt.cache.then(|| opt.out.join(".runcache")));
            (&own, None)
        }
        Side::Daemon(s) => (&s.ex, Some(s.experiment_gate())),
    };
    progress(&format!(
        "running experiment {name} at {} scale",
        opt.scale.label()
    ));
    let (before, started) = (ex.counters(), Instant::now());
    let mut tables = String::new();
    for &(name, f) in selected {
        let (at, clock) = (ex.counters(), Instant::now());
        f(ex, &opt, &mut tables);
        let c = ex.counters().since(at);
        let secs = clock.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            c.executed as f64 / secs
        } else {
            0.0
        };
        progress(&format!(
            "{name}: {secs:.1}s, {} sims ({rate:.1} sims/s), {} memo hits, {} cache hits",
            c.executed, c.memo_hits, c.disk_hits,
        ));
    }
    let c = ex.counters().since(before);
    let body = format!(
        "name={name}\nexecuted={}\nmemo_hits={}\ndisk_hits={}\nseconds={:.6}\ncsv_dir={}\n\n{tables}",
        c.executed,
        c.memo_hits,
        c.disk_hits,
        started.elapsed().as_secs_f64(),
        opt.out.display(),
    );
    Ok(body.into())
}

fn spec(w: &Workload, policy: PolicyKind, sb: usize, opt: &Options) -> RunSpec {
    RunSpec {
        seed: opt.seed,
        kernel: opt.kernel,
        coherence: opt.coherence,
        ..RunSpec::new(w.clone(), policy, sb, opt.scale)
    }
}

fn parsec_suite(opt: &Options) -> Vec<Workload> {
    let mut v = parsec16();
    if let Some(cap) = opt.parallel_cap {
        v.truncate(cap);
    }
    v
}

/// Renders `t` into `tables` and writes it to `<out>/<file>.csv`.
fn emit(t: &Table, opt: &Options, file: &str, tables: &mut String) {
    let _ = writeln!(tables, "{}", t.render());
    if let Err(e) = t.write_csv(Path::new(&opt.out), file) {
        let _ = writeln!(tables, "warning: could not write {file}.csv: {e}");
    }
}

/// Enumerates the cross product of workloads × policies at one SB size.
fn sweep_specs(
    workloads: &[Workload],
    policies: &[PolicyKind],
    sb: usize,
    opt: &Options,
) -> Vec<RunSpec> {
    workloads
        .iter()
        .flat_map(|w| policies.iter().map(|&p| spec(w, p, sb, opt)))
        .collect()
}

/// Table I: configuration parameters.
pub fn table1(_ex: &Executor, _opt: &Options, tables: &mut String) {
    let _ = writeln!(tables, "{}", SimConfig::default().render_table1());
}

/// Figure 8: speedup (geomean over each suite) vs SB size for every
/// policy, normalized to the 114-entry-SB baseline of that suite.
pub fn fig08(ex: &Executor, opt: &Options, tables: &mut String) {
    let sizes = [32usize, 56, 64, 114];
    for (suite_name, workloads) in [
        ("spec-tf-sb-bound", sb_bound_single()),
        ("parsec", parsec_suite(opt)),
    ] {
        // Declare the whole sweep up front: the per-suite baseline plus
        // every (size × policy × workload) point.
        let mut specs: Vec<RunSpec> = workloads
            .iter()
            .map(|w| spec(w, PolicyKind::Baseline, 114, opt))
            .collect();
        for sb in sizes {
            specs.extend(sweep_specs(&workloads, &PolicyKind::ALL, sb, opt));
        }
        let rs = ex.run_set(&specs);

        let mut t = Table::new(
            format!("Fig. 8 ({suite_name}): geomean speedup vs 114-entry-SB baseline"),
            PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
        );
        let refs: Vec<f64> = workloads
            .iter()
            .map(|w| rs.get(&spec(w, PolicyKind::Baseline, 114, opt)).ipc)
            .collect();
        for sb in sizes {
            let mut row = Vec::new();
            for policy in PolicyKind::ALL {
                let speedups = workloads.iter().zip(&refs).map(|(w, &r)| {
                    let ipc = if policy == PolicyKind::Baseline && sb == 114 {
                        r
                    } else {
                        rs.get(&spec(w, policy, sb, opt)).ipc
                    };
                    ipc / r
                });
                row.push(geomean(speedups));
            }
            t.push(format!("SB={sb}"), row);
        }
        emit(&t, opt, &format!("fig08_{suite_name}"), tables);
    }
}

/// Figure 9: SB-induced dispatch stalls (% of cycles) per SB-bound
/// workload and policy, 114-entry SB. Lower is better.
pub fn fig09(ex: &Executor, opt: &Options, tables: &mut String) {
    let workloads = sb_bound_single();
    let rs = ex.run_set(&sweep_specs(&workloads, &PolicyKind::ALL, 114, opt));

    let mut t = Table::new(
        "Fig. 9: SB-induced stalls (% of cycles), 114-entry SB",
        PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
    );
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for w in &workloads {
        let vals: Vec<f64> = PolicyKind::ALL
            .iter()
            .map(|&p| rs.get(&spec(w, p, 114, opt)).sb_stall_frac * 100.0)
            .collect();
        rows.push((w.name.to_owned(), vals));
    }
    // The paper sorts by baseline stalls, descending.
    rows.sort_by(|a, b| b.1[0].total_cmp(&a.1[0]));
    let means: Vec<f64> = (0..PolicyKind::ALL.len())
        .map(|c| rows.iter().map(|(_, v)| v[c]).sum::<f64>() / rows.len() as f64)
        .collect();
    for (name, vals) in rows {
        t.push(name, vals);
    }
    t.push("mean", means);
    emit(&t, opt, "fig09", tables);
}

/// Figure 10: speedup S-curve over all applications (left) and the
/// per-benchmark SB-bound breakdown (right), normalized to the
/// 114-entry-SB baseline.
pub fn fig10(ex: &Executor, opt: &Options, tables: &mut String) {
    speedup_figure(ex, opt, 114, "Fig. 10", "fig10", tables);
}

/// Figure 11: EDP normalized to the 114-entry-SB baseline, single-thread
/// SB-bound workloads. Lower is better.
pub fn fig11(ex: &Executor, opt: &Options, tables: &mut String) {
    edp_figure(ex, opt, 114, "Fig. 11", "fig11", sb_bound_single(), tables);
}

/// Figure 12: PARSEC (16 cores) speedup and EDP vs the 114-entry-SB
/// baseline.
pub fn fig12(ex: &Executor, opt: &Options, tables: &mut String) {
    parallel_figure(ex, opt, 114, "Fig. 12", "fig12", tables);
}

/// Figure 13: S-curve + breakdown vs the **32-entry-SB** baseline.
pub fn fig13(ex: &Executor, opt: &Options, tables: &mut String) {
    speedup_figure(ex, opt, 32, "Fig. 13", "fig13", tables);
}

/// Figure 14: PARSEC speedup and EDP vs the 32-entry-SB baseline.
pub fn fig14(ex: &Executor, opt: &Options, tables: &mut String) {
    parallel_figure(ex, opt, 32, "Fig. 14", "fig14", tables);
}

/// Figure 15: EDP vs the 32-entry-SB baseline, single-thread SB-bound.
pub fn fig15(ex: &Executor, opt: &Options, tables: &mut String) {
    edp_figure(ex, opt, 32, "Fig. 15", "fig15", sb_bound_single(), tables);
}

fn speedup_figure(
    ex: &Executor,
    opt: &Options,
    sb: usize,
    title: &str,
    file: &str,
    tables: &mut String,
) {
    let bound = sb_bound_single();
    let everything = all_single();
    // One batch covers both panels: the SB-bound suite under every
    // policy, plus baseline/TUS for the S-curve over all applications.
    let mut specs = sweep_specs(&bound, &PolicyKind::ALL, sb, opt);
    specs.extend(sweep_specs(
        &everything,
        &[PolicyKind::Baseline, PolicyKind::Tus],
        sb,
        opt,
    ));
    let rs = ex.run_set(&specs);

    // Right panel: per-benchmark speedups for SB-bound workloads.
    let mut right = Table::new(
        format!("{title} (right): speedup vs {sb}-entry-SB baseline, SB-bound"),
        PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
    );
    for w in &bound {
        let base = rs.get(&spec(w, PolicyKind::Baseline, sb, opt)).ipc;
        let vals: Vec<f64> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                if p == PolicyKind::Baseline {
                    1.0
                } else {
                    rs.get(&spec(w, p, sb, opt)).ipc / base
                }
            })
            .collect();
        right.push(w.name.to_owned(), vals);
    }
    let mean = right.geomean_row();
    right.push("geomean", mean);
    emit(&right, opt, &format!("{file}_breakdown"), tables);

    // Left panel: the S-curve of TUS speedups over *all* applications.
    let mut curve: Vec<(String, f64)> = everything
        .iter()
        .map(|w| {
            let base = rs.get(&spec(w, PolicyKind::Baseline, sb, opt)).ipc;
            let tus = rs.get(&spec(w, PolicyKind::Tus, sb, opt)).ipc;
            (w.name.to_owned(), tus / base)
        })
        .collect();
    curve.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut left = Table::new(
        format!("{title} (left): TUS speedup S-curve over all applications vs {sb}-entry SB"),
        vec!["speedup".to_owned()],
    );
    for (name, s) in &curve {
        left.push(name.clone(), vec![*s]);
    }
    left.push("geomean(All)".to_owned(), vec![geomean(curve.iter().map(|c| c.1))]);
    emit(&left, opt, &format!("{file}_scurve"), tables);
}

fn edp_figure(
    ex: &Executor,
    opt: &Options,
    sb: usize,
    title: &str,
    file: &str,
    workloads: Vec<Workload>,
    tables: &mut String,
) {
    let rs = ex.run_set(&sweep_specs(&workloads, &PolicyKind::ALL, sb, opt));

    let mut t = Table::new(
        format!("{title}: EDP normalized to {sb}-entry-SB baseline (lower is better)"),
        PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
    );
    for w in &workloads {
        let base = rs.get(&spec(w, PolicyKind::Baseline, sb, opt)).edp;
        let vals: Vec<f64> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                if p == PolicyKind::Baseline {
                    1.0
                } else {
                    rs.get(&spec(w, p, sb, opt)).edp / base
                }
            })
            .collect();
        t.push(w.name.to_owned(), vals);
    }
    let mean = t.geomean_row();
    t.push("geomean", mean);
    emit(&t, opt, file, tables);
}

fn parallel_figure(
    ex: &Executor,
    opt: &Options,
    sb: usize,
    title: &str,
    file: &str,
    tables: &mut String,
) {
    let workloads = parsec_suite(opt);
    let rs = ex.run_set(&sweep_specs(&workloads, &PolicyKind::ALL, sb, opt));

    let mut speed = Table::new(
        format!("{title} (left): PARSEC speedup vs {sb}-entry-SB baseline, 16 cores"),
        PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
    );
    let mut edp = Table::new(
        format!("{title} (right): PARSEC EDP vs {sb}-entry-SB baseline (lower is better)"),
        PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
    );
    for w in &workloads {
        let base = rs.get(&spec(w, PolicyKind::Baseline, sb, opt));
        let mut srow = Vec::new();
        let mut erow = Vec::new();
        for policy in PolicyKind::ALL {
            if policy == PolicyKind::Baseline {
                srow.push(1.0);
                erow.push(1.0);
            } else {
                let r = rs.get(&spec(w, policy, sb, opt));
                srow.push(r.ipc / base.ipc);
                erow.push(r.edp / base.edp);
            }
        }
        speed.push(w.name.to_owned(), srow);
        edp.push(w.name.to_owned(), erow);
    }
    let m = speed.geomean_row();
    speed.push("geomean", m);
    let m = edp.geomean_row();
    edp.push("geomean", m);
    emit(&speed, opt, &format!("{file}_speedup"), tables);
    emit(&edp, opt, &format!("{file}_edp"), tables);
}

/// In-text claims: SB/WOQ area & energy ratios, L1D-write reduction,
/// stall totals, hit rates and memory-boundness.
pub fn intext(ex: &Executor, opt: &Options, tables: &mut String) {
    // Structure ratios (analytic model, Section IV / V of the paper).
    let mut t = Table::new(
        "In-text: structure area and search-energy model",
        vec!["area_um2".into(), "energy_pJ".into()],
    );
    for sb in [32usize, 64, 114] {
        t.push(format!("SB-{sb}"), vec![sb_area(sb), sb_search_energy(sb)]);
    }
    t.push("WOQ-64", vec![woq_area(64), woq_search_energy(64)]);
    t.push(
        "ratio SB114/SB32",
        vec![sb_area(114) / sb_area(32), sb_search_energy(114) / sb_search_energy(32)],
    );
    t.push(
        "ratio SB114/WOQ",
        vec![sb_area(114) / woq_area(64), sb_search_energy(114) / woq_search_energy(64)],
    );
    t.push(
        "ratio SB32/WOQ",
        vec![sb_area(32) / woq_area(64), sb_search_energy(32) / woq_search_energy(64)],
    );
    emit(&t, opt, "intext_structures", tables);

    // L1D write reduction, stalls, hit rates, boundness.
    let workloads = sb_bound_single();
    let rs = ex.run_set(&sweep_specs(
        &workloads,
        &[PolicyKind::Baseline, PolicyKind::Tus],
        114,
        opt,
    ));

    let mut t = Table::new(
        "In-text: per-workload TUS vs baseline (114-entry SB)",
        vec![
            "write_reduction_x".into(),
            "stall_base_pct".into(),
            "stall_tus_pct".into(),
            "l1d_hit_base_pct".into(),
            "l1d_hit_tus_pct".into(),
        ],
    );
    for w in &workloads {
        let base = rs.get(&spec(w, PolicyKind::Baseline, 114, opt));
        let tus = rs.get(&spec(w, PolicyKind::Tus, 114, opt));
        use tus_sim::stats::names;
        let writes = |r: &RunResult| r.stats.get(&names::mem_core(0, names::L1D_WRITES)).max(1.0);
        let hits = |r: &RunResult| {
            let h = r.stats.get(&names::mem_core(0, names::L1D_LOAD_HITS));
            let m = r.stats.get(&names::mem_core(0, names::L1D_LOAD_MISSES));
            100.0 * h / (h + m).max(1.0)
        };
        t.push(
            w.name.to_owned(),
            vec![
                writes(base) / writes(tus),
                base.sb_stall_frac * 100.0,
                tus.sb_stall_frac * 100.0,
                hits(base),
                hits(tus),
            ],
        );
    }
    let mean = t.geomean_row();
    t.push("geomean", mean);
    emit(&t, opt, "intext_tus_vs_base", tables);
}

/// The named design points of the ablation (also the memo/cache keys of
/// the tweaked runs).
const ABLATION_TWEAKS: &[(&str, Tweak)] = &[
    ("WOQ=16", Tweak { name: "woq16", apply: |b| { b.woq_entries(16); } }),
    ("WOQ=32", Tweak { name: "woq32", apply: |b| { b.woq_entries(32); } }),
    ("WOQ=128", Tweak { name: "woq128", apply: |b| { b.woq_entries(128); } }),
    ("WCB=1", Tweak { name: "wcb1", apply: |b| { b.wcbs(1); } }),
    ("WCB=4", Tweak { name: "wcb4", apply: |b| { b.wcbs(4); } }),
    ("group<=4", Tweak { name: "group4", apply: |b| { b.max_atomic_group(4); } }),
    ("group<=8", Tweak { name: "group8", apply: |b| { b.max_atomic_group(8); } }),
    ("lex=8", Tweak { name: "lex8", apply: |b| { b.lex_bits(8); } }),
    ("no prefetch-at-commit", Tweak { name: "no-pf-commit", apply: |b| { b.prefetch_at_commit(false); } }),
    ("no stream prefetcher", Tweak { name: "no-stream-pf", apply: |b| { b.stream_prefetcher(false); } }),
    ("L1D unauth forwarding on", Tweak { name: "unauth-fwd", apply: |b| { b.l1d_unauth_forwarding(true); } }),
];

/// Design-space ablations of the TUS parameters called out in DESIGN.md:
/// WOQ size, WCB count, atomic-group cap, lex bits, prefetch-at-commit.
pub fn ablation(ex: &Executor, opt: &Options, tables: &mut String) {
    let w = tus_workloads::by_name("502.gcc4-like").expect("workload exists");
    let mut specs = vec![
        spec(&w, PolicyKind::Baseline, 114, opt),
        spec(&w, PolicyKind::Tus, 114, opt),
    ];
    for (_, tweak) in ABLATION_TWEAKS {
        specs.push(RunSpec {
            tweak: Some(*tweak),
            ..spec(&w, PolicyKind::Tus, 114, opt)
        });
    }
    let rs = ex.run_set(&specs);

    let base = rs.get(&specs[0]).ipc;
    let mut t = Table::new(
        "Ablation (502.gcc4-like): TUS speedup vs baseline by design point",
        vec!["speedup".into()],
    );
    t.push(
        "default (WOQ=64, WCB=2, group<=16, lex=16, pf@commit)",
        vec![rs.get(&specs[1]).ipc / base],
    );
    for ((label, _), spec) in ABLATION_TWEAKS.iter().zip(&specs[2..]) {
        t.push(*label, vec![rs.get(spec).ipc / base]);
    }
    emit(&t, opt, "ablation", tables);
}

/// Coherence-backend comparison: TUS vs CSB vs SPB speedup over the
/// same-backend baseline, under both the MESI directory and the Tardis
/// timestamp backend (32-entry SB, the size where drain pressure and
/// thus coherence behaviour matters most). Each backend is normalized
/// to *its own* baseline so the columns isolate the policy × backend
/// interaction — in particular how the TUS unauthorized-line machinery
/// fares when remote conflicts arrive as lease expiries rather than
/// invalidations.
pub fn coherence(ex: &Executor, opt: &Options, tables: &mut String) {
    let workloads = sb_bound_single();
    let policies = [PolicyKind::Tus, PolicyKind::Csb, PolicyKind::Spb];
    let cospec = |w: &Workload, p: PolicyKind, co: CoherenceKind| RunSpec {
        coherence: co,
        ..spec(w, p, 32, opt)
    };
    let mut specs = Vec::new();
    for co in CoherenceKind::ALL {
        for w in &workloads {
            specs.push(cospec(w, PolicyKind::Baseline, co));
            specs.extend(policies.iter().map(|&p| cospec(w, p, co)));
        }
    }
    let rs = ex.run_set(&specs);

    let mut t = Table::new(
        "Coherence backends: TUS/CSB/SPB speedup vs same-backend baseline (32-entry SB)",
        CoherenceKind::ALL
            .iter()
            .flat_map(|co| {
                policies
                    .iter()
                    .map(move |p| format!("{}-{}", p.label(), co.label()))
            })
            .collect(),
    );
    for w in &workloads {
        let mut row = Vec::new();
        for co in CoherenceKind::ALL {
            let base = rs.get(&cospec(w, PolicyKind::Baseline, co)).ipc;
            for &p in &policies {
                row.push(rs.get(&cospec(w, p, co)).ipc / base);
            }
        }
        t.push(w.name.to_owned(), row);
    }
    let mean = t.geomean_row();
    t.push("geomean", mean);
    emit(&t, opt, "coherence_backends", tables);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one name lookup the CLI and the daemon share: `all` selects
    /// every experiment in figure order, a name its one experiment.
    #[test]
    fn names_select_experiments() {
        let names = |sel: &[(&'static str, Experiment)]| -> Vec<&'static str> {
            sel.iter().map(|(n, _)| *n).collect()
        };
        assert_eq!(
            names(select("all").unwrap()),
            names(EXPERIMENTS),
            "all runs every experiment"
        );
        assert_eq!(EXPERIMENTS.len(), 12);
        assert_eq!(names(select("fig10").unwrap()), ["fig10"]);
        assert_eq!(names(select("coherence").unwrap()), ["coherence"]);
        for unknown in ["fig99", "bench-hotpath", "ALL", ""] {
            let e = select(unknown).unwrap_err();
            assert_eq!(e.kind_token(), "unknown_experiment", "{unknown:?}");
        }
    }
}
