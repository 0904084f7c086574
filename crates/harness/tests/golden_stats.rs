//! Golden-stats snapshot tests.
//!
//! Re-runs reduced-scale versions of the Fig. 10 / Fig. 13 breakdown
//! points (SB-bound workloads × all five policies, 114- and 32-entry
//! SBs), plus every policy's own counters at one single-core and one
//! 16-core point, and string-compares the resulting CSVs against
//! committed golden files under `results/golden/`. Simulations are
//! seeded and deterministic, so any byte of drift means the simulator's
//! observable behaviour changed — which must be deliberate and
//! accompanied by a [`tus_harness::runner::CACHE_FORMAT_VERSION`] bump.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p tus-harness --test golden_stats
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use tus_harness::{run, RunSpec, Scale, Table};
use tus_sim::{CoherenceKind, PolicyKind};
use tus_workloads::{by_name, sb_bound_single};

/// Reduced scale: enough instructions for every policy to reach steady
/// state, small enough for the suite to stay CI-friendly.
const INSTS: u64 = 5_000;
const WARMUP: u64 = 1_000;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

fn spec(
    w: &tus_workloads::Workload,
    policy: PolicyKind,
    sb: usize,
    coherence: CoherenceKind,
) -> RunSpec {
    RunSpec {
        warmup: WARMUP,
        insts: INSTS,
        coherence,
        ..RunSpec::new(w.clone(), policy, sb, Scale::Quick)
    }
}

/// Builds the fig10/fig13-breakdown-shaped table at one SB size under
/// one coherence backend: rows are SB-bound workloads (first three of
/// the suite), columns are per-policy speedups vs the same-SB baseline,
/// plus a geomean row, as CSV.
fn breakdown_table(sb: usize, coherence: CoherenceKind) -> String {
    let workloads: Vec<_> = sb_bound_single().into_iter().take(3).collect();
    let mut t = Table::new(
        format!(
            "golden: speedup vs {sb}-entry-SB baseline ({} backend, reduced scale)",
            coherence.label()
        ),
        PolicyKind::ALL.iter().map(|p| p.label().to_owned()).collect(),
    );
    for w in &workloads {
        let base = run(&spec(w, PolicyKind::Baseline, sb, coherence)).ipc;
        let vals: Vec<f64> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                if p == PolicyKind::Baseline {
                    1.0
                } else {
                    run(&spec(w, p, sb, coherence)).ipc / base
                }
            })
            .collect();
        t.push(w.name.to_owned(), vals);
    }
    let mean = t.geomean_row();
    t.push("geomean", mean);
    t.to_csv()
}

/// Compares (or, under `UPDATE_GOLDEN=1`, rewrites) one golden CSV.
fn check_golden(name: &str, got: &str) {
    let dir = golden_dir();
    let path = dir.join(format!("{name}.csv"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create results/golden");
        std::fs::write(&path, got).expect("write golden CSV");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -p tus-harness --test golden_stats",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "golden stats drifted for {name}: the simulator's observable \
         behaviour changed. If intentional, bump CACHE_FORMAT_VERSION \
         and re-bless with UPDATE_GOLDEN=1; otherwise this is a \
         regression.",
    );
}

#[test]
fn golden_fig10_breakdown_sb114() {
    check_golden("fig10_breakdown_sb114", &breakdown_table(114, CoherenceKind::Mesi));
}

#[test]
fn golden_fig13_breakdown_sb32() {
    check_golden("fig13_breakdown_sb32", &breakdown_table(32, CoherenceKind::Mesi));
}

/// The Tardis backend gets its own pinned snapshots: timestamp-lease
/// coherence changes *timings* (and therefore IPC ratios), so its
/// numbers are a separate observable surface that must not drift
/// silently either.
#[test]
fn golden_fig10_breakdown_sb114_tardis() {
    check_golden("fig10_breakdown_sb114_tardis", &breakdown_table(114, CoherenceKind::Tardis));
}

#[test]
fn golden_fig13_breakdown_sb32_tardis() {
    check_golden("fig13_breakdown_sb32_tardis", &breakdown_table(32, CoherenceKind::Tardis));
}

/// Every drain policy's own counters, which the IPC-ratio goldens above
/// only reach through speedups: one line per (backend, policy, point,
/// stat), each stat a `policy.<name>` counter summed over cores. A
/// dropped, renamed or added key fails the test as a changed value
/// does. The points are the first SB-bound single-core workload at a
/// 32-entry SB and `dedup-like` on 16 cores at a 114-entry SB, run
/// without warm-up so peaks and totals cover the whole run.
#[test]
fn golden_policy_counters() {
    let single = sb_bound_single().remove(0);
    let dedup = by_name("dedup-like").expect("dedup-like exists");
    let points = [(single, 32, INSTS), (dedup, 114, 1_000)];
    let mut csv = String::from("backend,policy,point,stat,value\n");
    for coherence in CoherenceKind::ALL {
        for policy in PolicyKind::ALL {
            for (w, sb, insts) in &points {
                let spec = RunSpec {
                    warmup: 0,
                    insts: *insts,
                    coherence,
                    ..RunSpec::new(w.clone(), policy, *sb, Scale::Quick)
                };
                let mut sums = BTreeMap::<&str, f64>::new();
                let stats = run(&spec).stats;
                for (key, v) in stats.iter() {
                    if let Some((_, stat)) = key.split_once(".policy.") {
                        *sums.entry(stat).or_default() += v;
                    }
                }
                let point = format!("{}@sb{sb}x{}", w.name, spec.cores);
                for (stat, v) in sums {
                    let (backend, label) = (coherence.label(), policy.label());
                    writeln!(csv, "{backend},{label},{point},{stat},{v}").expect("write");
                }
            }
        }
    }
    check_golden("policy_counters", &csv);
}
