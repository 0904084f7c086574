//! Invariant suite for the cycle-attribution/tracing layer.
//!
//! Seeded runs across every policy × kernel × a pair of workloads
//! assert the three properties the observability layer is built on:
//!
//! 1. **Full attribution** — every core's stall-category counters sum
//!    to exactly the run's total cycles (no cycle uncounted, none
//!    double-counted), and the per-window delta ([`Attribution::since`])
//!    is monotone across the warm-up boundary.
//! 2. **No negative category** — category counters are monotone
//!    (`since` panics on regression, which this suite would surface).
//! 3. **Observation-only** — the exported [`StatSet`] is bit-identical
//!    with tracing armed vs disarmed, under both simulation kernels,
//!    so traced runs can share the memo cache with untraced ones.

use tus::System;
use tus_sim::stats::names;
use tus_sim::trace::Attribution;
use tus_sim::{KernelKind, PolicyKind, SimConfig, StatSet};
use tus_workloads::by_name;

const WARMUP: u64 = 500;
const INSTS: u64 = 3_000;
const BUDGET: u64 = 400 * (WARMUP + INSTS) + 2_000_000;

fn build(workload: &str, policy: PolicyKind, kernel: KernelKind, seed: u64) -> System {
    let w = by_name(workload).expect("built-in workload");
    let cores = if w.parallel { 16 } else { 1 };
    let cfg: SimConfig = {
        let mut b = SimConfig::builder();
        b.cores(cores).sb_entries(32).policy(policy).kernel(kernel);
        b.build()
    };
    let traces = w.traces(cores, seed, WARMUP + INSTS + 10_000);
    System::new(&cfg, traces, seed)
}

struct Observed {
    stats: StatSet,
    warm_attr: Vec<Attribution>,
    end_attr: Vec<Attribution>,
    warm_cycles: f64,
    end_cycles: f64,
}

fn run_one(workload: &str, policy: PolicyKind, kernel: KernelKind, seed: u64, trace: bool) -> Observed {
    let mut sys = build(workload, policy, kernel, seed);
    if trace {
        sys.enable_trace(8_192);
    }
    let warm = sys.run_committed(WARMUP, BUDGET);
    let warm_attr = sys.attributions();
    let end = sys.run_committed(WARMUP + INSTS, BUDGET);
    let end_attr = sys.attributions();
    sys.check_attribution();
    if trace {
        // The event streams must be harvestable without disturbing stats.
        let tracks = sys.take_traces();
        assert!(!tracks.is_empty());
    }
    Observed {
        stats: end.clone(),
        warm_attr,
        end_attr,
        warm_cycles: warm.get(names::CYCLES),
        end_cycles: end.get(names::CYCLES),
    }
}

/// Every (policy, kernel, workload, seed) point holds all three
/// invariants.
#[test]
fn attribution_partitions_cycles_everywhere() {
    for workload in ["502.gcc1-like", "557.xz-like"] {
        for policy in PolicyKind::ALL {
            for kernel in KernelKind::ALL {
                for seed in [1u64, 42] {
                    let o = run_one(workload, policy, kernel, seed, true);
                    let label = format!("{workload}/{}/{}/s{seed}", policy.label(), kernel.label());
                    assert!(o.end_cycles > 0.0, "{label}: no cycles");
                    for (i, attr) in o.end_attr.iter().enumerate() {
                        // 1. Sum of categories == total cycles, per core.
                        assert_eq!(
                            attr.total() as f64, o.end_cycles,
                            "{label}: core{i} attribution does not cover the run",
                        );
                        // 2. Monotone across the warm-up boundary: the
                        // measured-window delta is well-defined and covers
                        // exactly the measured cycles. `since` panics if
                        // any category went backwards.
                        let delta = attr.since(&o.warm_attr[i]);
                        assert_eq!(
                            delta.total() as f64,
                            o.end_cycles - o.warm_cycles,
                            "{label}: core{i} measured-window attribution mismatch",
                        );
                    }
                }
            }
        }
    }
}

/// Arming the tracer changes nothing observable: exported stats are
/// bit-identical with tracing on vs off, under every policy on both
/// kernels.
#[test]
fn tracing_is_observation_only() {
    for policy in PolicyKind::ALL {
        for kernel in KernelKind::ALL {
            let off = run_one("502.gcc1-like", policy, kernel, 42, false);
            let on = run_one("502.gcc1-like", policy, kernel, 42, true);
            assert_eq!(
                off.stats, on.stats,
                "{}/{}: tracing perturbed the simulation",
                policy.label(),
                kernel.label(),
            );
        }
    }
}

/// The two kernels agree on attribution, not just on stats: the same
/// run produces the same per-core category totals under lockstep and
/// event-driven execution.
#[test]
fn kernels_agree_on_attribution() {
    for policy in [PolicyKind::Baseline, PolicyKind::Tus] {
        let lock = run_one("557.xz-like", policy, KernelKind::Lockstep, 7, true);
        let event = run_one("557.xz-like", policy, KernelKind::Event, 7, true);
        assert_eq!(lock.stats, event.stats, "{}: kernels diverge", policy.label());
        for (l, e) in lock.end_attr.iter().zip(&event.end_attr) {
            for (class, n) in l.iter() {
                assert_eq!(n, e.get(class), "{}: {class:?} differs", policy.label());
            }
        }
    }
}
