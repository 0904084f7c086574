//! The event-driven kernel must be observationally identical to the
//! lockstep kernel on real experiment points: every
//! metric the harness ever serializes — cycles, IPC, stall fractions,
//! energy components and the full raw `StatSet` — is compared through
//! the cache's bit-exact codec (`encode_result` stores floats as their
//! IEEE-754 bits), so even a 1-ulp drift fails the test.

use tus_harness::executor::encode_result;
use tus_harness::{run, RunSpec, Scale, Tweak};
use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_workloads::by_name;

/// Experiment-shaped specs: every policy, two SB sizes, a second seed,
/// a 16-core PARSEC point under each coherence backend and an ablation
/// tweak.
fn figure_points() -> Vec<RunSpec> {
    let short = |mut s: RunSpec| {
        s.warmup = 1_000;
        s.insts = 6_000;
        s
    };
    let w = |name: &str| by_name(name).expect("workload exists");
    let mut specs = Vec::new();
    for policy in PolicyKind::ALL {
        specs.push(short(RunSpec::new(w("502.gcc1-like"), policy, 114, Scale::Quick)));
    }
    specs.push(short(RunSpec::new(w("557.xz-like"), PolicyKind::Tus, 32, Scale::Quick)));
    specs.push(RunSpec {
        seed: 7,
        ..specs[0].clone()
    });
    let mut par = RunSpec::new(w("canneal-like"), PolicyKind::Tus, 114, Scale::Quick);
    par.warmup = 500;
    par.insts = 2_000;
    specs.push(par.clone());
    specs.push(RunSpec {
        coherence: CoherenceKind::Tardis,
        ..par
    });
    specs.push(RunSpec {
        tweak: Some(Tweak {
            name: "no-pf-commit",
            apply: |b| {
                b.prefetch_at_commit(false);
            },
        }),
        ..specs[4].clone()
    });
    specs
}

#[test]
fn kernels_are_bit_identical_on_figure_points() {
    for (i, spec) in figure_points().into_iter().enumerate() {
        let under = |kernel| {
            let s = RunSpec { kernel, ..spec.clone() };
            // A kernel-independent key, so the encodings compare equal
            // iff every measured bit does.
            encode_result(&run(&s), "point")
        };
        assert_eq!(
            under(KernelKind::Lockstep),
            under(KernelKind::Event),
            "event kernel diverged from lockstep on point {i} ({}, {}, sb{}, {})",
            spec.workload.name,
            spec.policy.label(),
            spec.sb_entries,
            spec.coherence.label(),
        );
    }
}
