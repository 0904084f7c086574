//! Hot-path microbenchmarks: the structures TUS adds (WOQ, WCB,
//! authorization unit), the SB forwarding CAM, the TSO enumerator, and
//! raw simulation throughput per policy.

use std::hint::black_box;

use tus::{AuthorizationUnit, WcbSet, Woq};
use tus_bench::Bench;
use tus_cpu::StoreBuffer;
use tus_mem::ByteMask;
use tus_sim::{Addr, Cycle, LineAddr, PolicyKind};
use tus_tso::{all_litmus_tests, case_at, tso_outcomes};

fn main() {
    let mut b = Bench::from_args();

    b.bench("woq/push_find_pop", || {
        let mut w = Woq::new(64);
        for i in 0..64u64 {
            w.push(LineAddr::new(i), (i % 64) as usize, (i % 12) as usize, ByteMask::FULL);
        }
        for i in 0..64u64 {
            black_box(w.find((i % 64) as usize, (i % 12) as usize));
            w.mark_ready((i % 64) as usize, (i % 12) as usize);
        }
        while !w.is_empty() && w.head_group_ready() {
            black_box(w.pop_head_group());
        }
    });

    b.bench("woq/merge_to_tail", || {
        let mut w = Woq::new(64);
        for i in 0..32u64 {
            w.push(LineAddr::new(i), i as usize, 0, ByteMask::FULL);
        }
        black_box(w.merge_to_tail(0));
    });

    b.bench("wcb/coalesce_64_stores", || {
        let mut w = WcbSet::new(2);
        for i in 0..64u64 {
            let _ = w.write(Addr::new(0x1000 + (i % 8) * 8), 8, i, Cycle::new(i));
        }
        black_box(w.occupied())
    });

    {
        let unit = AuthorizationUnit::new(16);
        let mut w = Woq::new(64);
        for i in 0..64u64 {
            w.push(LineAddr::new(i * 7), i as usize, 0, ByteMask::FULL);
            if i % 2 == 0 {
                w.mark_ready(i as usize, 0);
            }
        }
        b.bench("auth_unit/decide_64_entries", || black_box(unit.decide(&w, 63)));
    }

    {
        let mut sb = StoreBuffer::new(114, 5);
        for i in 0..114u64 {
            sb.push(Addr::new(i * 8), 8, i, i).expect("room");
            sb.mark_executed(i);
        }
        b.bench("sb/forward_114_entries", || {
            black_box(sb.forward(Addr::new(56 * 8), 8, 200))
        });
    }

    for t in all_litmus_tests().into_iter().take(4) {
        b.bench(&format!("tso_enumeration/{}", t.name), || {
            black_box(tso_outcomes(&t.program).len())
        });
    }
    {
        // The costliest case of the `verify` benchmark's pool: a
        // 4-thread program from fuzz stream 1 (`tus-harness fuzz --seed 1`).
        let case = case_at(1, 12);
        b.bench("tso_enumeration/fuzz-seed1-case12", || {
            black_box(tso_outcomes(&case.program).len())
        });
    }

    for policy in PolicyKind::ALL {
        b.bench(&format!("sim_throughput_10k_insts/{}", policy.label()), || {
            black_box(tus_bench::short_run("523.xalancbmk-like", policy, 114, 10_000).cycles)
        });
    }

    // Lockstep vs event kernel on a latency-bound workload (long DRAM
    // waits — the event kernel's best case) and a compute-bound one (its
    // worst case: every cycle has due work, the calendar is pure
    // overhead).
    for workload in ["505.mcf-like", "523.xalancbmk-like"] {
        for kernel in tus_sim::KernelKind::ALL {
            b.bench(&format!("kernel/{workload}/{kernel}"), || {
                black_box(
                    tus_bench::short_run_kernel(workload, PolicyKind::Baseline, 114, 10_000, kernel)
                        .cycles,
                )
            });
        }
    }
}
