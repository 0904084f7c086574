//! Randomized-property tests over the core data structures and, at the
//! top, randomized end-to-end value checking of the full simulator
//! against a sequential oracle.
//!
//! The inputs are generated with the workspace's own deterministic
//! [`SimRng`] (the registry is unreachable offline, so no external
//! property-testing framework): every case is seeded, so a failure
//! message's seed reproduces the exact input.

use tus::{AuthorizationUnit, ConflictDecision, WcbSet, Woq};
use tus_mem::line::{combine, read_value, write_value};
use tus_cpu::ForwardResult;
use tus_mem::ByteMask;
use tus_sim::{Addr, Cycle, LineAddr, SimRng};

/// Byte-mask range bookkeeping is exact.
#[test]
fn mask_covers_exactly_what_was_set() {
    for seed in 0..200u64 {
        let mut rng = SimRng::seed(seed);
        let mut m = ByteMask::EMPTY;
        let mut model = [false; 64];
        for _ in 0..rng.index(10) {
            let off = rng.index(64);
            let len = (1 + rng.index(7)).min(64 - off);
            m.set_range(off, len);
            for b in model.iter_mut().skip(off).take(len) {
                *b = true;
            }
        }
        for i in 0..64 {
            assert_eq!(m.covers(i, 1), model[i], "seed {seed}, byte {i}");
        }
        assert_eq!(
            m.count() as usize,
            model.iter().filter(|&&b| b).count(),
            "seed {seed}"
        );
    }
}

/// combine() is exactly a masked byte-wise select.
#[test]
fn combine_selects_masked_bytes() {
    for seed in 0..200u64 {
        let mut rng = SimRng::seed(seed);
        let mask_bits = rng.bits();
        let a = rng.range(0, 256) as u8;
        let b = rng.range(0, 256) as u8;
        let base = [a; 64];
        let written = [b; 64];
        let mut out = base;
        combine(&mut out, &written, ByteMask(mask_bits));
        for (i, &v) in out.iter().enumerate() {
            let expect = if mask_bits & (1 << i) != 0 { b } else { a };
            assert_eq!(v, expect, "seed {seed}, byte {i}");
        }
    }
}

/// Line read/write round-trips at any alignment and size.
#[test]
fn line_value_roundtrip() {
    for seed in 0..200u64 {
        let mut rng = SimRng::seed(seed);
        let off = rng.index(57);
        let size = 1 + rng.index(7);
        let val = rng.bits();
        let mut d = [0u8; 64];
        write_value(&mut d, off, size, val);
        let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
        assert_eq!(read_value(&d, off, size), val & mask, "seed {seed}");
    }
}

/// WOQ: entries pop in FIFO group order, each exactly once, and
/// merge_to_tail preserves the entry count while making membership
/// transitively closed.
#[test]
fn woq_fifo_and_merge_invariants() {
    for seed in 0..150u64 {
        let mut rng = SimRng::seed(seed);
        let mut w = Woq::new(64);
        let mut pushed = 0usize;
        for _ in 0..(1 + rng.index(59)) {
            let op = rng.index(3) as u8;
            let arg = rng.index(16);
            match op {
                0 if !w.is_full() => {
                    w.push(LineAddr::new(pushed as u64), pushed % 64, pushed % 12, ByteMask::FULL);
                    pushed += 1;
                }
                1 if !w.is_empty() => {
                    let idx = arg % w.len();
                    w.merge_to_tail(idx);
                    // After a merge, every group present appears as one
                    // contiguous-by-membership class: merged_size of the
                    // merge point equals the count of its group members.
                    let g = w.entry(idx).group;
                    let members = w.iter().filter(|e| e.group == g).count();
                    assert!(members >= w.len() - idx, "seed {seed}");
                }
                2 if !w.is_empty() => {
                    // Ready the whole head group and pop it.
                    let g = w.head_group().expect("nonempty");
                    let coords: Vec<_> = w
                        .iter()
                        .filter(|e| e.group == g)
                        .map(|e| (e.set, e.way))
                        .collect();
                    for (s, wy) in coords {
                        w.mark_ready(s, wy);
                    }
                    assert!(w.head_group_ready(), "seed {seed}");
                    let popped = w.pop_head_group();
                    assert!(!popped.is_empty(), "seed {seed}");
                    assert!(popped.iter().all(|e| e.group == g), "seed {seed}");
                    assert!(w.iter().all(|e| e.group != g), "seed {seed}");
                }
                _ => {}
            }
        }
    }
}

/// Authorization unit: the decision is exactly "delay iff the core is
/// ready on every older-or-same-group entry with lex ≤ the target's",
/// under the *total* lex order (sub-address ties broken by the full
/// line address).
#[test]
fn auth_unit_decision_matches_definition() {
    for seed in 0..200u64 {
        let mut rng = SimRng::seed(seed);
        let n = 1 + rng.index(19);
        let lines: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.range(0, 32), rng.chance(0.5)))
            .collect();
        let target = rng.index(n);
        let lex_bits = 1 + rng.index(7) as u32;
        let unit = AuthorizationUnit::new(lex_bits);
        let mut w = Woq::new(64);
        for (i, (line, ready)) in lines.iter().enumerate() {
            w.push(LineAddr::new(*line), i, 0, ByteMask::FULL);
            if *ready {
                w.mark_ready(i, 0);
            }
        }
        // The target must be ready (a conflict implies held permission).
        w.mark_ready(target, 0);
        let got = unit.decide(&w, target);
        let tl = unit.total_lex(w.entry(target).line);
        let tg = w.entry(target).group;
        let expect_delay = w.iter().enumerate().all(|(i, e)| {
            let relevant = i <= target || e.group == tg;
            !relevant || unit.total_lex(e.line) > tl || e.ready
        });
        assert_eq!(got == ConflictDecision::Delay, expect_delay, "seed {seed}");
    }
}

/// WCB forwarding returns exactly the bytes of the latest coalesced
/// stores.
#[test]
fn wcb_forwarding_matches_model() {
    for seed in 0..150u64 {
        let mut rng = SimRng::seed(seed);
        let mut w = WcbSet::new(4);
        let mut model = std::collections::HashMap::<u64, u8>::new();
        let base = 0x4000u64;
        for i in 0..(1 + rng.index(29)) {
            // Two lines' worth of slots, 8-byte aligned so sizes fit.
            let slot = rng.range(0, 16);
            let size = 1 + rng.index(7);
            let val = rng.bits();
            let addr = base + slot * 8;
            if w.write(Addr::new(addr), size, val, Cycle::new(i as u64)).is_ok() {
                for b in 0..size {
                    model.insert(addr + b as u64, val.to_le_bytes()[b]);
                }
            }
        }
        for slot in 0..16u64 {
            let addr = base + slot * 8;
            let forwarded = w.forward(Addr::new(addr), 8);
            if let ForwardResult::Hit { value: v } = forwarded {
                // Full-cover hit: every byte must match the model.
                for b in 0..8u64 {
                    let expect = model.get(&(addr + b)).copied();
                    assert_eq!(
                        Some(v.to_le_bytes()[b as usize]),
                        expect,
                        "seed {seed}, byte {b}"
                    );
                }
            }
            // Partial exactly when the model holds some, not all, of the
            // load's bytes: the load must then wait for the flush.
            let held = (0..8u64).filter(|b| model.contains_key(&(addr + b))).count();
            assert_eq!(
                forwarded == ForwardResult::Partial,
                (1..8).contains(&held),
                "seed {seed}, slot {slot}: {forwarded:?} with {held} of 8 bytes held"
            );
        }
    }
}

/// End-to-end randomized check: a random single-core program under
/// TUS returns sequential values (slow — few cases).
#[test]
fn full_system_matches_sequential_oracle() {
    use tus::System;
    use tus_cpu::{TraceInst, VecTrace};
    use tus_sim::{PolicyKind, SimConfig};

    for seed in (0..5000u64).step_by(417) {
        let mut rng = SimRng::seed(seed);
        let mut insts = Vec::new();
        let mut expected = Vec::new();
        let mut mem = std::collections::HashMap::<u64, u64>::new();
        for i in 0..250u64 {
            let a = 0xA_0000 + rng.range(0, 16) * 8;
            if rng.chance(0.5) {
                mem.insert(a, i + 1);
                insts.push(TraceInst::store(Addr::new(a), 8, i + 1));
            } else {
                expected.push(mem.get(&a).copied().unwrap_or(0));
                insts.push(TraceInst::load(Addr::new(a), 8));
            }
        }
        let cfg = SimConfig::builder()
            .policy(PolicyKind::Tus)
            .sb_entries(8)
            .scale_caches_down(64)
            .build();
        let mut sys = System::new(&cfg, vec![Box::new(VecTrace::new(insts))], seed);
        sys.core_mut(0).record_loads(true);
        sys.run_to_completion(5_000_000);
        assert_eq!(sys.core(0).loaded_values(), &expected[..], "seed {seed}");
    }
}
