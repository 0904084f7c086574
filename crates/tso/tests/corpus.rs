//! Regression tests over the committed seed corpus.
//!
//! `results/fuzz-corpus/` holds generator-produced litmus cases
//! (persisted by `tus-harness fuzz --save-corpus 32 --seed 7`) that CI
//! sweeps with `tus-harness check --corpus`. These tests pin the corpus
//! itself: it must be exactly what that command writes, every committed
//! entry must keep decoding, the text codec must keep round-tripping
//! byte-for-byte, and every case must still run to a verdict on the real
//! simulator — so a drift in the case stream, `prog`, the corpus format,
//! or the conformance compiler shows up here, not as a silently skipped
//! CI sweep.

use std::path::PathBuf;

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_tso::conformance::try_run_once_matrix;
use tus_tso::fuzz::{cases_in_bounds, decode_case, encode_case};
use tus_tso::{CheckConfig, RunVerdict};

/// The committed corpus directory, resolved from the workspace layout.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/fuzz-corpus")
}

/// Every committed `.txt` entry, sorted for stable iteration order.
fn corpus_files() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("committed corpus dir {} must exist: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "committed corpus must not be empty");
    files
}

/// The corpus is the first 32 cases of stream 7 within the model
/// checker's default bounds, file k holding the k-th, with 16 replay
/// seeds and no policy: exactly what `fuzz --save-corpus 32 --seed 7`
/// writes. This pins the one case stream that `fuzz`, `check
/// --programs`, `--save-corpus` and the `verify` benchmark share.
#[test]
fn corpus_is_the_first_in_bound_cases_of_stream_7() {
    let names: Vec<String> = corpus_files()
        .iter()
        .map(|p| p.file_name().expect("file").to_string_lossy().into_owned())
        .collect();
    let expected: Vec<String> = (0..32).map(|k| format!("gen-seed7-{k:03}.txt")).collect();
    assert_eq!(names, expected, "the corpus holds exactly the 32 saved cases");
    let cfg = CheckConfig::default();
    let (cases, _) = cases_in_bounds(7, 32, cfg.max_threads, cfg.max_ops);
    assert_eq!(cases.len(), 32);
    for (name, (index, case)) in names.iter().zip(&cases) {
        let text = std::fs::read_to_string(corpus_dir().join(name)).expect("read corpus entry");
        assert_eq!(
            text,
            encode_case(case, None, 16),
            "{name} is not stream 7's in-bound case at index {index}"
        );
    }
}

/// Every committed entry decodes, and re-encoding the decoded entry
/// reproduces the committed bytes exactly — the codec has not drifted
/// since the corpus was persisted.
#[test]
fn every_committed_entry_round_trips_byte_exact() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("read corpus entry");
        let entry = decode_case(&text)
            .unwrap_or_else(|e| panic!("{} no longer decodes: {e}", path.display()));
        let reencoded = encode_case(&entry.case, entry.policy, entry.seeds);
        assert_eq!(
            reencoded,
            text,
            "{} re-encodes differently — corpus codec drift",
            path.display()
        );
    }
}

/// Every committed case still compiles onto the simulator and runs to a
/// clean outcome (no deadlock, no truncated registers) under every
/// policy — the corpus stays sweepable.
#[test]
fn every_committed_case_still_runs_to_a_verdict() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("read corpus entry");
        let entry = decode_case(&text).expect("decodes (covered above)");
        let cfg = CheckConfig::default();
        assert!(
            entry.case.program.threads.len() <= cfg.max_threads
                && entry.case.program.ops() <= cfg.max_ops,
            "{} exceeds the check bounds the corpus is committed for",
            path.display()
        );
        for policy in PolicyKind::ALL {
            let verdict = try_run_once_matrix(
                &entry.case.program,
                &entry.case.addrs,
                policy,
                1,
                KernelKind::default(),
                CoherenceKind::default(),
            );
            assert!(
                matches!(verdict, RunVerdict::Outcome(_)),
                "{} under {} no longer runs to an outcome: {verdict:?}",
                path.display(),
                policy.label()
            );
        }
    }
}
