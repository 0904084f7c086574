//! The fuzzer's verdicts, pinned.
//!
//! `results/golden/fuzz_verdicts.txt` holds two lists:
//!
//! * `sweep` lines: the five-policy differential check of the first 60
//!   programs of MESI streams 0 and 4 and Tardis stream 2, at 16 timing
//!   seeds, as `tus-harness fuzz --programs 60 --seeds 16 --seed S`
//!   checks them. One line per failing program with its first failure;
//!   every program not listed passes.
//! * `open` lines: each repro under `results/fuzz-open/<backend>/`,
//!   checked under its backend and its recorded policy with at least 16
//!   seeds, as `tus-harness fuzz --replay FILE --coherence <backend>`
//!   checks it.
//!
//! A fix to one of the open TSO violations changes this file on purpose.
//! To bless such a change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p tus-tso --release --test fuzz_verdicts
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use tus_sim::{CoherenceKind, KernelKind, PolicyKind};
use tus_tso::fuzz::{case_at, check_policies, decode_case};

/// The pinned sweeps: (backend, stream).
const SWEEPS: [(CoherenceKind, u64); 3] =
    [(CoherenceKind::Mesi, 0), (CoherenceKind::Mesi, 4), (CoherenceKind::Tardis, 2)];

/// Programs per pinned sweep.
const PROGRAMS: u64 = 60;

/// Timing seeds per (program, policy): the `fuzz` default.
const SEEDS: u64 = 16;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The repro files of one backend, sorted.
fn open_repros(coherence: CoherenceKind) -> Vec<PathBuf> {
    let dir = results_dir().join("fuzz-open").join(coherence.to_string());
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{} must exist: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    files
}

/// Both lists, rendered as the golden file holds them.
fn verdicts() -> String {
    let kernel = KernelKind::default();
    let mut out = String::new();
    for (coherence, stream) in SWEEPS {
        for i in 0..PROGRAMS {
            let case = case_at(stream, i);
            if let Some(f) = check_policies(&case, &PolicyKind::ALL, SEEDS, kernel, coherence) {
                let _ = writeln!(out, "sweep {coherence} stream {stream} program {i}: {f}");
            }
        }
    }
    for coherence in [CoherenceKind::Mesi, CoherenceKind::Tardis] {
        for path in open_repros(coherence) {
            let text = std::fs::read_to_string(&path).expect("read repro");
            let entry = decode_case(&text)
                .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
            let policies = entry.policy.map_or_else(|| PolicyKind::ALL.to_vec(), |p| vec![p]);
            let seeds = entry.seeds.max(SEEDS);
            let verdict = check_policies(&entry.case, &policies, seeds, kernel, coherence)
                .map_or_else(|| "passes".to_owned(), |f| f.to_string());
            let name = path.file_stem().expect("file").to_string_lossy().into_owned();
            let _ = writeln!(out, "open {coherence}/{name}: {verdict}");
        }
    }
    out
}

#[test]
fn fuzz_verdicts_match_the_golden_file() {
    let got = verdicts();
    let path = results_dir().join("golden/fuzz_verdicts.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write the golden file");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        got, want,
        "fuzz verdicts differ from {}. If a simulator fix changed them on \
         purpose, re-bless with UPDATE_GOLDEN=1 and say why; otherwise this \
         is a regression.",
        path.display()
    );
}
