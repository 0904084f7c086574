//! Parallel run execution with memoization.
//!
//! The paper's evaluation is a large sweep of *independent, seeded,
//! deterministic* simulations — hundreds of (workload × policy × SB-size)
//! points, many of which repeat across figures (every figure normalizes
//! to the same baseline runs). [`Executor`] exploits both properties:
//!
//! * **Parallelism** — [`Executor::run_many`] fans the deduplicated spec
//!   list out over a worker pool of scoped `std` threads (`--jobs N`,
//!   default [`std::thread::available_parallelism`]), one spec per job.
//!   Results come back in spec order, so output order — and therefore
//!   every table and CSV byte — is independent of scheduling. `fuzz` and
//!   `check` sweep on the same pool.
//! * **Memoization** — each [`RunSpec`] has a stable content key
//!   ([`RunSpec::memo_key`]); results are cached in-process across all
//!   figures of an `all` run, and optionally on disk (under
//!   `<out>/.runcache/`) so a repeated invocation executes zero
//!   simulations.
//!
//! Results are bit-identical to the sequential path: simulations are
//! single-threaded and fully seeded, so the only thing parallelism
//! changes is wall-clock time.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tus_energy::EnergyBreakdown;
use tus_sim::hash::fx_hash_one;
use tus_sim::StatSet;

use crate::errors::{panic_message, HarnessError};
use crate::runner::{run, try_run_limited, RunResult, RunSpec};

/// Locks a mutex, recovering the data on poisoning.
///
/// Every value the executor guards (the memo map, result slots) is only
/// ever mutated by complete, non-panicking operations — a panicking
/// simulation job unwinds *outside* these critical sections — so a
/// poisoned lock means "some other job panicked", not "this data is
/// torn". Propagating the poison instead would cascade one bad request
/// into a failure of every subsequent request sharing the executor,
/// which is exactly the availability bug a long-lived daemon cannot
/// have.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counter snapshot of an [`Executor`] (monotonic over its lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Simulations actually executed.
    pub executed: u64,
    /// Requests served from the in-process memo.
    pub memo_hits: u64,
    /// Keys loaded from the on-disk cache.
    pub disk_hits: u64,
}

impl ExecCounters {
    /// Difference against an earlier snapshot.
    pub fn since(self, earlier: ExecCounters) -> ExecCounters {
        ExecCounters {
            executed: self.executed - earlier.executed,
            memo_hits: self.memo_hits - earlier.memo_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
        }
    }
}

/// A parallel, memoizing simulation executor.
pub struct Executor {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    memo: Mutex<HashMap<String, RunResult>>,
    executed: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs)
            .field("cache_dir", &self.cache_dir)
            .field("memoized", &lock_unpoisoned(&self.memo).len())
            .finish()
    }
}

impl Executor {
    /// Creates an executor with `jobs` workers and an optional on-disk
    /// result cache directory.
    pub fn new(jobs: usize, cache_dir: Option<PathBuf>) -> Self {
        Executor {
            jobs: jobs.max(1),
            cache_dir,
            memo: Mutex::new(HashMap::new()),
            executed: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
        }
    }

    /// The machine's available parallelism (the `--jobs` default).
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Current counter values.
    pub fn counters(&self) -> ExecCounters {
        ExecCounters {
            executed: self.executed.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// Executes every spec and returns results in spec order.
    ///
    /// Duplicate specs (same [`RunSpec::memo_key`]) are simulated once;
    /// previously seen keys are served from the memo (or the disk cache)
    /// without executing anything.
    ///
    /// # Panics
    ///
    /// Panics if a simulation job panics. Use [`Executor::run_many_checked`]
    /// where the process must survive a bad job (the daemon).
    pub fn run_many(&self, specs: &[RunSpec]) -> Vec<RunResult> {
        self.run_many_checked(specs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Executor::run_many`]: a panicking simulation job comes
    /// back as [`HarnessError::JobPanicked`] instead of unwinding through
    /// the caller. Jobs that completed before the panic are still
    /// memoized (and disk-cached), and the executor's shared state stays
    /// usable — poisoned locks are recovered, so later batches on the
    /// same executor are unaffected.
    pub fn run_many_checked(&self, specs: &[RunSpec]) -> Result<Vec<RunResult>, HarnessError> {
        // Dedup against the memo and the disk cache.
        let keys: Vec<String> = specs.iter().map(RunSpec::memo_key).collect();
        let mut todo: Vec<RunSpec> = Vec::new();
        {
            let mut memo = lock_unpoisoned(&self.memo);
            let mut scheduled: Vec<&str> = Vec::new();
            for (spec, key) in specs.iter().zip(&keys) {
                if memo.contains_key(key) {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if scheduled.iter().any(|k| k == key) {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if let Some(r) = self.load_cached(key) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    memo.insert(key.clone(), r);
                    continue;
                }
                scheduled.push(key);
                todo.push(spec.clone());
            }
        }

        // Simulate the remainder on the worker pool. A panicking job
        // leaves its slots `None`; everything that completed is kept.
        let (fresh, panicked) = self.execute(&todo);
        let ran = fresh.iter().filter(|r| r.is_some()).count();
        self.executed.fetch_add(ran as u64, Ordering::Relaxed);
        {
            let mut memo = lock_unpoisoned(&self.memo);
            for (spec, result) in todo.iter().zip(&fresh) {
                let Some(result) = result else { continue };
                let key = spec.memo_key();
                self.store_cached(&key, result);
                memo.insert(key, result.clone());
            }
        }
        if let Some(what) = panicked {
            return Err(HarnessError::JobPanicked { what });
        }

        // Assemble results in input order.
        let memo = lock_unpoisoned(&self.memo);
        keys.iter()
            .map(|k| {
                memo.get(k).cloned().ok_or_else(|| HarnessError::JobPanicked {
                    what: format!("no result for key {k}"),
                })
            })
            .collect()
    }

    /// Executes (or recalls) a single spec under an optional per-request
    /// cycle budget and wall-clock deadline of `wall_ms` milliseconds (the
    /// daemon's `budget=` and `wall_ms=` request headers), returning
    /// structured errors instead of panicking.
    ///
    /// This is the daemon's request path: an unknown-ly long or
    /// deadlocked run comes back as [`HarnessError::Deadlock`] (carrying
    /// the full [`tus::DeadlockReport`], a
    /// [`tus::DeadlockKind::WallClockExpired`] one on expiry), a panicking
    /// job as [`HarnessError::JobPanicked`] — either way the executor, its
    /// memo and its disk cache remain fully usable for the next request.
    /// Successful results are memoized exactly like [`Executor::run_many`];
    /// a failed attempt is never cached. Limits only decide whether a run
    /// *finishes*, not a finished run's bytes, so neither is a memo-key
    /// dimension.
    pub fn try_run_one_wall(
        &self,
        spec: &RunSpec,
        budget: Option<u64>,
        wall_ms: Option<u64>,
    ) -> Result<RunResult, HarnessError> {
        let key = spec.memo_key();
        {
            let mut memo = lock_unpoisoned(&self.memo);
            if let Some(r) = memo.get(&key) {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(r.clone());
            }
            if let Some(r) = self.load_cached(&key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                memo.insert(key.clone(), r.clone());
                return Ok(r);
            }
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| try_run_limited(spec, budget, wall_ms))) {
            Ok(Ok(r)) => {
                self.executed.fetch_add(1, Ordering::Relaxed);
                self.store_cached(&key, &r);
                lock_unpoisoned(&self.memo).insert(key, r.clone());
                Ok(r)
            }
            Ok(Err(report)) => Err(HarnessError::Deadlock(report)),
            Err(payload) => Err(HarnessError::JobPanicked {
                what: panic_message(&*payload),
            }),
        }
    }

    /// Executes every spec and returns a [`ResultSet`] for keyed lookup.
    pub fn run_set(&self, specs: &[RunSpec]) -> ResultSet {
        let results = self.run_many(specs);
        ResultSet {
            map: specs
                .iter()
                .map(RunSpec::memo_key)
                .zip(results)
                .collect(),
        }
    }

    /// Executes (or recalls) a single spec.
    pub fn run_one(&self, spec: &RunSpec) -> RunResult {
        self.run_many(std::slice::from_ref(spec))
            .pop()
            .expect("one spec, one result")
    }

    /// Runs `todo` (already deduplicated) on the worker pool, one spec
    /// per job, returning per-spec results plus the first captured panic
    /// message, if any job panicked.
    ///
    /// A panic inside a job is caught at the job boundary: that spec's
    /// slot stays `None`, every other job (including jobs claimed later by
    /// the same worker) still runs, and no lock is left poisoned.
    fn execute(&self, todo: &[RunSpec]) -> (Vec<Option<RunResult>>, Option<String>) {
        let panicked: Mutex<Option<String>> = Mutex::new(None);
        let job = |i: usize| match std::panic::catch_unwind(AssertUnwindSafe(|| run(&todo[i]))) {
            Ok(result) => Some(result),
            Err(payload) => {
                lock_unpoisoned(&panicked).get_or_insert_with(|| panic_message(&*payload));
                None
            }
        };
        let out = run_indexed(todo.len(), self.jobs, job, |_, _| {});
        (out, panicked.into_inner().unwrap_or_else(PoisonError::into_inner))
    }

    fn cache_path(&self, key: &str) -> Option<PathBuf> {
        self.cache_dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.run", fx_hash_one(&key))))
    }

    fn load_cached(&self, key: &str) -> Option<RunResult> {
        let path = self.cache_path(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        decode_result(&text, key)
    }

    fn store_cached(&self, key: &str, result: &RunResult) {
        let Some(path) = self.cache_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create run cache {}: {e}", dir.display());
                return;
            }
        }
        if let Err(e) = std::fs::write(&path, encode_result(result, key)) {
            eprintln!("warning: cannot write run cache {}: {e}", path.display());
        }
    }
}

/// The harness's one worker pool: runs `job(i)` for every `i` in `0..n`
/// on up to `workers` scoped threads, which take indices in order, and
/// returns the results in index order, so the output is the same however
/// the jobs were scheduled. `finished(k, &result)` runs on the worker
/// right after each job, `k` counting the jobs finished so far (progress
/// reports). With one worker, or at most one job, the jobs run inline on
/// the caller's thread.
pub(crate) fn run_indexed<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
    finished: impl Fn(usize, &T) + Sync,
) -> Vec<T> {
    let (next, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    // Results are pushed as they finish (no slot per index up front: a
    // sweep's `n` comes from the command line).
    let results = Mutex::new(Vec::new());
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = job(i);
        finished(done.fetch_add(1, Ordering::Relaxed) + 1, &result);
        lock_unpoisoned(&results).push((i, result));
    };
    if workers.min(n) <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers.min(n) {
                s.spawn(work);
            }
        });
    }
    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Results of a batch, addressable by spec.
#[derive(Debug, Clone)]
pub struct ResultSet {
    map: HashMap<String, RunResult>,
}

impl ResultSet {
    /// The result for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` was not part of the batch.
    pub fn get(&self, spec: &RunSpec) -> &RunResult {
        let key = spec.memo_key();
        self.map
            .get(&key)
            .unwrap_or_else(|| panic!("spec not in batch: {key}"))
    }
}

fn push_f64(out: &mut String, name: &str, v: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{name}={:016x}", v.to_bits());
}

/// Serializes a result to the cache's text format.
///
/// Floats are stored as the hex of their IEEE-754 bits, so a decoded
/// result is bit-identical to the original — cached and fresh runs
/// produce the same CSV bytes. The final `sum=` line is an FxHash of
/// everything above it: [`decode_result`] rejects any entry whose body
/// no longer matches, so a bit-flipped or truncated `.runcache` file is
/// a cache *miss* (re-simulate and overwrite), never a wrong result, an
/// error, or a panic. (v1 entries had no checksum; they fail the format
/// line and miss too.)
pub fn encode_result(r: &RunResult, key: &str) -> String {
    let mut out = String::new();
    out.push_str("tusrun v2\n");
    out.push_str("key=");
    out.push_str(key);
    out.push('\n');
    push_f64(&mut out, "cycles", r.cycles);
    push_f64(&mut out, "committed", r.committed);
    push_f64(&mut out, "ipc", r.ipc);
    push_f64(&mut out, "sb_stall_frac", r.sb_stall_frac);
    push_f64(&mut out, "edp", r.edp);
    push_f64(&mut out, "energy.total_pj", r.energy.total_pj);
    push_f64(&mut out, "energy.cycles", r.energy.cycles);
    for (name, v) in &r.energy.components {
        push_f64(&mut out, &format!("ecomp.{name}"), *v);
    }
    for (name, v) in r.stats.iter() {
        push_f64(&mut out, &format!("stat.{name}"), v);
    }
    let sum = fx_hash_one(&out);
    use std::fmt::Write as _;
    let _ = writeln!(out, "sum={sum:016x}");
    out
}

/// Parses the cache text format; `None` on any mismatch (treated as a
/// cache miss), including a `key=` line differing from `expect_key`
/// (hash-name collision or stale format) and a `sum=` trailer that does
/// not match the body (bit rot, torn write, truncation).
pub fn decode_result(text: &str, expect_key: &str) -> Option<RunResult> {
    // Integrity first: the last line must be `sum=<fxhash of the rest>`.
    let trimmed = text.strip_suffix('\n')?;
    let (head, last) = trimmed.rsplit_once('\n')?;
    let sum = u64::from_str_radix(last.strip_prefix("sum=")?, 16).ok()?;
    let body = &text[..head.len() + 1];
    if fx_hash_one(&body) != sum {
        return None;
    }
    let mut lines = head.lines();
    if lines.next()? != "tusrun v2" {
        return None;
    }
    if lines.next()?.strip_prefix("key=")? != expect_key {
        return None;
    }
    let mut fields: HashMap<&str, f64> = HashMap::new();
    let mut components = std::collections::BTreeMap::new();
    let mut stats = StatSet::new();
    for line in lines {
        let (name, hex) = line.split_once('=')?;
        let v = f64::from_bits(u64::from_str_radix(hex, 16).ok()?);
        if let Some(comp) = name.strip_prefix("ecomp.") {
            components.insert(comp.to_owned(), v);
        } else if let Some(stat) = name.strip_prefix("stat.") {
            stats.set(stat, v);
        } else {
            fields.insert(name, v);
        }
    }
    Some(RunResult {
        cycles: *fields.get("cycles")?,
        committed: *fields.get("committed")?,
        ipc: *fields.get("ipc")?,
        sb_stall_frac: *fields.get("sb_stall_frac")?,
        edp: *fields.get("edp")?,
        energy: EnergyBreakdown {
            total_pj: *fields.get("energy.total_pj")?,
            cycles: *fields.get("energy.cycles")?,
            components,
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;
    use tus_sim::PolicyKind;
    use tus_workloads::by_name;

    fn quick_spec(name: &str, policy: PolicyKind, sb: usize) -> RunSpec {
        RunSpec {
            warmup: 500,
            insts: 3_000,
            ..RunSpec::new(by_name(name).expect("exists"), policy, sb, Scale::Quick)
        }
    }

    /// The pool returns results in index order whatever the worker
    /// count, and reports every finished job once, counting up.
    #[test]
    fn run_indexed_keeps_index_order() {
        for workers in [1, 3, 8] {
            let counts = Mutex::new(Vec::new());
            let out = run_indexed(20, workers, |i| i * i, |k, _| lock_unpoisoned(&counts).push(k));
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>(), "{workers} workers");
            let mut counts = counts.into_inner().unwrap();
            counts.sort_unstable();
            assert_eq!(counts, (1..=20).collect::<Vec<_>>(), "{workers} workers");
        }
        assert!(run_indexed(0, 4, |i| i, |_, _| panic!("no job runs")).is_empty());
    }

    #[test]
    fn duplicate_specs_execute_once() {
        let ex = Executor::new(2, None);
        let spec = quick_spec("502.gcc1-like", PolicyKind::Baseline, 114);
        let results = ex.run_many(&[spec.clone(), spec.clone(), spec.clone()]);
        assert_eq!(results.len(), 3);
        let c = ex.counters();
        assert_eq!(c.executed, 1, "identical specs must simulate once");
        assert_eq!(c.memo_hits, 2);
        assert_eq!(
            encode_result(&results[0], "k"),
            encode_result(&results[1], "k"),
            "memoized results identical"
        );
    }

    #[test]
    fn memo_persists_across_calls() {
        let ex = Executor::new(1, None);
        let spec = quick_spec("557.xz-like", PolicyKind::Tus, 32);
        let a = ex.run_one(&spec);
        let b = ex.run_one(&spec);
        assert_eq!(ex.counters().executed, 1);
        assert_eq!(ex.counters().memo_hits, 1);
        assert_eq!(encode_result(&a, "k"), encode_result(&b, "k"));
    }

    #[test]
    fn disk_cache_round_trips_bit_exact() {
        let dir = std::env::temp_dir().join(format!("tus-runcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = quick_spec("505.mcf-like", PolicyKind::Ssb, 64);

        let ex1 = Executor::new(1, Some(dir.clone()));
        let a = ex1.run_one(&spec);
        assert_eq!(ex1.counters().executed, 1);

        // A fresh executor (fresh process stand-in) hits the disk cache.
        let ex2 = Executor::new(1, Some(dir.clone()));
        let b = ex2.run_one(&spec);
        let c = ex2.counters();
        assert_eq!(c.executed, 0, "warm cache must execute zero simulations");
        assert_eq!(c.disk_hits, 1);
        let key = spec.memo_key();
        assert_eq!(encode_result(&a, &key), encode_result(&b, &key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A result cached under one simulator version must be a disk miss
    /// under a bumped version — stale entries are never served.
    #[test]
    fn bumped_cache_version_misses_disk_cache() {
        let dir = std::env::temp_dir()
            .join(format!("tus-runcache-vbump-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = quick_spec("502.gcc1-like", PolicyKind::Csb, 64);

        let ex = Executor::new(1, Some(dir.clone()));
        let r = ex.run_one(&spec);
        assert!(ex.load_cached(&spec.memo_key()).is_some(), "warm under current version");

        let bumped = spec.memo_key_versioned(crate::runner::CACHE_FORMAT_VERSION + 1);
        assert_ne!(bumped, spec.memo_key());
        assert!(
            ex.load_cached(&bumped).is_none(),
            "a version bump must invalidate every cached run"
        );
        // Even a forged hash collision is rejected by the embedded key.
        assert!(decode_result(&encode_result(&r, &spec.memo_key()), &bumped).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A deliberately panicking job must not take down later jobs: the
    /// panic is caught at the job boundary, reported as a structured
    /// [`HarnessError::JobPanicked`], and the same executor — same memo
    /// map, same locks — serves subsequent batches normally (no mutex
    /// poisoning cascade). Seed-varied copies of both specs share the
    /// batch: each bomb is contained on its own, and each healthy job
    /// still matches a standalone run bit for bit.
    #[test]
    fn panicking_job_does_not_poison_later_jobs() {
        let bomb = RunSpec {
            tweak: Some(crate::runner::Tweak {
                name: "panic-injection",
                apply: |_| panic!("injected config panic"),
            }),
            ..quick_spec("502.gcc1-like", PolicyKind::Tus, 114)
        };
        let good = quick_spec("557.xz-like", PolicyKind::Baseline, 32);
        let reseed = |spec: &RunSpec| RunSpec { seed: 7, ..spec.clone() };

        let ex = Executor::new(2, None);
        let err = ex
            .run_many_checked(&[bomb.clone(), reseed(&bomb), good.clone(), reseed(&good)])
            .expect_err("batch containing the bomb must error");
        match &err {
            HarnessError::JobPanicked { what } => {
                assert!(what.contains("injected config panic"), "{what}")
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }

        // The good jobs that shared the batch already ran and were
        // memoized; a follow-up batch is served without re-execution and
        // fresh work still executes.
        let before = ex.counters();
        let goods = [good.clone(), reseed(&good)];
        let mut follow_up = goods.to_vec();
        follow_up.push(quick_spec("505.mcf-like", PolicyKind::Ssb, 64));
        let results = ex
            .run_many_checked(&follow_up)
            .expect("later jobs unaffected by the earlier panic");
        assert_eq!(results.len(), 3);
        let since = ex.counters().since(before);
        assert_eq!(since.memo_hits, 2, "pre-panic results still served from memo");
        assert_eq!(since.executed, 1);
        for (spec, r) in goods.iter().zip(&results) {
            let key = spec.memo_key();
            assert_eq!(encode_result(r, &key), encode_result(&run(spec), &key));
        }

        // The single-spec daemon path reports the same panic structurally.
        let err = ex.try_run_one_wall(&bomb, None, None).expect_err("bomb via the daemon path");
        assert!(matches!(err, HarnessError::JobPanicked { .. }));
        assert!(ex.try_run_one_wall(&good, None, None).is_ok());
    }

    /// A truncated or bit-flipped `.runcache` entry must behave as a
    /// cache miss — the run is re-simulated and the entry overwritten —
    /// never an error, a panic, or (worse) a silently wrong result.
    #[test]
    fn corrupt_cache_entry_is_a_miss_and_heals() {
        let dir = std::env::temp_dir().join(format!("tus-runcache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = quick_spec("502.gcc1-like", PolicyKind::Spb, 64);

        let ex = Executor::new(1, Some(dir.clone()));
        let original = ex.run_one(&spec);
        let path = ex.cache_path(&spec.memo_key()).expect("cache path");
        let pristine = std::fs::read(&path).expect("entry written");

        // Flip one bit in the middle of the entry (lands in a value's
        // hex digits — the kind of corruption only a checksum catches).
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).expect("write corrupted");
        let ex2 = Executor::new(1, Some(dir.clone()));
        let healed = ex2.run_one(&spec);
        let c = ex2.counters();
        assert_eq!(c.disk_hits, 0, "bit-flipped entry must not be served");
        assert_eq!(c.executed, 1, "corrupt entry re-simulates");
        let key = spec.memo_key();
        assert_eq!(encode_result(&healed, &key), encode_result(&original, &key));
        assert_eq!(
            std::fs::read(&path).expect("entry rewritten"),
            pristine,
            "re-simulation overwrites the corrupt entry in place"
        );

        // Truncation (torn write / full disk) is also just a miss.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).expect("truncate");
        let ex3 = Executor::new(1, Some(dir.clone()));
        let recovered = ex3.run_one(&spec);
        assert_eq!(ex3.counters().executed, 1);
        assert_eq!(
            encode_result(&recovered, &key),
            encode_result(&original, &key)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `try_run_one_wall` is the daemon's request path: budget exhaustion is a
    /// structured error, a successful result is memoized so a repeat is
    /// free, and the failed attempt is never cached.
    #[test]
    fn try_run_one_budget_and_memoization() {
        let ex = Executor::new(1, None);
        let spec = quick_spec("502.gcc1-like", PolicyKind::Tus, 114);
        let err = ex
            .try_run_one_wall(&spec, Some(50), None)
            .expect_err("50 cycles cannot finish");
        assert!(matches!(err, HarnessError::Deadlock(_)));
        assert_eq!(ex.counters().executed, 0, "a failed run is not counted or cached");

        let a = ex.try_run_one_wall(&spec, None, None).expect("default budget");
        let b = ex.try_run_one_wall(&spec, None, None).expect("memo hit");
        let c = ex.counters();
        assert_eq!(c.executed, 1);
        assert_eq!(c.memo_hits, 1);
        assert_eq!(encode_result(&a, "k"), encode_result(&b, "k"));
    }

    #[test]
    fn decode_rejects_wrong_key_and_garbage() {
        let spec = quick_spec("502.gcc1-like", PolicyKind::Baseline, 114);
        let ex = Executor::new(1, None);
        let r = ex.run_one(&spec);
        let enc = encode_result(&r, "the-key");
        assert!(decode_result(&enc, "the-key").is_some());
        assert!(decode_result(&enc, "other-key").is_none());
        assert!(decode_result("junk", "the-key").is_none());
        assert!(decode_result("tusrun v1\nkey=the-key\nbadline\n", "the-key").is_none());
    }
}
