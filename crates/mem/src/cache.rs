//! Generic set-associative cache array.
//!
//! [`CacheArray`] stores tags, MESI state, data and the TUS line-state
//! extensions (Figure 6 of the paper): a *not visible* bit (`unauth` here,
//! with the opposite sense — `unauth == true` means the line holds
//! temporarily unauthorized store data that the coherence protocol must not
//! see) and a *ready* bit (write permission acquired and data combined).
//!
//! Victim selection is LRU with a filter: unauthorized and locked
//! (transient) lines are never eviction candidates, which implements both
//! the paper's "cannot be selected for replacement" rule at the L1D and the
//! NACK-refresh replacement rule at the L2.

use tus_sim::LineAddr;

use crate::line::{ByteMask, LineData};
use crate::mesi::Mesi;

/// Builds a length-`n` `Vec<T>` with one `alloc_zeroed` call instead of
/// writing every element.
///
/// That is only as cheap as the allocator's zeroing. glibc serves a
/// request above its mmap threshold with fresh pages, which come zeroed:
/// construction is then page mapping, untouched pages cost no physical
/// memory, and teardown is one unmap. That threshold starts at 128 KiB
/// but rises to the size of the largest mmapped chunk the process has
/// freed (at most 32 MiB), so once a process has dropped a machine,
/// later arrays below the raised threshold come from reused heap memory
/// that `alloc_zeroed` clears byte by byte, in time proportional to the
/// array.
///
/// # Safety
///
/// The all-zero byte pattern must be a valid `T`.
unsafe fn zeroed_vec<T>(n: usize) -> Vec<T> {
    let layout = std::alloc::Layout::array::<T>(n).expect("cache geometry overflows a Layout");
    if layout.size() == 0 {
        return Vec::new();
    }
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout).cast::<T>();
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, n, n)
    }
}

/// State of one cache line (coherence state + TUS extensions). The tag
/// and the payload live in arrays parallel to these records inside
/// [`CacheArray`]: a lookup scans 8-byte tags, and the record and payload
/// are touched only once a way is found.
#[derive(Debug, Clone)]
pub struct CacheLineState {
    /// Coherence permission actually held for the line.
    pub state: Mesi,
    /// Dirty with respect to the next level (write-back).
    pub dirty: bool,
    /// TUS: the line holds unauthorized store data not visible to the
    /// coherence protocol (the paper's *not visible* bit, inverted name).
    pub unauth: bool,
    /// TUS: write permission acquired and data combined with memory.
    pub ready: bool,
    /// TUS: the non-written bytes of the line are valid (a base copy was
    /// present when the unauthorized write happened). When true, a
    /// permission-only upgrade completes the line without a data transfer.
    pub base_valid: bool,
    /// TUS: which bytes hold locally written (unauthorized) data.
    pub mask: ByteMask,
    /// Transient: a fill for this way is outstanding; the way cannot be
    /// used or evicted.
    pub locked: bool,
    /// Cycle at which the last coherence grant installed/upgraded this
    /// line (external requests arriving within a few cycles of a grant
    /// are deferred so the local drain can perform at least one write —
    /// the minimal fairness window real cores provide).
    pub granted_at: tus_sim::Cycle,
    lru: u64,
}

impl CacheLineState {
    /// Only referenced by the debug-build check in [`CacheArray::new`] that
    /// the all-zero bit pattern really is the empty state.
    #[cfg(debug_assertions)]
    fn empty() -> Self {
        CacheLineState {
            state: Mesi::Invalid,
            dirty: false,
            unauth: false,
            ready: false,
            base_valid: false,
            mask: ByteMask::EMPTY,
            locked: false,
            granted_at: tus_sim::Cycle::ZERO,
            lru: 0,
        }
    }

    /// Whether the way holds anything (coherent copy, unauthorized data or
    /// an in-flight fill).
    pub fn occupied(&self) -> bool {
        self.state != Mesi::Invalid || self.unauth || self.locked
    }

    /// Whether this way may be chosen as an eviction victim.
    pub fn evictable(&self) -> bool {
        !self.unauth && !self.locked
    }

    /// Resets the way's metadata to empty. Callers almost always want
    /// [`CacheArray::clear_way`], which also zeroes the payload. The way's
    /// tag is left as it was; it means nothing while the way is empty.
    pub fn clear(&mut self) {
        self.state = Mesi::Invalid;
        self.dirty = false;
        self.unauth = false;
        self.ready = false;
        self.base_valid = false;
        self.mask = ByteMask::EMPTY;
        self.locked = false;
        self.granted_at = tus_sim::Cycle::ZERO;
    }
}

/// A set-associative cache array with LRU replacement.
///
/// # Example
///
/// ```
/// use tus_mem::CacheArray;
/// use tus_sim::LineAddr;
///
/// let mut c = CacheArray::new(4, 2);
/// assert_eq!(c.sets(), 4);
/// let (set, way) = c.allocate(LineAddr::new(0x10)).expect("empty set has room");
/// c.way_mut(set, way).state = tus_mem::Mesi::Shared;
/// assert!(c.lookup(LineAddr::new(0x10)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    /// The line each way holds, parallel to `lines`. A tag is meaningful
    /// only while its way is occupied: clearing a way leaves it stale.
    tags: Vec<LineAddr>,
    lines: Vec<CacheLineState>,
    /// Line payloads, parallel to `lines` (structure-of-arrays split).
    data: Vec<LineData>,
    tick: u64,
}

impl CacheArray {
    /// Creates an array with `sets` sets (power of two) and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        assert!(ways > 0, "ways must be positive");
        // Building the backing store element by element dominated short
        // runs, so ask the allocator for zeroed memory (see
        // [`zeroed_vec`] for when that is page mapping and when it is a
        // clear).
        //
        // SAFETY: the empty way is all-zero bytes — `Mesi::Invalid` is
        // pinned to discriminant 0 (`repr(u8)`), the cycle/mask newtypes
        // are plain `u64`s, and the rest are `bool`s and a `u64`.
        let n = sets * ways;
        let lines: Vec<CacheLineState> = unsafe { zeroed_vec(n) };
        // SAFETY: `LineAddr` is a plain `u64`.
        let tags: Vec<LineAddr> = unsafe { zeroed_vec(n) };
        // SAFETY: all-zero is trivially valid for a byte array.
        let data: Vec<LineData> = unsafe { zeroed_vec(n) };
        #[cfg(debug_assertions)]
        {
            let z = &lines[0];
            let e = CacheLineState::empty();
            debug_assert!(
                z.state == e.state
                    && !z.dirty
                    && !z.unauth
                    && !z.ready
                    && !z.base_valid
                    && z.mask == e.mask
                    && !z.locked
                    && z.granted_at == e.granted_at
                    && z.lru == e.lru,
                "zeroed CacheLineState is not the empty state"
            );
        }
        CacheArray {
            sets,
            ways,
            tags,
            lines,
            data,
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Set index for a line address.
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(set < self.sets && way < self.ways);
        set * self.ways + way
    }

    /// The line `(set, way)` holds (meaningless if the way is empty).
    pub fn line_at(&self, set: usize, way: usize) -> LineAddr {
        self.tags[self.idx(set, way)]
    }

    /// Immutable access to a way.
    pub fn way(&self, set: usize, way: usize) -> &CacheLineState {
        &self.lines[self.idx(set, way)]
    }

    /// Mutable access to a way.
    pub fn way_mut(&mut self, set: usize, way: usize) -> &mut CacheLineState {
        let i = self.idx(set, way);
        &mut self.lines[i]
    }

    /// The payload of a way.
    pub fn data(&self, set: usize, way: usize) -> &LineData {
        &self.data[self.idx(set, way)]
    }

    /// Mutable payload of a way.
    pub fn data_mut(&mut self, set: usize, way: usize) -> &mut LineData {
        let i = self.idx(set, way);
        &mut self.data[i]
    }

    /// Metadata and payload of a way, mutably, in one borrow.
    pub fn way_and_data_mut(
        &mut self,
        set: usize,
        way: usize,
    ) -> (&mut CacheLineState, &mut LineData) {
        let i = self.idx(set, way);
        (&mut self.lines[i], &mut self.data[i])
    }

    /// Resets a way to empty: metadata cleared and payload zeroed.
    pub fn clear_way(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.lines[i].clear();
        self.data[i] = [0u8; tus_sim::LINE_BYTES];
    }

    /// Finds the way holding `line` (occupied ways only). Does not update
    /// LRU — use [`CacheArray::touch`] on an actual access.
    pub fn lookup(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let base = set * self.ways;
        // Compare tags first: a record is read only on a tag match, which
        // may be the stale tag of an emptied way.
        self.tags[base..base + self.ways]
            .iter()
            .zip(&self.lines[base..base + self.ways])
            .position(|(&t, l)| t == line && l.occupied())
            .map(|way| (set, way))
    }

    /// LRU stamp of a way (higher = more recently used), for callers that
    /// implement filtered victim selection.
    pub fn lru_stamp(&self, set: usize, way: usize) -> u64 {
        self.way(set, way).lru
    }

    /// Marks `(set, way)` as most recently used.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let t = self.tick;
        self.way_mut(set, way).lru = t;
    }

    /// Finds a way to hold `line`: an invalid way if available, otherwise
    /// the LRU *evictable* way. Returns `None` when every way is pinned
    /// (locked or unauthorized).
    ///
    /// The returned way may still hold a valid victim; the caller must
    /// handle the eviction (write-back, coherence notification) before
    /// overwriting it. This is intentional — see C-INTERMEDIATE.
    pub fn victim(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        // Prefer an unoccupied way.
        for way in 0..self.ways {
            if !self.way(set, way).occupied() {
                return Some((set, way));
            }
        }
        // Otherwise evict the least recently used evictable way.
        let mut best: Option<(usize, u64)> = None;
        for way in 0..self.ways {
            let l = self.way(set, way);
            if l.evictable() && best.is_none_or(|(_, lru)| l.lru < lru) {
                best = Some((way, l.lru));
            }
        }
        best.map(|(way, _)| (set, way))
    }

    /// Empties `(set, way)`, tags it with `line` and marks it most
    /// recently used, ready for the caller to fill. The caller must have
    /// handled the way's previous occupant first.
    pub fn install(&mut self, set: usize, way: usize, line: LineAddr) {
        self.clear_way(set, way);
        let i = self.idx(set, way);
        self.tags[i] = line;
        self.touch(set, way);
    }

    /// Convenience: [`CacheArray::victim`] then [`CacheArray::install`],
    /// returning the coordinates. The way's previous occupant, if any, is
    /// dropped without a write-back.
    pub fn allocate(&mut self, line: LineAddr) -> Option<(usize, usize)> {
        let (set, way) = self.victim(line)?;
        self.install(set, way, line);
        Some((set, way))
    }

    /// Number of ways in `line`'s set that can currently be (re)allocated:
    /// unoccupied ways plus evictable occupied ways.
    pub fn free_or_evictable_ways(&self, line: LineAddr) -> usize {
        let set = self.set_of(line);
        (0..self.ways)
            .filter(|&w| {
                let l = self.way(set, w);
                !l.occupied() || l.evictable()
            })
            .count()
    }

    /// Iterates over all occupied lines as `(set, way, line, &state)`.
    pub fn iter_occupied(&self) -> impl Iterator<Item = (usize, usize, LineAddr, &CacheLineState)> {
        self.lines.iter().enumerate().filter_map(move |(i, l)| {
            if l.occupied() {
                Some((i / self.ways, i % self.ways, self.tags[i], l))
            } else {
                None
            }
        })
    }

    /// Counts occupied ways (for occupancy statistics and tests).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.occupied()).count()
    }
}

/// Tag-split set-associative array for the very large shared L3.
///
/// The directory's L3 only ever needs four operations — lookup, LRU
/// touch, payload access and allocate-with-LRU-eviction — and its lines
/// carry no per-line coherence metadata (a resident line is always a
/// clean `Shared` copy of memory; `unauth`/`locked`/`dirty` never apply,
/// so every occupied way is evictable). [`CacheArray`] pays for that
/// generality on every probe: a 16-way set drags sixteen ~48-byte
/// [`CacheLineState`] records (≈12 host cache lines, almost always cold
/// at L3 footprints) through the scan loop. Here the scan state is one
/// packed tag word per way — a 16-way set is 128 bytes, two host lines —
/// and the LRU stamps and payloads live in parallel arrays that are only
/// touched on a hit or an eviction decision.
///
/// Storage is per set and made on first use: a set gets its block of
/// `ways` tags, stamps and payloads on the first [`L3Cache::insert`]
/// into it, and a lookup on a set that was never filled misses. A
/// litmus program touches a handful of lines, so its machine pays for a
/// handful of blocks plus one `u32` per set, not for the whole capacity.
///
/// Victim selection reproduces [`CacheArray::victim`] exactly for the
/// all-evictable case (first empty way, else the first way with the
/// strictly-lowest LRU stamp), and the stamp stream is the same
/// one-counter-per-array sequence, so swapping the directory's L3 from
/// `CacheArray` to `L3Cache` is statistically invisible: identical hits,
/// identical victims, identical grants, bit-identical results.
pub struct L3Cache {
    sets: usize,
    ways: usize,
    /// Per set: `1 +` the index of its block, `0` = never filled.
    block: Vec<u32>,
    /// `line.raw() + 1` per way of every block; `0` = empty.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags` (higher = more recently used).
    lru: Vec<u64>,
    /// Line payloads, parallel to `tags`.
    data: Vec<LineData>,
    tick: u64,
}

impl std::fmt::Debug for L3Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L3Cache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("touches", &self.tick)
            .finish()
    }
}

impl L3Cache {
    /// Creates an array with `sets` sets (power of two) and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        assert!(ways > 0, "ways must be positive");
        L3Cache {
            sets,
            ways,
            block: vec![0; sets],
            tags: Vec::new(),
            lru: Vec::new(),
            data: Vec::new(),
            tick: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets - 1)
    }

    /// Index of way 0 of `set`'s block, or `None` if the set was never
    /// filled.
    fn base(&self, set: usize) -> Option<usize> {
        let b = self.block[set] as usize;
        (b != 0).then(|| (b - 1) * self.ways)
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.ways);
        self.base(set).expect("way of a set that was never filled") + way
    }

    /// Finds the way holding `line`. Does not update LRU — use
    /// [`L3Cache::touch`] on an actual access.
    pub fn lookup(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let base = self.base(set)?;
        let tag = line.raw() + 1;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| (set, way))
    }

    /// Marks `(set, way)` as most recently used.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        let t = self.tick;
        let i = self.idx(set, way);
        self.lru[i] = t;
    }

    /// The payload of a way.
    pub fn data(&self, set: usize, way: usize) -> &LineData {
        &self.data[self.idx(set, way)]
    }

    /// Mutable payload of a way.
    pub fn data_mut(&mut self, set: usize, way: usize) -> &mut LineData {
        let i = self.idx(set, way);
        &mut self.data[i]
    }

    /// Installs `line` in its set — the first empty way, else evicting
    /// the least-recently-used one (ties broken towards the lowest way,
    /// as in [`CacheArray::victim`]) — marks it most recently used and
    /// returns its coordinates. The payload is *not* cleared; the caller
    /// overwrites it in full.
    pub fn insert(&mut self, line: LineAddr) -> (usize, usize) {
        let set = self.set_of(line);
        let base = match self.base(set) {
            Some(base) => base,
            None => {
                // First fill of this set: append an empty block.
                let base = self.tags.len();
                self.block[set] =
                    u32::try_from(base / self.ways + 1).expect("an L3 has under 2^32 sets");
                let end = base + self.ways;
                self.tags.resize(end, 0);
                self.lru.resize(end, 0);
                self.data.resize(end, [0; tus_sim::LINE_BYTES]);
                base
            }
        };
        let ts = &self.tags[base..base + self.ways];
        let way = match ts.iter().position(|&t| t == 0) {
            Some(way) => way,
            None => {
                let mut best = (0, self.lru[base]);
                for (way, &stamp) in self.lru[base..base + self.ways].iter().enumerate().skip(1) {
                    if stamp < best.1 {
                        best = (way, stamp);
                    }
                }
                best.0
            }
        };
        self.tags[base + way] = line.raw() + 1;
        self.touch(set, way);
        (set, way)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(c: &mut CacheArray, line: u64, state: Mesi) -> (usize, usize) {
        let (s, w) = c.allocate(LineAddr::new(line)).expect("room");
        c.way_mut(s, w).state = state;
        (s, w)
    }

    #[test]
    fn lookup_hits_only_same_line() {
        let mut c = CacheArray::new(4, 2);
        filled(&mut c, 0x10, Mesi::Shared);
        assert!(c.lookup(LineAddr::new(0x10)).is_some());
        assert!(c.lookup(LineAddr::new(0x14)).is_none()); // same set (0x10 & 3 == 0x14 & 3)
        assert!(c.lookup(LineAddr::new(0x11)).is_none());
    }

    #[test]
    fn set_mapping() {
        let c = CacheArray::new(8, 1);
        assert_eq!(c.set_of(LineAddr::new(0)), 0);
        assert_eq!(c.set_of(LineAddr::new(7)), 7);
        assert_eq!(c.set_of(LineAddr::new(8)), 0);
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut c = CacheArray::new(1, 2);
        let (s0, w0) = filled(&mut c, 0, Mesi::Shared);
        let (_s1, w1) = filled(&mut c, 1, Mesi::Shared);
        // Touch way0 so way1 is LRU.
        c.touch(s0, w0);
        let (_, v) = c.victim(LineAddr::new(2)).expect("victim");
        assert_eq!(v, w1);
    }

    #[test]
    fn unauth_and_locked_never_victims() {
        let mut c = CacheArray::new(1, 2);
        let (s, w0) = filled(&mut c, 0, Mesi::Modified);
        let (_, w1) = filled(&mut c, 1, Mesi::Modified);
        c.way_mut(s, w0).unauth = true;
        c.way_mut(s, w1).locked = true;
        assert!(c.victim(LineAddr::new(2)).is_none());
        assert_eq!(c.free_or_evictable_ways(LineAddr::new(2)), 0);
        c.way_mut(s, w1).locked = false;
        assert_eq!(c.victim(LineAddr::new(2)), Some((s, w1)));
        assert_eq!(c.free_or_evictable_ways(LineAddr::new(2)), 1);
    }

    #[test]
    fn allocate_prefers_empty_way() {
        let mut c = CacheArray::new(1, 4);
        filled(&mut c, 0, Mesi::Shared);
        let (_, w) = c.allocate(LineAddr::new(1)).expect("room");
        assert_ne!(w, 0, "should pick an empty way, not evict");
        assert_eq!(c.occupancy(), 1); // allocate cleared the way; caller sets state
    }

    #[test]
    fn unauth_line_counts_as_occupied() {
        let mut c = CacheArray::new(1, 1);
        let (s, w) = c.allocate(LineAddr::new(5)).expect("room");
        let l = c.way_mut(s, w);
        l.unauth = true; // state stays Invalid (e.g. relinquished line)
        assert!(c.lookup(LineAddr::new(5)).is_some());
        assert!(c.victim(LineAddr::new(9)).is_none());
    }

    #[test]
    fn iter_occupied_reports_coordinates() {
        let mut c = CacheArray::new(2, 2);
        filled(&mut c, 0, Mesi::Shared);
        filled(&mut c, 1, Mesi::Modified);
        let v: Vec<_> = c.iter_occupied().map(|(s, w, l, _)| (s, w, l)).collect();
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|&(s, _, l)| s == 0 && l == LineAddr::new(0)));
        assert!(v.iter().any(|&(s, _, l)| s == 1 && l == LineAddr::new(1)));
    }

    /// One way of the naive model: tag and record in one struct, so a
    /// lookup is a plain scan. Emptying a way keeps its tag, as in
    /// [`CacheArray`].
    #[derive(Clone, Copy, Default)]
    struct ModelWay {
        tag: u64,
        state: Mesi,
        unauth: bool,
        locked: bool,
        lru: u64,
    }

    impl ModelWay {
        fn occupied(&self) -> bool {
            self.state != Mesi::Invalid || self.unauth || self.locked
        }
        fn evictable(&self) -> bool {
            !self.unauth && !self.locked
        }
    }

    /// A seeded random mix of allocations, installs, both kinds of
    /// clear, state/unauth/locked flips and touches, checked after every
    /// step against plain scans over a naive model. Clears leave stale
    /// tags behind, which lookup must skip, and unauth flips on Invalid
    /// ways make unauth-only occupants, which lookup must find.
    #[test]
    fn matches_a_naive_model() {
        let (sets, ways) = (4, 4);
        let mut c = CacheArray::new(sets, ways);
        let mut m = vec![ModelWay::default(); sets * ways];
        let mut tick = 0u64;
        let mut rng = 0x7a6_5eed_u64;
        let mut bits = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let model_victim = |m: &[ModelWay], set: usize| {
            let ws = &m[set * ways..(set + 1) * ways];
            if let Some(w) = ws.iter().position(|l| !l.occupied()) {
                return Some(w);
            }
            let mut best: Option<(usize, u64)> = None;
            for (w, l) in ws.iter().enumerate() {
                if l.evictable() && best.is_none_or(|(_, lru)| l.lru < lru) {
                    best = Some((w, l.lru));
                }
            }
            best.map(|(w, _)| w)
        };
        for step in 0..20_000 {
            let line = bits() % 32;
            let set = (line as usize) % sets;
            let way = (bits() as usize) % ways;
            let i = set * ways + way;
            match bits() % 9 {
                0 => {
                    let got = c.allocate(LineAddr::new(line));
                    let want = model_victim(&m, set).map(|w| {
                        tick += 1;
                        m[set * ways + w] = ModelWay {
                            tag: line,
                            lru: tick,
                            ..ModelWay::default()
                        };
                        (set, w)
                    });
                    assert_eq!(got, want, "step {step}: allocate {line}");
                }
                1 => {
                    c.install(set, way, LineAddr::new(line));
                    tick += 1;
                    m[i] = ModelWay {
                        tag: line,
                        lru: tick,
                        ..ModelWay::default()
                    };
                }
                2 | 3 => {
                    if step % 2 == 0 {
                        c.clear_way(set, way);
                    } else {
                        c.way_mut(set, way).clear();
                    }
                    m[i] = ModelWay {
                        tag: m[i].tag,
                        lru: m[i].lru,
                        ..ModelWay::default()
                    };
                }
                4 => {
                    let st = [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive, Mesi::Modified]
                        [(bits() % 4) as usize];
                    c.way_mut(set, way).state = st;
                    m[i].state = st;
                }
                5 => {
                    let on = bits() % 2 == 0;
                    c.way_mut(set, way).unauth = on;
                    m[i].unauth = on;
                }
                6 => {
                    let on = bits() % 3 == 0;
                    c.way_mut(set, way).locked = on;
                    m[i].locked = on;
                }
                _ => {
                    c.touch(set, way);
                    tick += 1;
                    m[i].lru = tick;
                }
            }
            for probe in 0..32u64 {
                let p = LineAddr::new(probe);
                let ps = (probe as usize) % sets;
                let want = m[ps * ways..(ps + 1) * ways]
                    .iter()
                    .position(|l| l.occupied() && l.tag == probe)
                    .map(|w| (ps, w));
                assert_eq!(c.lookup(p), want, "step {step}: lookup {probe}");
                assert_eq!(
                    c.victim(p),
                    model_victim(&m, ps).map(|w| (ps, w)),
                    "step {step}: victim {probe}"
                );
                let free = m[ps * ways..(ps + 1) * ways]
                    .iter()
                    .filter(|l| !l.occupied() || l.evictable())
                    .count();
                assert_eq!(c.free_or_evictable_ways(p), free, "step {step}: free ways");
            }
            let got: Vec<_> = c
                .iter_occupied()
                .map(|(s, w, l, st)| (s, w, l.raw(), st.state, st.unauth, st.locked))
                .collect();
            let want: Vec<_> = m
                .iter()
                .enumerate()
                .filter(|(_, l)| l.occupied())
                .map(|(i, l)| (i / ways, i % ways, l.tag, l.state, l.unauth, l.locked))
                .collect();
            assert_eq!(got, want, "step {step}: occupied ways");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheArray::new(3, 1);
    }

    /// Replays the directory's exact L3 usage pattern (lookup-hit →
    /// touch+overwrite, miss → allocate+fill, interleaved with read
    /// probes) against both arrays and demands identical coordinates and
    /// payloads at every step — the bit-equivalence argument for swapping
    /// the directory's L3 to [`L3Cache`]. Two inputs: a dense one whose
    /// sets all fill and thrash, and a sparse one (256 sets, 4 ways)
    /// whose fills stay in 16 sets, 8 lines each, while probes range over
    /// 64 sets — so most probes land on sets that were never filled, and
    /// every first insert into a set is checked against `CacheArray`.
    #[test]
    fn l3cache_matches_cachearray_decisions() {
        // (sets, ways, line-address mask of fills, of probes)
        for (sets, ways, fill_mask, probe_mask) in [(8, 4, 0x3f, 0x3f), (256, 4, 0x70f, 0x73f)] {
            let mut a = CacheArray::new(sets, ways);
            let mut b = L3Cache::new(sets, ways);
            let mut rng = 0x5eed_cafe_u64;
            let mut bits = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for step in 0..4000 {
                let r = bits();
                if bits() % 2 == 0 {
                    // fill_l3(line, data)
                    let line = LineAddr::new(r & fill_mask);
                    let data = [(step % 251) as u8; tus_sim::LINE_BYTES];
                    let at_a = match a.lookup(line) {
                        Some((s, w)) => {
                            *a.data_mut(s, w) = data;
                            a.touch(s, w);
                            (s, w)
                        }
                        None => {
                            let (s, w) = a.allocate(line).expect("all ways evictable");
                            let (l, d) = a.way_and_data_mut(s, w);
                            l.state = Mesi::Shared;
                            *d = data;
                            (s, w)
                        }
                    };
                    let at_b = match b.lookup(line) {
                        Some((s, w)) => {
                            *b.data_mut(s, w) = data;
                            b.touch(s, w);
                            (s, w)
                        }
                        None => b.insert(line),
                    };
                    *b.data_mut(at_b.0, at_b.1) = data;
                    assert_eq!(at_a, at_b, "{sets} sets, step {step}: placement diverged");
                } else {
                    // fetch_then_grant's probe: hit → touch + read payload.
                    let line = LineAddr::new(r & probe_mask);
                    let got_a = a.lookup(line);
                    let got_b = b.lookup(line);
                    assert_eq!(got_a, got_b, "{sets} sets, step {step}: hit/miss diverged");
                    if let (Some((s, w)), Some(_)) = (got_a, got_b) {
                        a.touch(s, w);
                        b.touch(s, w);
                        assert_eq!(
                            a.data(s, w),
                            b.data(s, w),
                            "{sets} sets, step {step}: payload diverged"
                        );
                    }
                }
            }
        }
    }
}
