//! The Pattern Analyzer: cutting windows, α/β locality factors, and the
//! migration index (`mIndex`) — Section 3.3 of the paper.
//!
//! Instead of the heat counter, Lunule assigns every subtree a *migration
//! index* predicting its future load:
//!
//! ```text
//! mIndex = α · l_t + β · l_s        (Eq. 4)
//! ```
//!
//! where, over the most recent *cutting windows* (we use one window per
//! epoch):
//! * `α` — temporal-locality inclination: the fraction of visits that were
//!   *recurrent* (the inode had already been visited in a recent window);
//! * `l_t` — the number of visits concentrated on the subtree;
//! * `β` — spatial-locality inclination: the ratio of still-unvisited inodes
//!   to recent visits (large when most of the subtree has never been
//!   touched, i.e. a scan has not reached it or is mid-flight);
//! * `l_s` — the number of *first* visits, plus probabilistic bumps from
//!   sibling subtrees (scans move between siblings, so a heavily
//!   first-visited directory predicts load on its neighbours).
//!
//! For a Zipfian workload α→1 and mIndex ≈ recent visit counts (classic
//! hotness); for a scan workload α→0, β ≫ 1 and mIndex ≈ the number of
//! unvisited inodes — exactly the "ship the unread part of the dataset
//! elsewhere" behaviour the paper credits for the CNN/NLP wins.

use lunule_namespace::{InodeId, Namespace};
use lunule_util::convert::{
    u32_to_usize, u64_to_f64, u64_to_usize, usize_to_f64, usize_to_u32, usize_to_u64,
};
use lunule_util::intern::PagedMap;

/// Number of cutting windows the per-inode visit mask can remember.
const MASK_BITS: u32 = 64;

/// `N`: number of recent cutting windows aggregated into `l_t`, `l_s`, α
/// and β.
pub const RECENT_WINDOWS: usize = 4;

/// How many windows back a repeat visit still counts as *recurrent*.
const RECURRENCE_LOOKBACK: u32 = 8;

/// RNG seed for the sibling propagation choice.
const SIBLING_SEED: u64 = 0x5EED_1A7E;

const _: () = assert!(
    RECURRENCE_LOOKBACK >= 1 && RECURRENCE_LOOKBACK < MASK_BITS,
    "recurrence lookback must fit the visit mask"
);

/// Configuration of the pattern analyzer.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerConfig {
    /// Probability of propagating a first visit to a sibling subtree's
    /// `l_s` (the paper's "select one of its sibling subtrees with a certain
    /// probability").
    pub sibling_probability: f64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            sibling_probability: 0.5,
        }
    }
}

/// Per-inode visit state: a lazily shifted window bitmask.
///
/// Bit 0 of `mask` is "visited in window `last_window`", bit `k` is "visited
/// `k` windows before that". Shifting happens on touch, so idle inodes cost
/// nothing per epoch — the paper's "boolean queue of n length" per inode,
/// packed into a word.
#[derive(Clone, Copy, Debug, Default)]
struct InodeVisits {
    last_window: u64,
    mask: u64,
    ever_visited: bool,
}

/// Per-window counters of one directory.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct WindowCounters {
    visits: u32,
    recurrent: u32,
    first_visits: u32,
    sibling_bumps: u32,
}

/// Sliding statistics of one directory over the last [`RECENT_WINDOWS`]
/// windows.
#[derive(Clone, Debug)]
struct DirStats {
    id: InodeId,
    /// Per-window counters; `ring[cursor]` is the current window.
    ring: [WindowCounters; RECENT_WINDOWS],
    cursor: usize,
    /// Window index the cursor corresponds to.
    window: u64,
    /// Direct children when first observed, plus creates.
    total_inodes: u64,
    /// How many of those have ever been visited.
    visited_ever: u64,
}

impl DirStats {
    /// Rotates the ring forward to `window`, zeroing skipped positions.
    fn roll_to(&mut self, window: u64) {
        let gap = window.saturating_sub(self.window);
        if gap == 0 {
            return;
        }
        for _ in 0..gap.min(usize_to_u64(RECENT_WINDOWS)) {
            self.cursor = (self.cursor + 1) % RECENT_WINDOWS;
            self.ring[self.cursor] = WindowCounters::default();
        }
        self.window = window;
    }

    /// The current-window counters.
    fn current_mut(&mut self) -> &mut WindowCounters {
        &mut self.ring[self.cursor]
    }

    /// Sums the counters of the ring positions still inside the window
    /// span *as of* `current` (the analyzer's window). A directory idle
    /// since its last touch has `window < current`; its older positions
    /// age out without the ring being rolled, so its statistics decay to
    /// zero naturally.
    fn sums_at(&self, current: u64) -> (u64, u64, u64) {
        let n = usize_to_u64(RECENT_WINDOWS);
        let base_age = current.saturating_sub(self.window);
        let mut visits = 0u64;
        let mut recurrent = 0u64;
        let mut spatial = 0u64;
        for back in 0..n {
            if base_age + back >= n {
                break;
            }
            let idx = (self.cursor + RECENT_WINDOWS - u64_to_usize(back)) % RECENT_WINDOWS;
            let w = &self.ring[idx];
            visits += u64::from(w.visits);
            recurrent += u64::from(w.recurrent);
            spatial += u64::from(w.first_visits + w.sibling_bumps);
        }
        (visits, recurrent, spatial)
    }
}

/// The locality factors and migration index of one directory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationIndex {
    /// Temporal-locality inclination in `[0, 1]`.
    pub alpha: f64,
    /// Spatial-locality inclination (unbounded above).
    pub beta: f64,
    /// Predicted temporal load: visits over the recent windows.
    pub l_t: f64,
    /// Predicted spatial load: first visits + sibling bumps.
    pub l_s: f64,
}

impl MigrationIndex {
    /// Eq. 4: `mIndex = α·l_t + β·l_s`, with the spatial term additionally
    /// weighted by the *non-temporal inclination* `(1 - α)`.
    ///
    /// The paper introduces α and β as "impact factors … indicating the
    /// inclination of the recent workloads on subtrees to either of the two
    /// access patterns". β alone is a ratio of unvisited inodes to recent
    /// visits and can exceed 1 by a large margin *during the warm-up of a
    /// temporal workload* (most files still unvisited, few visits yet) —
    /// which would let the spatial term dominate exactly where it predicts
    /// nothing. Scaling it by `1 - α` makes the two terms a proper
    /// arbitration: pure scans (α = 0) keep the full unvisited-remainder
    /// signal, pure re-access patterns (α → 1) reduce to recent-visit
    /// hotness.
    pub fn value(&self) -> f64 {
        self.alpha * self.l_t + (1.0 - self.alpha) * self.beta * self.l_s
    }
}

/// The Pattern Analyzer deployed on every MDS (here: one per cluster, keyed
/// by directory — equivalent because directories never share MDSs).
#[derive(Clone, Debug)]
pub struct PatternAnalyzer {
    cfg: AnalyzerConfig,
    window: u64,
    inodes: Vec<InodeVisits>,
    /// Per-directory statistics in first-sight order. Records never move
    /// (the analyzer has no eviction), so `dir_index` maps an inode index
    /// to its record position for good.
    dirs: Vec<DirStats>,
    dir_index: PagedMap,
    rng_state: u64,
}

impl PatternAnalyzer {
    /// Creates an analyzer starting at window 0.
    pub fn new(cfg: AnalyzerConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.sibling_probability),
            "sibling probability must be in [0, 1]"
        );
        PatternAnalyzer {
            cfg,
            window: 0,
            inodes: Vec::new(),
            dirs: Vec::new(),
            dir_index: PagedMap::new(),
            rng_state: SIBLING_SEED | 1,
        }
    }

    /// Current cutting-window index.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Advances to the next cutting window (call once per epoch).
    pub fn advance_window(&mut self) {
        self.window += 1;
    }

    /// xorshift64* — cheap deterministic coin for sibling propagation.
    #[expect(
        clippy::cast_precision_loss,
        reason = "the top 53 bits of a u64 are exact in f64; 2^53 likewise"
    )]
    fn next_coin(&mut self) -> f64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `ino`'s visit record, extending the table to cover it. The table's
    /// first allocation holds every inode of the namespace (`ns_len`), and
    /// later ones at least double it. Grown only to the highest id seen so
    /// far, the table would pass through a chain of ever larger copies as
    /// accesses reach higher ids, leaving the heap holed with their freed
    /// blocks; how much of that stays resident depends on what else the
    /// allocator placed around them.
    fn inode_state(&mut self, ino: InodeId, ns_len: usize) -> &mut InodeVisits {
        let idx = ino.index();
        if idx >= self.inodes.len() {
            if idx >= self.inodes.capacity() {
                self.inodes.reserve(ns_len.max(idx + 1) - self.inodes.len());
            }
            self.inodes.resize_with(idx + 1, InodeVisits::default);
        }
        &mut self.inodes[idx]
    }

    /// The record position of `dir`, if it was ever observed.
    fn dir_pos(&self, dir: InodeId) -> Option<usize> {
        self.dir_index.get(dir.index()).map(u32_to_usize)
    }

    /// `dir`'s statistics rolled to the current window, allocating them on
    /// first sight (population snapshotted from the namespace at that
    /// moment).
    fn dir_stats(&mut self, ns: &Namespace, dir: InodeId) -> &mut DirStats {
        let window = self.window;
        let pos = match self.dir_pos(dir) {
            Some(pos) => pos,
            None => {
                let pos = self.dirs.len();
                self.dirs.push(DirStats {
                    id: dir,
                    ring: [WindowCounters::default(); RECENT_WINDOWS],
                    cursor: 0,
                    window,
                    total_inodes: usize_to_u64(ns.inode(dir).children().len()),
                    visited_ever: 0,
                });
                self.dir_index.set(dir.index(), usize_to_u32(pos));
                pos
            }
        };
        let stats = &mut self.dirs[pos];
        stats.roll_to(window);
        stats
    }

    /// Records one metadata access to `ino`. `is_create` marks a freshly
    /// created inode (it grows its directory's total and counts as a first
    /// visit by definition).
    pub fn record_access(&mut self, ns: &Namespace, ino: InodeId, is_create: bool) {
        self.record_access_inner(ns, ino, is_create);
    }

    /// Records `n` identical accesses to `ino` in one call, bit-identically
    /// to `n` sequential [`PatternAnalyzer::record_access`] calls.
    ///
    /// Exactness argument: after the first access of a window, the inode's
    /// visit mask has bit 0 set, so repeats in the same window see the same
    /// `recurrent` verdict (the mask shifted right by one is unchanged by
    /// setting bit 0), are never `first_ever` (no sibling coin is drawn, so
    /// the RNG position matches the sequential run), and only bump the
    /// directory's integer visit counters — which add associatively.
    pub fn record_access_n(&mut self, ns: &Namespace, ino: InodeId, is_create: bool, n: u64) {
        if n == 0 {
            return;
        }
        let recurrent = self.record_access_inner(ns, ino, is_create);
        if n == 1 {
            return;
        }
        debug_assert!(
            !is_create,
            "batched accesses are reads; creates touch distinct inodes"
        );
        let dir = ns.inode(ino).parent().unwrap_or(ino);
        let cur = self.dir_stats(ns, dir).current_mut();
        // Window counters are u32; a cohort run is bounded by the client
        // count, which the simulator caps far below u32::MAX. Saturate
        // rather than abort if that ever stops holding.
        let extra = u32::try_from(n - 1).unwrap_or_else(|_| {
            debug_assert!(false, "batched access count exceeds u32");
            u32::MAX
        });
        cur.visits += extra;
        if recurrent {
            cur.recurrent += extra;
        }
    }

    /// Loads the visit record of each of `inos` without changing it, so
    /// that a caller about to record accesses to many inodes can overlap
    /// their cache misses in one loop. Ids beyond the table are skipped:
    /// the table never grows here.
    pub fn prefetch(&self, inos: &[InodeId]) {
        let mut loaded = 0u64;
        for ino in inos {
            if let Some(st) = self.inodes.get(ino.index()) {
                loaded ^= st.mask;
            }
        }
        std::hint::black_box(loaded);
    }

    /// Shared body of the single- and batched-access recorders; returns
    /// whether this access counted as recurrent (repeats within the same
    /// window share the verdict).
    fn record_access_inner(&mut self, ns: &Namespace, ino: InodeId, is_create: bool) -> bool {
        let window = self.window;

        // -- per-inode visit mask ------------------------------------------
        let st = self.inode_state(ino, ns.len());
        let gap = window - st.last_window;
        if gap > 0 {
            st.mask = if gap >= u64::from(MASK_BITS) {
                0
            } else {
                st.mask << gap
            };
            st.last_window = window;
        }
        let recurrent = (st.mask >> 1) & ((1u64 << RECURRENCE_LOOKBACK) - 1) != 0;
        let first_ever = !st.ever_visited;
        st.mask |= 1;
        st.ever_visited = true;

        // -- per-directory window counters ---------------------------------
        let dir = ns.inode(ino).parent().unwrap_or(ino);
        // A create grows the directory's population. Note: `dir_stats`
        // snapshots children().len() on first sight, which at that moment
        // already includes this create; only bump for dirs seen before.
        let known_dir = self.dir_pos(dir).is_some();
        let stats = self.dir_stats(ns, dir);
        if is_create && known_dir {
            stats.total_inodes += 1;
        }
        if first_ever {
            stats.visited_ever += 1;
        }
        let cur = stats.current_mut();
        cur.visits += 1;
        if recurrent {
            cur.recurrent += 1;
        }
        if first_ever {
            cur.first_visits += 1;
        }

        // -- sibling propagation -------------------------------------------
        if first_ever && self.cfg.sibling_probability > 0.0 {
            let coin = self.next_coin();
            if coin < self.cfg.sibling_probability {
                if let Some(sib) = next_sibling_dir(ns, dir) {
                    self.dir_stats(ns, sib).current_mut().sibling_bumps += 1;
                }
            }
        }
        recurrent
    }

    /// The locality factors of `dir` over the recent windows, or `None` if
    /// the directory has never been observed.
    ///
    /// `l_t` and `l_s` are normalised to *per-window* rates so the
    /// resulting mIndex is directly comparable with the per-epoch request
    /// amounts Algorithm 1 hands to the subtree selector (one cutting
    /// window per epoch).
    pub fn index_of(&self, dir: InodeId) -> Option<MigrationIndex> {
        let stats = &self.dirs[self.dir_pos(dir)?];
        let (visits, recurrent, spatial) = stats.sums_at(self.window);
        let alpha = if visits == 0 {
            0.0
        } else {
            u64_to_f64(recurrent) / u64_to_f64(visits)
        };
        let unvisited = stats.total_inodes.saturating_sub(stats.visited_ever);
        let beta = u64_to_f64(unvisited) / u64_to_f64(visits.max(1));
        let n = usize_to_f64(RECENT_WINDOWS);
        Some(MigrationIndex {
            alpha,
            beta,
            l_t: u64_to_f64(visits) / n,
            l_s: u64_to_f64(spatial) / n,
        })
    }

    /// `mIndex` of `dir` (0 for never-observed directories) — the local load
    /// metric fed into candidate aggregation.
    pub fn mindex_of(&self, dir: InodeId) -> f64 {
        self.index_of(dir).map(|m| m.value()).unwrap_or(0.0)
    }

    /// Accounts for the removal of `ino` from its directory: the population
    /// shrinks, and if the inode had ever been visited the visited counter
    /// shrinks with it so the unvisited balance stays correct.
    pub fn record_remove(&mut self, ns: &Namespace, ino: InodeId) {
        let ever = self
            .inodes
            .get(ino.index())
            .map(|s| s.ever_visited)
            .unwrap_or(false);
        let dir = ns.inode(ino).parent().unwrap_or(ino);
        if let Some(pos) = self.dir_pos(dir) {
            let stats = &mut self.dirs[pos];
            stats.total_inodes = stats.total_inodes.saturating_sub(1);
            if ever {
                stats.visited_ever = stats.visited_ever.saturating_sub(1);
            }
        }
    }

    /// Visits to `dir` over the recent windows (`l_t` alone). Used as a
    /// selection fallback when every migration index is zero — e.g. a scan
    /// that has covered the whole namespace leaves nothing unvisited and
    /// nothing recurrent, yet load still has to move somewhere.
    pub fn recent_visits_of(&self, dir: InodeId) -> f64 {
        self.index_of(dir).map(|m| m.l_t).unwrap_or(0.0)
    }

    /// Number of directories with live statistics.
    pub fn tracked_dirs(&self) -> usize {
        self.dirs.len()
    }

    /// Writes the analyzer's dynamic state (window cursor, per-inode visit
    /// masks, per-directory rings, RNG position) to a snapshot section.
    /// The configuration is *not* serialized — a restored analyzer is
    /// rebuilt from the run configuration first.
    pub fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_u64(self.window);
        e.put_seq(&self.inodes, |e, iv| {
            e.put_u64(iv.last_window);
            e.put_u64(iv.mask);
            e.put_bool(iv.ever_visited);
        });
        // Records are in first-sight order; snapshots are written in
        // `InodeId` order so the bytes stay independent of access order.
        let mut order: Vec<&DirStats> = self.dirs.iter().collect();
        order.sort_by_key(|d| d.id);
        e.put_seq(&order, |e, d| {
            e.put_u64(d.id.raw());
            e.put_seq(&d.ring, |e, w| {
                e.put_u32(w.visits);
                e.put_u32(w.recurrent);
                e.put_u32(w.first_visits);
                e.put_u32(w.sibling_bumps);
            });
            e.put_usize(d.cursor);
            e.put_u64(d.window);
            e.put_u64(d.total_inodes);
            e.put_u64(d.visited_ever);
        });
        e.put_u64(self.rng_state);
    }

    /// Restores the dynamic state written by [`PatternAnalyzer::save_state`]
    /// into this (freshly configured) analyzer.
    pub fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        use lunule_util::codec::CodecError;
        self.window = d.get_u64("analyzer window")?;
        self.inodes = d.get_seq("analyzer inodes", |d| {
            Ok(InodeVisits {
                last_window: d.get_u64("visit last_window")?,
                mask: d.get_u64("visit mask")?,
                ever_visited: d.get_bool("visit ever")?,
            })
        })?;
        self.dirs = d.get_seq("analyzer dirs", |d| {
            let raw = d.get_u64("analyzer dir id")?;
            let idx = u32::try_from(raw).map_err(|_| CodecError::Invalid {
                what: "analyzer dir id",
            })?;
            let ring = d.get_seq("dir ring", |d| {
                Ok(WindowCounters {
                    visits: d.get_u32("ring visits")?,
                    recurrent: d.get_u32("ring recurrent")?,
                    first_visits: d.get_u32("ring first_visits")?,
                    sibling_bumps: d.get_u32("ring sibling_bumps")?,
                })
            })?;
            let ring: [WindowCounters; RECENT_WINDOWS] =
                ring.try_into().map_err(|_| CodecError::Invalid {
                    what: "analyzer ring",
                })?;
            let cursor = d.get_usize("dir cursor")?;
            if cursor >= RECENT_WINDOWS {
                return Err(CodecError::Invalid {
                    what: "analyzer ring",
                });
            }
            Ok(DirStats {
                id: InodeId::from_index(u32_to_usize(idx)),
                ring,
                cursor,
                window: d.get_u64("dir window")?,
                total_inodes: d.get_u64("dir total_inodes")?,
                visited_ever: d.get_u64("dir visited_ever")?,
            })
        })?;
        self.dir_index = PagedMap::new();
        for (pos, stats) in self.dirs.iter().enumerate() {
            if self.dir_index.get(stats.id.index()).is_some() {
                return Err(CodecError::Invalid {
                    what: "analyzer dirs",
                });
            }
            self.dir_index.set(stats.id.index(), usize_to_u32(pos));
        }
        self.rng_state = d.get_u64("analyzer rng state")?;
        Ok(())
    }

    /// Records the analyzer's bookkeeping size into the telemetry stream:
    /// a `analyzer.tracked_dirs` gauge and a `analyzer.window` gauge (the
    /// cutting-window index). Called by the owning balancer at each epoch
    /// boundary; free when the handle is disabled.
    pub fn observe(&self, telemetry: &lunule_telemetry::Telemetry) {
        telemetry.gauge_set("analyzer.tracked_dirs", 0, usize_to_f64(self.dirs.len()));
        telemetry.gauge_set("analyzer.window", 0, u64_to_f64(self.window()));
    }
}

/// The next sibling directory of `dir` under its parent (wrapping), if any.
fn next_sibling_dir(ns: &Namespace, dir: InodeId) -> Option<InodeId> {
    let parent = ns.inode(dir).parent()?;
    let children = ns.inode(parent).children();
    let pos = children.iter().position(|c| *c == dir)?;
    children[pos + 1..]
        .iter()
        .chain(&children[..pos])
        .copied()
        .find(|c| ns.inode(*c).is_dir())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer(sibling_probability: f64) -> PatternAnalyzer {
        PatternAnalyzer::new(AnalyzerConfig {
            sibling_probability,
        })
    }

    #[test]
    fn next_sibling_dir_skips_files_and_wraps() {
        let mut ns = Namespace::new();
        let d0 = ns.mkdir(InodeId::ROOT, "d0").unwrap();
        ns.create_file(InodeId::ROOT, "f", 1).unwrap();
        let d1 = ns.mkdir(InodeId::ROOT, "d1").unwrap();
        let lone = ns.mkdir(d1, "lone").unwrap();
        ns.create_file(d1, "g", 1).unwrap();
        assert_eq!(next_sibling_dir(&ns, d0), Some(d1));
        assert_eq!(next_sibling_dir(&ns, d1), Some(d0), "wraps past the end");
        assert_eq!(next_sibling_dir(&ns, lone), None, "no other directory");
        assert_eq!(
            next_sibling_dir(&ns, InodeId::ROOT),
            None,
            "root has no parent"
        );
    }

    /// Builds /d0, /d1 each with `files` files; returns (ns, dirs, files).
    fn two_dirs(files: usize) -> (Namespace, Vec<InodeId>, Vec<Vec<InodeId>>) {
        let mut ns = Namespace::new();
        let mut dirs = Vec::new();
        let mut all = Vec::new();
        for d in 0..2 {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            let fs: Vec<_> = (0..files)
                .map(|i| ns.create_file(dir, &format!("f{i}"), 1).unwrap())
                .collect();
            dirs.push(dir);
            all.push(fs);
        }
        (ns, dirs, all)
    }

    /// The per-inode table is allocated once for the whole namespace on the
    /// first access and grows at most by doubling after a create, while its
    /// length, which snapshots encode, still ends at the highest id seen.
    #[test]
    fn inode_table_is_sized_by_the_namespace_once() {
        let (mut ns, dirs, files) = two_dirs(40);
        let mut an = analyzer(0.0);
        an.record_access(&ns, files[0][0], false);
        assert_eq!(an.inodes.len(), files[0][0].index() + 1);
        assert!(an.inodes.capacity() >= ns.len());
        let table = an.inodes.as_ptr();
        an.record_access(&ns, files[1][39], false);
        assert_eq!(an.inodes.len(), ns.len());
        assert_eq!(
            an.inodes.as_ptr(),
            table,
            "no regrowth within the namespace"
        );
        let cap = an.inodes.capacity();
        for i in 0..cap {
            let f = ns.create_file(dirs[0], &format!("new{i}"), 1).unwrap();
            an.record_access(&ns, f, true);
        }
        assert_eq!(an.inodes.len(), ns.len());
        assert!(an.inodes.capacity() >= 2 * cap, "grows geometrically");
    }

    #[test]
    fn zipfian_pattern_yields_high_alpha() {
        let (ns, dirs, files) = two_dirs(10);
        let mut an = analyzer(0.0);
        // Revisit the same two files over several windows.
        for _ in 0..6 {
            for _ in 0..20 {
                an.record_access(&ns, files[0][0], false);
                an.record_access(&ns, files[0][1], false);
            }
            an.advance_window();
        }
        let idx = an.index_of(dirs[0]).unwrap();
        assert!(
            idx.alpha > 0.9,
            "repeat visits must read as temporal: {idx:?}"
        );
        // 40 visits/window over the 4 live windows.
        assert!(idx.l_t > 25.0);
        // Only 2 of 10 inodes were ever visited: beta reflects the 8 unread,
        // but l_s is ~0, so mIndex is dominated by the temporal term.
        assert!(idx.value() >= idx.alpha * idx.l_t);
    }

    #[test]
    fn scan_pattern_yields_spatial_dominance() {
        let (ns, dirs, files) = two_dirs(50);
        let mut an = analyzer(0.0);
        // Scan the first 10 files of d0 once, never revisiting.
        for f in &files[0][..10] {
            an.record_access(&ns, *f, false);
        }
        let idx = an.index_of(dirs[0]).unwrap();
        assert_eq!(idx.alpha, 0.0, "a scan has no recurrence");
        assert_eq!(idx.l_s, 10.0 / 4.0, "per-window first-visit rate");
        // 40 unvisited / 10 visits = 4.0.
        assert!((idx.beta - 4.0).abs() < 1e-9);
        // mIndex ≈ unvisited count per window: the "ship the unread
        // remainder" signal, normalised to the epoch rate.
        assert!((idx.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn windows_age_out() {
        let (ns, dirs, files) = two_dirs(5);
        let mut an = analyzer(0.0);
        an.record_access(&ns, files[0][0], false);
        for _ in 0..10 {
            an.advance_window();
        }
        // Force the ring to roll by touching the dir again in a later window.
        an.record_access(&ns, files[0][1], false);
        let idx = an.index_of(dirs[0]).unwrap();
        // Only the fresh visit remains inside the window span.
        assert_eq!(idx.l_t, 0.25);
    }

    #[test]
    fn recurrence_requires_cross_window_repeat() {
        let (ns, dirs, files) = two_dirs(5);
        let mut an = analyzer(0.0);
        // Two visits in the same window: not recurrent.
        an.record_access(&ns, files[0][0], false);
        an.record_access(&ns, files[0][0], false);
        let idx = an.index_of(dirs[0]).unwrap();
        assert_eq!(idx.alpha, 0.0);
        // A repeat in the next window is recurrent.
        an.advance_window();
        an.record_access(&ns, files[0][0], false);
        let idx = an.index_of(dirs[0]).unwrap();
        assert!(idx.alpha > 0.0);
    }

    #[test]
    fn sibling_propagation_bumps_neighbor() {
        let (ns, dirs, files) = two_dirs(20);
        let mut an = analyzer(1.0); // always propagate
        for f in &files[0][..10] {
            an.record_access(&ns, *f, false);
        }
        let sib = an.index_of(dirs[1]).expect("sibling must have been bumped");
        assert_eq!(sib.l_s, 2.5, "every first visit propagates at p=1");
        assert_eq!(sib.l_t, 0.0, "bumps are not visits");
        // The sibling has 20 unvisited inodes and no visits: beta = 20.
        assert!(
            sib.value() > 0.0,
            "sibling must become a migration candidate"
        );
    }

    #[test]
    fn creates_grow_population() {
        let mut ns = Namespace::new();
        let dir = ns.mkdir(InodeId::ROOT, "out").unwrap();
        let mut an = analyzer(0.0);
        // First create: dir enters the tracker with the post-create count.
        let f0 = ns.create_file(dir, "f0", 0).unwrap();
        an.record_access(&ns, f0, true);
        for i in 1..5 {
            let f = ns.create_file(dir, &format!("f{i}"), 0).unwrap();
            an.record_access(&ns, f, true);
        }
        let idx = an.index_of(dir).unwrap();
        // All 5 created inodes were visited at creation: nothing unvisited.
        assert_eq!(idx.beta, 0.0);
        assert_eq!(idx.l_s, 1.25);
        assert_eq!(idx.l_t, 1.25);
    }

    #[test]
    fn untouched_dir_has_zero_mindex() {
        let (ns, dirs, _) = two_dirs(5);
        let an = analyzer(0.0);
        assert_eq!(an.mindex_of(dirs[0]), 0.0);
        let _ = ns;
    }

    /// Saved state of an analyzer with no inodes and one directory record
    /// per `(id, ring length, cursor)`.
    fn saved_dirs(dirs: &[(u64, usize, usize)]) -> Vec<u8> {
        let mut e = lunule_util::codec::Encoder::new();
        e.put_u64(0);
        e.put_usize(0);
        e.put_seq(dirs, |e, &(id, ring, cursor)| {
            e.put_u64(id);
            e.put_seq(&vec![(); ring], |e, ()| {
                for v in [1, 0, 1, 0] {
                    e.put_u32(v);
                }
            });
            e.put_usize(cursor);
            e.put_u64(0);
            e.put_u64(3);
            e.put_u64(1);
        });
        e.put_u64(SIBLING_SEED | 1);
        e.into_bytes()
    }

    #[test]
    fn load_state_rejects_malformed_directory_records() {
        use lunule_util::codec::{CodecError, Decoder};
        let load = |bytes: &[u8]| analyzer(0.0).load_state(&mut Decoder::new(bytes));
        let n = RECENT_WINDOWS;
        assert!(load(&saved_dirs(&[(1, n, n - 1), (2, n, 0)])).is_ok());
        for (case, dirs) in [
            ("short ring", vec![(1, n - 1, 0)]),
            ("long ring", vec![(1, n + 1, 0)]),
            ("cursor out of range", vec![(1, n, n)]),
            ("duplicate id", vec![(1, n, 0), (1, n, 0)]),
        ] {
            let got = load(&saved_dirs(&dirs));
            assert!(
                matches!(got, Err(CodecError::Invalid { .. })),
                "{case}: {got:?}"
            );
        }
    }

    #[test]
    fn prefetch_changes_nothing_and_never_grows_the_table() {
        use lunule_util::codec::Encoder;
        let saved = |an: &PatternAnalyzer| {
            let mut e = Encoder::new();
            an.save_state(&mut e);
            e.into_bytes()
        };
        let (ns, _, files) = two_dirs(10);
        let mut an = analyzer(0.5);
        for f in &files[0] {
            an.record_access(&ns, *f, false);
        }
        let table = an.inodes.len();
        let before = saved(&an);
        let inside = files[0][3];
        let beyond_table = files[1][5];
        let beyond_arena = InodeId::from_index(ns.len() + 1_000);
        assert!(inside.index() < table);
        assert!(beyond_table.index() >= table && beyond_table.index() < ns.len());
        an.prefetch(&[inside, beyond_table, beyond_arena]);
        an.prefetch(&[]);
        assert_eq!(an.inodes.len(), table, "the table never grows");
        assert_eq!(saved(&an), before, "saved state unchanged");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let (ns, _, files) = two_dirs(30);
        let run = || {
            let mut an = analyzer(0.5);
            for f in files.iter().flatten() {
                an.record_access(&ns, *f, false);
            }
            (0..ns.len())
                .map(|i| an.mindex_of(InodeId::from_index(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
