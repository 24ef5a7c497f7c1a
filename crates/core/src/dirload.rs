//! Shared per-directory load bookkeeping and subtree aggregation.
//!
//! Every balancer needs the same two primitives: (a) charge each served
//! request to the directory containing the target inode, and (b) turn those
//! per-directory numbers into *candidate dirfrag subtrees with aggregated
//! loads* for a given exporter rank. This module provides both, generic over
//! the per-directory load metric (decayed heat for Vanilla/Lunule-Light,
//! migration index for Lunule).
//!
//! ## Aggregation invariant
//!
//! Selection and migration only ever operate on *live* fragments of a
//! directory's [`lunule_namespace::FragSet`], and authority entries are only
//! placed on live fragments. Live fragments are pairwise disjoint, so a
//! candidate `(dir, frag)` can never contain a deeper authority entry of the
//! same directory, and the aggregate of a candidate is simply its local load
//! share plus the aggregates of non-delegated child directories inside the
//! fragment.
//!
//! ## Cost
//!
//! [`build_candidates`] visits directories only, through the namespace's
//! directory index ([`Namespace::dir_ids`], [`Namespace::subdir_slots`]), so
//! an epoch close costs O(directories + fragments + entries) — not
//! O(inodes), no dentry hash per file, and no map lookup or authority walk
//! per directory: one ascending walk merges the directory index with
//! [`SubtreeMap::dir_entries`] and resolves every directory's authority
//! from its parent's. Files enter only through `children().len()` and
//! the per-fragment child counts the namespace keeps
//! ([`lunule_namespace::FragSet::child_counts`]); a subdirectory is hashed
//! to resolve its authority, and in a fragmented directory once more to
//! find its fragment. Directories are
//! visited in descending id order and each one sums its subdirectories in
//! `children` order, exactly as a reverse walk over the whole arena would,
//! so every f64 sum, and therefore every candidate, is bit-identical to
//! that walk (a test keeps it as the oracle).

use crate::selector::subtrees_overlap;
use lunule_namespace::{
    DirEntries, Frag, FragKey, FragSet, InodeId, MdsRank, Namespace, SubtreeMap,
};
use lunule_util::convert::{u32_to_usize, usize_to_f64};

/// A migration candidate: a dirfrag subtree with its aggregated load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// The dirfrag subtree.
    pub key: FragKey,
    /// Rank currently authoritative for the subtree.
    pub rank: MdsRank,
    /// Load of the whole subtree under the chosen metric (heat or mIndex).
    pub load: f64,
    /// The portion of `load` contributed by `key.dir`'s *direct* children
    /// (as opposed to nested directories). The selector uses this to decide
    /// between fragment splitting and descending.
    pub local_load: f64,
    /// Estimated number of inodes the subtree contains (sizes the transfer).
    pub inodes: usize,
}

/// One live fragment's running totals while its directory is visited,
/// one lane per load metric.
#[derive(Clone, Copy)]
struct FragAgg<const N: usize> {
    /// The directory's local loads apportioned by the fragment's share of
    /// its children.
    local: [f64; N],
    /// `local` plus the aggregates of subdirectories in the frag.
    load: [f64; N],
    /// The fragment's children plus the inode counts of subdirectories in
    /// the frag.
    inodes: usize,
    /// Depth and rank of the deepest entry covering the fragment, if any.
    covering: Option<(u8, MdsRank)>,
    /// True when that entry is keyed on exactly the fragment.
    explicit: bool,
}

/// Fills `per_frag[i]`'s entry fields for the live fragment `frags[i]`:
/// what [`DirEntries::covering_rank`] and [`DirEntries::explicit_rank`]
/// answer one fragment at a time. Each entry instead finds the live
/// fragments it overlaps by binary search over the sorted fragments and
/// claims those it contains, a deeper entry over a coarser one. An entry
/// keyed on a live fragment is the deepest that contains it, so it is
/// the explicit one.
fn match_entries<const N: usize>(
    frags: &[Frag],
    entries: DirEntries<'_>,
    per_frag: &mut [FragAgg<N>],
) {
    for (e, rank) in entries.iter() {
        let lo = frags.partition_point(|f| f.range_end() <= e.range_start());
        for (f, agg) in frags[lo..].iter().zip(&mut per_frag[lo..]) {
            if f.range_start() >= e.range_end() {
                break;
            }
            if e.contains_frag(f) && agg.covering.is_none_or(|(bits, _)| bits < e.bits()) {
                agg.covering = Some((e.bits(), rank));
                agg.explicit = e == *f;
            }
        }
    }
}

/// Adds `b` into `a` lane by lane.
fn add_lanes<const N: usize>(a: &mut [f64; N], b: &[f64; N]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Computes the candidate list for the whole cluster given a per-directory
/// local load metric.
///
/// `local` maps a directory to the load charged to its direct children.
/// Directories with zero aggregate load are skipped. The returned vector is
/// unsorted; callers group it by rank ([`RankBuckets`]) and order it as
/// their policy requires.
pub fn build_candidates(
    ns: &Namespace,
    map: &SubtreeMap,
    local: &impl Fn(InodeId) -> f64,
) -> Vec<Candidate> {
    let [all] = build_candidates_n(ns, map, &|d| [local(d)]);
    all
}

/// [`build_candidates`] for `N` load metrics in one walk: `local` returns
/// a directory's local load under each, and list `k` is exactly what
/// `build_candidates` returns for metric `k` alone (same order, same
/// `load > 0.0` filter, same bits: each lane sums in the same order). The
/// authority pass, the entry match, the fragment shares and the
/// subdirectory hashing are shared.
pub fn build_candidates_n<const N: usize>(
    ns: &Namespace,
    map: &SubtreeMap,
    local: &impl Fn(InodeId) -> [f64; N],
) -> [Vec<Candidate>; N] {
    let dirs = ns.dir_ids();
    // Top-down pass: a directory's id is smaller than its subdirectories'
    // (ids only append and nothing moves a directory), and the map's
    // entries are ordered by id too, so one ascending merge-walk pairs
    // each directory slot with its entries and hands its authority down
    // to its subdirectories, as `SubtreeMap::authority` resolves it.
    // The same walk reads each directory's fragment set (merged from
    // `Namespace::frag_sets`, no map lookup per directory) and child
    // count into slot-indexed scratch; on mega_cohort that took ~10% off
    // the walk.
    let mut entries = vec![DirEntries::default(); dirs.len()];
    let mut auth = vec![map.root_rank(); dirs.len()];
    let mut sets: Vec<Option<&FragSet>> = vec![None; dirs.len()];
    let mut n_children = vec![0usize; dirs.len()];
    let mut walk = map.dir_entries().peekable();
    let mut frag_sets = ns.frag_sets().peekable();
    for (slot, &id) in dirs.iter().enumerate() {
        while let Some((dir, e)) = walk.next_if(|(dir, _)| *dir <= id) {
            if dir == id {
                entries[slot] = e;
            }
        }
        while let Some((dir, set)) = frag_sets.next_if(|(dir, _)| *dir <= id) {
            if dir == id {
                sets[slot] = Some(set);
            }
        }
        n_children[slot] = ns.inode(id).children().len();
        for &s in ns.subdir_slots(slot) {
            let s = u32_to_usize(s);
            auth[s] = entries[slot].child_authority(ns.dentry_hash_of(dirs[s]), auth[slot]);
        }
    }
    // Bottom-up pass: a descending walk visits subdirectories first.
    // Per directory slot: aggregate loads and inode count of the
    // directory's *non-delegated* portion, i.e. what flows up into its
    // parent's candidates.
    let mut agg_whole = vec![[0.0f64; N]; dirs.len()];
    let mut inodes_whole = vec![0usize; dirs.len()];
    let mut per_frag: Vec<FragAgg<N>> = Vec::new();
    let mut candidates: [Vec<Candidate>; N] = std::array::from_fn(|_| Vec::new());
    let mut push =
        |key: FragKey, rank: MdsRank, load: &[f64; N], local: &[f64; N], inodes: usize| {
            for ((list, &load), &local_load) in candidates.iter_mut().zip(load).zip(local) {
                if load > 0.0 {
                    list.push(Candidate {
                        key,
                        rank,
                        load,
                        local_load,
                        inodes,
                    });
                }
            }
        };

    for (slot, &id) in dirs.iter().enumerate().rev() {
        let local_load = local(id);
        let n_children = n_children[slot];
        let subdirs = ns.subdir_slots(slot);
        let fragmented = sets[slot].filter(|set| !matches!(set.frags(), [only] if only.is_root()));

        // Fast path: undivided directory.
        let Some(set) = fragmented else {
            let key = FragKey::whole(id);
            let mut load = local_load;
            let mut count = n_children;
            for &s in subdirs {
                // A subdirectory's slot holds its *non-delegated* portion by
                // construction (delegated fragments were excluded when it
                // was visited), so it always flows up.
                add_lanes(&mut load, &agg_whole[u32_to_usize(s)]);
                count += inodes_whole[u32_to_usize(s)];
            }
            let explicit = entries[slot].explicit_rank(&key.frag);
            push(
                key,
                explicit.unwrap_or(auth[slot]),
                &load,
                &local_load,
                count,
            );
            if explicit.is_none() {
                agg_whole[slot] = load;
                inodes_whole[slot] = count;
            }
            continue;
        };

        // Fragmented directory: one candidate per live fragment, local load
        // apportioned by the share of children hashing into the fragment,
        // which the namespace counts. Subdirectory aggregates then join
        // their fragment in `children` order; the fragments are sorted
        // and partition the hash space, so a binary search finds it.
        let frags = set.frags();
        per_frag.clear();
        per_frag.extend(set.child_counts().iter().map(|&children| {
            let frac = if n_children == 0 {
                0.0
            } else {
                usize_to_f64(children) / usize_to_f64(n_children)
            };
            let local = local_load.map(|l| l * frac);
            FragAgg {
                local,
                load: local,
                inodes: children,
                covering: None,
                explicit: false,
            }
        }));
        match_entries(frags, entries[slot], &mut per_frag);
        for &s in subdirs {
            let s = u32_to_usize(s);
            let hash = ns.dentry_hash_of(dirs[s]);
            let i = frags.partition_point(|f| f.range_end() <= hash);
            if let Some(agg) = per_frag.get_mut(i) {
                add_lanes(&mut agg.load, &agg_whole[s]);
                agg.inodes += inodes_whole[s];
            }
        }
        let mut up_load = [0.0; N];
        let mut up_inodes = 0usize;
        for (&frag, agg) in frags.iter().zip(&per_frag) {
            let rank = agg.covering.map_or(auth[slot], |(_, r)| r);
            push(
                FragKey { dir: id, frag },
                rank,
                &agg.load,
                &agg.local,
                agg.inodes,
            );
            if !agg.explicit {
                add_lanes(&mut up_load, &agg.load);
                up_inodes += agg.inodes;
            }
        }
        agg_whole[slot] = up_load;
        inodes_whole[slot] = up_inodes;
    }
    candidates
}

/// Candidates grouped by rank, each group ordered by descending load with
/// ties in list order: what every selection policy starts from, for all
/// exporters at the cost of one sort. An exporter without candidates
/// costs one lookup.
#[derive(Debug)]
pub struct RankBuckets {
    /// The candidates, by ascending rank, then descending load.
    sorted: Vec<Candidate>,
    /// `starts[r]..starts[r + 1]` is rank `r`'s group.
    starts: Vec<usize>,
    /// Per candidate of `sorted`: how many claimed subtrees
    /// [`RankBuckets::unused_of`] has tested it against, or [`OVERLAPS`]
    /// once one overlapped it.
    tested: Vec<usize>,
}

/// [`RankBuckets::tested`]'s mark of a candidate that overlaps a claimed
/// subtree.
const OVERLAPS: usize = usize::MAX;

impl RankBuckets {
    /// Groups `all` by rank with one stable sort.
    pub fn new(mut all: Vec<Candidate>) -> Self {
        all.sort_by(|a, b| a.rank.cmp(&b.rank).then(b.load.total_cmp(&a.load)));
        let ranks = all.last().map_or(0, |c| c.rank.index() + 1);
        let mut starts = Vec::with_capacity(ranks + 1);
        let mut at = 0;
        for r in 0..=ranks {
            at += all[at..].iter().take_while(|c| c.rank.index() < r).count();
            starts.push(at);
        }
        RankBuckets {
            tested: vec![0; all.len()],
            sorted: all,
            starts,
        }
    }

    /// The positions in `sorted` of rank `rank`'s group.
    fn range(&self, rank: MdsRank) -> std::ops::Range<usize> {
        let r = rank.index();
        match (self.starts.get(r), self.starts.get(r + 1)) {
            (Some(&lo), Some(&hi)) => lo..hi,
            _ => 0..0,
        }
    }

    /// Rank `rank`'s candidates by descending load.
    pub fn of(&self, rank: MdsRank) -> &[Candidate] {
        &self.sorted[self.range(rank)]
    }

    /// Appends to `out` rank `rank`'s candidates, by descending load, that
    /// overlap none of the subtrees `used` claims ([`subtrees_overlap`]).
    /// `used` may only grow between calls: a candidate is tested against
    /// each claimed subtree once, and stays out once one overlaps it.
    pub fn unused_of(
        &mut self,
        ns: &Namespace,
        rank: MdsRank,
        used: &[FragKey],
        out: &mut Vec<Candidate>,
    ) {
        let range = self.range(rank);
        for (c, tested) in self.sorted[range.clone()]
            .iter()
            .zip(&mut self.tested[range])
        {
            if *tested == OVERLAPS {
                continue;
            }
            let fresh = used.get(*tested..).unwrap_or_default();
            if fresh.iter().any(|u| subtrees_overlap(ns, u, &c.key)) {
                *tested = OVERLAPS;
            } else {
                *tested = used.len();
                out.push(*c);
            }
        }
    }

    /// Number of candidates over all ranks.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no rank has a candidate.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_util::codec::{Decoder, Encoder};
    use lunule_util::propcheck;
    use lunule_util::rng::DetRng;
    use std::collections::HashMap;

    /// The O(inodes) walk `build_candidates` replaced, kept verbatim as the
    /// oracle: every inode in reverse arena order, files skipped, each
    /// fragment's children gathered by a filter over the whole child list.
    fn arena_walk_oracle(
        ns: &Namespace,
        map: &SubtreeMap,
        local: &impl Fn(InodeId) -> f64,
    ) -> Vec<Candidate> {
        let n = ns.len();
        let mut agg_whole = vec![0.0f64; n];
        let mut inodes_whole = vec![0usize; n];
        let mut candidates = Vec::new();

        for idx in (0..n).rev() {
            let id = InodeId::from_index(idx);
            let ino = ns.inode(id);
            if !ino.is_dir() {
                continue;
            }
            let local_load = local(id);
            let n_children = ino.children().len();
            let frags = ns.frags_of(id);

            if frags.len() == 1 && frags[0].is_root() {
                let frag = frags[0];
                let mut load = local_load;
                let mut count = n_children;
                for &c in ino.children() {
                    if ns.inode(c).is_dir() {
                        load += agg_whole[c.index()];
                        count += inodes_whole[c.index()];
                    }
                }
                let rank = map.frag_authority(ns, id, &frag);
                if load > 0.0 {
                    candidates.push(Candidate {
                        key: FragKey { dir: id, frag },
                        rank,
                        load,
                        local_load,
                        inodes: count,
                    });
                }
                let delegated = map.explicit_entry_rank(id, &frag).is_some();
                if !delegated {
                    agg_whole[idx] = load;
                    inodes_whole[idx] = count;
                }
                continue;
            }

            let mut up_load = 0.0;
            let mut up_inodes = 0usize;
            for frag in frags {
                let in_frag: Vec<InodeId> = ino
                    .children()
                    .iter()
                    .copied()
                    .filter(|c| frag.contains_hash(ns.dentry_hash_of(*c)))
                    .collect();
                let frac = if n_children == 0 {
                    0.0
                } else {
                    usize_to_f64(in_frag.len()) / usize_to_f64(n_children)
                };
                let mut load = local_load * frac;
                let mut count = in_frag.len();
                for c in &in_frag {
                    if ns.inode(*c).is_dir() {
                        load += agg_whole[c.index()];
                        count += inodes_whole[c.index()];
                    }
                }
                let rank = map.frag_authority(ns, id, &frag);
                if load > 0.0 {
                    candidates.push(Candidate {
                        key: FragKey { dir: id, frag },
                        rank,
                        load,
                        local_load: local_load * frac,
                        inodes: count,
                    });
                }
                if map.explicit_entry_rank(id, &frag).is_none() {
                    up_load += load;
                    up_inodes += count;
                }
            }
            agg_whole[idx] = up_load;
            inodes_whole[idx] = up_inodes;
        }
        candidates
    }

    /// A candidate list with every float as its bit pattern, so equality
    /// means bit-identical output.
    fn as_bits(cands: &[Candidate]) -> Vec<(FragKey, MdsRank, u64, u64, usize)> {
        cands
            .iter()
            .map(|c| {
                let bits = (c.load.to_bits(), c.local_load.to_bits());
                (c.key, c.rank, bits.0, bits.1, c.inodes)
            })
            .collect()
    }

    /// Grows a random namespace: nested directories and files, and 1- and
    /// 3-bit fragment splits.
    fn random_namespace(rng: &mut DetRng) -> Namespace {
        let mut ns = Namespace::new();
        for step in 0..rng.gen_range(20..140) {
            let dirs = ns.dir_ids();
            let d = dirs[rng.gen_range(0..dirs.len())];
            match rng.gen_range(0..7) {
                0..=2 => {
                    ns.mkdir(d, &format!("d{step}")).unwrap();
                }
                3..=5 => {
                    for i in 0..rng.gen_range(1..12) {
                        ns.create_file(d, &format!("f{step}.{i}"), 0).unwrap();
                    }
                }
                _ => {
                    let frags = ns.frags_of(d);
                    let frag = frags[rng.gen_range(0..frags.len())];
                    let by = if rng.gen_bool() { 1 } else { 3 };
                    if frag.bits() + by <= 9 {
                        ns.split_frag(d, &frag, by).unwrap();
                    }
                }
            }
        }
        ns
    }

    /// Explicit delegations over four ranks, up to three per directory:
    /// on the whole directory, on one of its live fragments, and on a
    /// child of a live fragment, deeper than any live fragment. On a
    /// fragmented directory they nest.
    fn random_map(rng: &mut DetRng, ns: &Namespace) -> SubtreeMap {
        let mut map = SubtreeMap::new(MdsRank(0));
        for &d in ns.dir_ids() {
            let frags = ns.frags_of(d);
            for shape in 0..3 {
                if !rng.gen_ratio(0.25) {
                    continue;
                }
                let live = frags[rng.gen_range(0..frags.len())];
                let frag = match shape {
                    0 => Frag::root(),
                    1 => live,
                    _ => {
                        let (low, high) = live.split_in_two();
                        if rng.gen_bool() {
                            low
                        } else {
                            high
                        }
                    }
                };
                let rank = MdsRank::from_index(rng.gen_range(0..4));
                map.set_authority(FragKey { dir: d, frag }, rank);
            }
        }
        map
    }

    /// A local load per inode slot, zero for a fifth of them and spread
    /// over eight decades otherwise so that summation order shows in the
    /// bits.
    fn random_loads(rng: &mut DetRng, ns: &Namespace) -> Vec<f64> {
        (0..ns.len())
            .map(|_| {
                if rng.gen_ratio(0.2) {
                    0.0
                } else {
                    let decade = i32::try_from(rng.gen_range(0..8)).unwrap() - 3;
                    rng.gen_f64() * 10f64.powi(decade)
                }
            })
            .collect()
    }

    #[test]
    fn prop_index_walk_matches_arena_walk_bit_for_bit() {
        let mut fragmented = 0;
        let mut frag_delegations = 0;
        let mut nested = 0;
        let mut below_live = 0;
        propcheck::run(300, |rng| {
            let ns = random_namespace(rng);
            let map = random_map(rng, &ns);
            let loads = random_loads(rng, &ns);
            let local = |d: InodeId| loads[d.index()];
            let want = as_bits(&arena_walk_oracle(&ns, &map, &local));
            assert_eq!(as_bits(&build_candidates(&ns, &map, &local)), want);

            let mut e = Encoder::new();
            ns.encode(&mut e);
            let bytes = e.into_bytes();
            let back = Namespace::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(as_bits(&build_candidates(&back, &map, &local)), want);

            fragmented += usize::from(ns.dir_ids().iter().any(|d| ns.frag_set(*d).is_some()));
            let entries = map.all_entries();
            frag_delegations += usize::from(entries.iter().any(|(k, _)| !k.frag.is_root()));
            nested += usize::from(entries.iter().any(|(k, _)| {
                ns.frag_set(k.dir).is_some()
                    && entries
                        .iter()
                        .any(|(o, _)| o.dir == k.dir && o.frag != k.frag)
            }));
            below_live += usize::from(entries.iter().any(|(k, _)| {
                ns.frags_of(k.dir)
                    .iter()
                    .any(|f| f.contains_frag(&k.frag) && *f != k.frag)
            }));
        });
        // The generator really reaches every shape the walk special-cases.
        for (what, n) in [
            ("fragmented directories", fragmented),
            ("fragment delegations", frag_delegations),
            ("nested entries on a fragmented directory", nested),
            ("entries below a live fragment", below_live),
        ] {
            assert!(n >= 30, "only {n} of 300 cases had {what}");
        }
    }

    /// The entry match against the per-fragment lookups it replaces,
    /// with entries coarser than, equal to and deeper than the live
    /// fragments.
    #[test]
    fn entry_match_matches_per_fragment_lookups() {
        propcheck::run(500, |rng| {
            let mut ns = Namespace::new();
            let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
            for _ in 0..rng.gen_range(1..8) {
                let frags = ns.frags_of(d);
                let frag = frags[rng.gen_range(0..frags.len())];
                if frag.bits() < 5 {
                    let by = if rng.gen_bool() { 1 } else { 2 };
                    ns.split_frag(d, &frag, by).unwrap();
                }
            }
            let mut map = SubtreeMap::new(MdsRank(0));
            for _ in 0..rng.gen_range(0..12) {
                let mut frag = Frag::root();
                for _ in 0..rng.gen_range(0..7) {
                    let (l, r) = frag.split_in_two();
                    frag = if rng.gen_bool() { l } else { r };
                }
                map.set_authority(
                    FragKey { dir: d, frag },
                    MdsRank::from_index(rng.gen_range(1..5)),
                );
            }
            let frags = ns.frags_of(d);
            let entries = map
                .dir_entries()
                .next()
                .map_or_else(DirEntries::default, |(_, e)| e);
            let blank = FragAgg {
                local: [0.0],
                load: [0.0],
                inodes: 0,
                covering: None,
                explicit: false,
            };
            let mut per_frag = vec![blank; frags.len()];
            match_entries(&frags, entries, &mut per_frag);
            for (frag, agg) in frags.iter().zip(&per_frag) {
                let covering = agg.covering.map(|(_, r)| r);
                assert_eq!(covering, map.covering_entry_rank(d, frag), "{frag:?}");
                assert_eq!(
                    agg.explicit,
                    map.explicit_entry_rank(d, frag).is_some(),
                    "{frag:?}"
                );
            }
        });
    }

    /// Namespace:
    /// /           (ROOT)
    ///   a/        local 10
    ///     a1/     local 5
    ///   b/        local 20
    fn fixture() -> (Namespace, InodeId, InodeId, InodeId, HashMap<InodeId, f64>) {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let a1 = ns.mkdir(a, "a1").unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        for d in [a, a1, b] {
            for i in 0..4 {
                ns.create_file(d, &format!("f{i}"), 1).unwrap();
            }
        }
        let mut loads = HashMap::new();
        loads.insert(a, 10.0);
        loads.insert(a1, 5.0);
        loads.insert(b, 20.0);
        (ns, a, a1, b, loads)
    }

    #[test]
    fn aggregates_roll_up_to_root() {
        let (ns, a, a1, b, loads) = fixture();
        let map = SubtreeMap::new(MdsRank(0));
        let local = |d: InodeId| loads.get(&d).copied().unwrap_or(0.0);
        let cands = build_candidates(&ns, &map, &local);
        let find = |dir| {
            cands
                .iter()
                .find(|c| c.key.dir == dir)
                .copied()
                .unwrap_or_else(|| panic!("no candidate for {dir:?}"))
        };
        assert_eq!(find(a1).load, 5.0);
        assert_eq!(find(a).load, 15.0); // 10 local + 5 nested
        assert_eq!(find(b).load, 20.0);
        let root = find(InodeId::ROOT);
        assert_eq!(root.load, 35.0);
        assert_eq!(root.local_load, 0.0);
        // Every candidate belongs to rank 0 before any delegation.
        assert!(cands.iter().all(|c| c.rank == MdsRank(0)));
        // Root candidate spans all inodes except the root dir itself.
        assert_eq!(root.inodes, ns.len() - 1);
    }

    #[test]
    fn delegated_child_is_excluded_from_parent() {
        let (ns, a, a1, _b, loads) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a1), MdsRank(1));
        let local = |d: InodeId| loads.get(&d).copied().unwrap_or(0.0);
        let cands = build_candidates(&ns, &map, &local);
        let a_cand = cands.iter().find(|c| c.key.dir == a).unwrap();
        // a1's subtree is delegated to rank 1, so its load no longer flows
        // up into a's candidate; a keeps only its own local load.
        assert_eq!(a_cand.load, 10.0);
        let a1_cand = cands.iter().find(|c| c.key.dir == a1).unwrap();
        assert_eq!(a1_cand.rank, MdsRank(1));
        assert_eq!(a1_cand.load, 5.0);
        let buckets = RankBuckets::new(cands);
        assert_eq!(buckets.of(MdsRank(1)).len(), 1);
    }

    #[test]
    fn fragmented_dir_produces_per_frag_candidates() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "big").unwrap();
        for i in 0..100 {
            ns.create_file(d, &format!("f{i}"), 0).unwrap();
        }
        ns.split_frag(d, &Frag::root(), 1).unwrap();
        let map = SubtreeMap::new(MdsRank(0));
        let local = move |x: InodeId| if x == d { 100.0 } else { 0.0 };
        let cands = build_candidates(&ns, &map, &local);
        let frag_cands: Vec<_> = cands.iter().filter(|c| c.key.dir == d).collect();
        assert_eq!(frag_cands.len(), 2);
        let total: f64 = frag_cands.iter().map(|c| c.load).sum();
        assert!((total - 100.0).abs() < 1e-9);
        let inodes: usize = frag_cands.iter().map(|c| c.inodes).sum();
        assert_eq!(inodes, 100);
        // Shares are proportional to children counts, which are roughly even.
        for c in frag_cands {
            assert!(c.load > 20.0 && c.load < 80.0);
        }
    }

    #[test]
    fn zero_load_dirs_are_skipped() {
        let (ns, _, _, _, _) = fixture();
        let map = SubtreeMap::new(MdsRank(0));
        let cands = build_candidates(&ns, &map, &|_| 0.0);
        assert!(cands.is_empty());
    }

    /// Each bucket is the filter-then-stable-sort it replaces, over
    /// candidates with repeated loads and ranks past the last one used,
    /// and `unused_of` is the overlap filter it replaces while the claimed
    /// subtrees grow.
    #[test]
    fn rank_buckets_match_a_filter_and_stable_sort() {
        propcheck::run(200, |rng| {
            let ns = random_namespace(rng);
            let map = random_map(rng, &ns);
            // Few distinct loads, so ties are common.
            let loads: Vec<f64> = (0..ns.len())
                .map(|_| usize_to_f64(rng.gen_range(0..4)))
                .collect();
            let all = build_candidates(&ns, &map, &|d: InodeId| loads[d.index()]);
            let mut buckets = RankBuckets::new(all.clone());
            assert_eq!(buckets.len(), all.len());
            for r in 0..6 {
                let rank = MdsRank::from_index(r);
                let mut want: Vec<Candidate> =
                    all.iter().filter(|c| c.rank == rank).copied().collect();
                want.sort_by(|a, b| b.load.total_cmp(&a.load));
                assert_eq!(as_bits(buckets.of(rank)), as_bits(&want), "rank {r}");
            }
            // Claimed subtrees grow between queries, as pairings claim them.
            let mut used = Vec::new();
            for _ in 0..8 {
                if !all.is_empty() {
                    used.push(all[rng.gen_range(0..all.len())].key);
                }
                let rank = MdsRank::from_index(rng.gen_range(0..5));
                let want: Vec<Candidate> = buckets
                    .of(rank)
                    .iter()
                    .filter(|c| !used.iter().any(|u| subtrees_overlap(&ns, u, &c.key)))
                    .copied()
                    .collect();
                let mut got = Vec::new();
                buckets.unused_of(&ns, rank, &used, &mut got);
                assert_eq!(as_bits(&got), as_bits(&want));
            }
        });
    }

    /// Two metrics in one walk give each metric's own list bit for bit.
    #[test]
    fn one_walk_matches_a_walk_per_metric() {
        propcheck::run(200, |rng| {
            let ns = random_namespace(rng);
            let map = random_map(rng, &ns);
            let a = random_loads(rng, &ns);
            let b = random_loads(rng, &ns);
            let [got_a, got_b] =
                build_candidates_n(&ns, &map, &|d: InodeId| [a[d.index()], b[d.index()]]);
            assert_eq!(
                as_bits(&got_a),
                as_bits(&build_candidates(&ns, &map, &|d: InodeId| a[d.index()]))
            );
            assert_eq!(
                as_bits(&got_b),
                as_bits(&build_candidates(&ns, &map, &|d: InodeId| b[d.index()]))
            );
        });
    }
}
