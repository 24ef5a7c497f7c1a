//! The subtree partition map: which MDS is authoritative for which dirfrag.
//!
//! CephFS's dynamic subtree partitioning delegates *dirfrag subtrees* to MDS
//! ranks: an authority entry on `(dir, frag)` means "the children of `dir`
//! whose dentry hash lies in `frag`, and everything below them, are served by
//! rank `r` — except where a deeper entry overrides". The directory inode
//! itself stays with the parent subtree. [`SubtreeMap`] implements exactly
//! that resolution, plus the bookkeeping the simulator and balancers need:
//! per-rank subtree-root enumeration, per-rank inode counts, and
//! authority-boundary (forward) counting along metadata paths.

use crate::frag::{dentry_hash, Frag};
use crate::inode::InodeId;
use crate::tree::Namespace;
use std::collections::BTreeMap;

/// Rank (index) of a metadata server in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MdsRank(pub u16);

impl MdsRank {
    /// Raw index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Rank from a cluster-slot index. Saturates at `u16::MAX` — real
    /// clusters are at most hundreds of ranks, so the cap is unreachable
    /// and keeps the constructor total.
    pub fn from_index(i: usize) -> MdsRank {
        MdsRank(u16::try_from(i).unwrap_or(u16::MAX))
    }
}

impl std::fmt::Debug for MdsRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mds.{}", self.0)
    }
}

impl std::fmt::Display for MdsRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a dirfrag subtree root: directory inode + fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FragKey {
    /// The directory whose children (in `frag`) this subtree covers.
    pub dir: InodeId,
    /// The covered fragment of the directory's dentry hash space.
    pub frag: Frag,
}

impl FragKey {
    /// Subtree covering the whole (undivided) directory `dir`.
    pub fn whole(dir: InodeId) -> Self {
        FragKey {
            dir,
            frag: Frag::root(),
        }
    }
}

/// The explicit entries of one directory: `(fragment, rank)` pairs whose
/// fragments may nest. Read through [`SubtreeMap::dir_entries`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DirEntries<'a>(&'a [(Frag, MdsRank)]);

impl<'a> DirEntries<'a> {
    /// Authority of the child whose dentry hash is `hash`, given that the
    /// directory itself is served by `dir_auth`: the deepest entry
    /// containing the hash, else `dir_auth`.
    pub fn child_authority(self, hash: u32, dir_auth: MdsRank) -> MdsRank {
        self.0
            .iter()
            .filter(|(f, _)| f.contains_hash(hash))
            .max_by_key(|(f, _)| f.bits())
            .map_or(dir_auth, |(_, r)| *r)
    }

    /// Every `(fragment, rank)` pair, in insertion order.
    pub fn iter(self) -> impl Iterator<Item = (Frag, MdsRank)> + 'a {
        self.0.iter().copied()
    }

    /// Rank of the entry keyed on exactly `frag`, if any.
    pub fn explicit_rank(self, frag: &Frag) -> Option<MdsRank> {
        self.0.iter().find(|(f, _)| f == frag).map(|(_, r)| *r)
    }

    /// Rank of the deepest entry whose fragment covers `frag` entirely,
    /// if any.
    pub fn covering_rank(self, frag: &Frag) -> Option<MdsRank> {
        self.0
            .iter()
            .filter(|(f, _)| f.contains_frag(frag))
            .max_by_key(|(f, _)| f.bits())
            .map(|(_, r)| *r)
    }
}

/// The cluster-wide authority table.
///
/// Changes are tracked by a monotonically increasing `generation`, which the
/// simulator's client caches use for invalidation.
#[derive(Clone, Debug)]
pub struct SubtreeMap {
    /// Authority entries grouped by directory. Each directory may carry
    /// entries for several (possibly nested) fragments; resolution picks the
    /// deepest (most-bits) fragment containing the child's dentry hash.
    entries: BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    /// Authority for the root directory inode `/` and the fallback for any
    /// path with no matching entry.
    root_rank: MdsRank,
    generation: u64,
}

impl SubtreeMap {
    /// A map where every inode is served by `root_rank` (the initial CephFS
    /// state: the whole namespace is one subtree on mds.0).
    pub fn new(root_rank: MdsRank) -> Self {
        SubtreeMap {
            entries: BTreeMap::new(),
            root_rank,
            generation: 0,
        }
    }

    /// Monotonic change counter; bumps on every authority mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The rank serving `/` and everything not covered by an entry.
    pub fn root_rank(&self) -> MdsRank {
        self.root_rank
    }

    /// Re-points the root default at `rank`. Unlike explicit entries the
    /// default cannot be shadowed for the root inode itself, so crash
    /// failover must rewrite it when the dead rank held `/` — otherwise
    /// the crashed rank would keep authority over the root forever.
    /// Callers should [`SubtreeMap::simplify`] afterwards: entries that
    /// matched the old default become load-bearing, ones matching the new
    /// default become redundant.
    pub fn set_root_rank(&mut self, rank: MdsRank) {
        if self.root_rank != rank {
            self.root_rank = rank;
            self.generation += 1;
        }
    }

    /// Number of explicit authority entries (subtree roots besides `/`).
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Assigns subtree `(dir, frag)` to `rank`.
    ///
    /// If an entry for exactly this fragment exists it is replaced; nested
    /// entries (deeper fragments or deeper directories) are left alone, so
    /// previously delegated sub-subtrees keep their authority — matching
    /// CephFS, where migrating a subtree does not recall its nested bounds.
    pub fn set_authority(&mut self, key: FragKey, rank: MdsRank) {
        let dir_entries = self.entries.entry(key.dir).or_default();
        match dir_entries.iter_mut().find(|(f, _)| *f == key.frag) {
            Some(slot) => slot.1 = rank,
            None => dir_entries.push((key.frag, rank)),
        }
        self.generation += 1;
    }

    /// Removes the entry for exactly `(dir, frag)` if present, letting the
    /// region fall back to the enclosing subtree's authority.
    pub fn clear_authority(&mut self, key: FragKey) -> bool {
        let Some(dir_entries) = self.entries.get_mut(&key.dir) else {
            return false;
        };
        let before = dir_entries.len();
        dir_entries.retain(|(f, _)| *f != key.frag);
        let removed = dir_entries.len() != before;
        if dir_entries.is_empty() {
            self.entries.remove(&key.dir);
        }
        if removed {
            self.generation += 1;
        }
        removed
    }

    /// Authority of the child of `dir` whose dentry hash is `hash`, assuming
    /// `dir` itself is served by `dir_auth`. Shared with
    /// [`crate::AuthorityCache`], whose memo replays exactly this recurrence.
    pub(crate) fn child_authority(&self, dir: InodeId, hash: u32, dir_auth: MdsRank) -> MdsRank {
        self.entries_of(dir).child_authority(hash, dir_auth)
    }

    /// The entries on `dir` (empty when it has none).
    fn entries_of(&self, dir: InodeId) -> DirEntries<'_> {
        DirEntries(self.entries.get(&dir).map_or(&[], Vec::as_slice))
    }

    /// Every directory that carries entries, with its entries, in
    /// ascending id order: the order of [`Namespace::dir_ids`], so one
    /// merge-walk of the two pairs each directory with its entries.
    pub fn dir_entries(&self) -> impl Iterator<Item = (InodeId, DirEntries<'_>)> {
        self.entries.iter().map(|(dir, v)| (*dir, DirEntries(v)))
    }

    /// The MDS rank authoritative for inode `ino`.
    ///
    /// Walks parent links recursively instead of materialising the
    /// root-to-`ino` path: this runs once per metadata op on the client
    /// cache-hit path, and the `path_chain` Vec it used to allocate per
    /// call dominated the resolve cost. Recursion depth equals namespace
    /// depth (tens of frames at most).
    pub fn authority(&self, ns: &Namespace, ino: InodeId) -> MdsRank {
        match ns.inode(ino).parent() {
            None => self.root_rank,
            Some(dir) => {
                let dir_auth = self.authority(ns, dir);
                self.child_authority(dir, dentry_hash(ino.raw()), dir_auth)
            }
        }
    }

    /// Authority of every inode along the path from `/` to `ino`, inclusive.
    pub fn authority_chain(&self, ns: &Namespace, ino: InodeId) -> Vec<MdsRank> {
        let chain = ns.path_chain(ino);
        let mut out = Vec::with_capacity(chain.len());
        let mut auth = self.root_rank;
        out.push(auth);
        for pair in chain.windows(2) {
            let (dir, child) = (pair[0], pair[1]);
            auth = self.child_authority(dir, dentry_hash(child.raw()), auth);
            out.push(auth);
        }
        out
    }

    /// Rank of the entry keyed on exactly `(dir, frag)`, if any.
    pub fn explicit_entry_rank(&self, dir: InodeId, frag: &Frag) -> Option<MdsRank> {
        self.entries_of(dir).explicit_rank(frag)
    }

    /// Rank of the deepest entry on `dir` whose fragment covers `frag`
    /// entirely, if any.
    pub fn covering_entry_rank(&self, dir: InodeId, frag: &Frag) -> Option<MdsRank> {
        self.entries_of(dir).covering_rank(frag)
    }

    /// The rank serving the children of `dir` that fall inside `frag`:
    /// the covering entry if one exists, otherwise the authority the
    /// directory inode itself resolves to. This is the authority of the
    /// dirfrag subtree `(dir, frag)` as a migration unit.
    pub fn frag_authority(&self, ns: &Namespace, dir: InodeId, frag: &Frag) -> MdsRank {
        self.covering_entry_rank(dir, frag)
            .unwrap_or_else(|| self.authority(ns, dir))
    }

    /// All explicit subtree roots currently assigned to `rank`.
    pub fn subtree_roots_of(&self, rank: MdsRank) -> Vec<FragKey> {
        let mut out: Vec<FragKey> = self
            .entries
            .iter()
            .flat_map(|(dir, v)| {
                v.iter()
                    .filter(move |(_, r)| *r == rank)
                    .map(move |(f, _)| FragKey {
                        dir: *dir,
                        frag: *f,
                    })
            })
            .collect();
        out.sort_by_key(|k| (k.dir, k.frag));
        out
    }

    /// All explicit subtree roots with their ranks.
    pub fn all_entries(&self) -> Vec<(FragKey, MdsRank)> {
        let mut out: Vec<(FragKey, MdsRank)> = self
            .entries
            .iter()
            .flat_map(|(dir, v)| {
                v.iter().map(move |(f, r)| {
                    (
                        FragKey {
                            dir: *dir,
                            frag: *f,
                        },
                        *r,
                    )
                })
            })
            .collect();
        out.sort_by_key(|(k, _)| (k.dir, k.frag));
        out
    }

    /// Counts how many inodes each of the first `n_mds` ranks is
    /// authoritative for. O(total inodes × depth); used for reporting
    /// (Fig 14a), not on the simulation hot path.
    pub fn inode_counts(&self, ns: &Namespace, n_mds: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_mds];
        for idx in 0..ns.len() {
            let ino = InodeId::from_index(idx);
            if !ns.inode(ino).is_alive() {
                continue;
            }
            let rank = self.authority(ns, ino);
            if rank.index() < n_mds {
                counts[rank.index()] += 1;
            }
        }
        counts
    }

    /// Removes redundant authority entries: an entry whose rank equals the
    /// rank its region would inherit anyway contributes nothing but path
    /// fragmentation (extra boundary crossings on traversals). CephFS's
    /// subtree map performs the same coalescing when bounds collapse.
    /// Returns the number of entries removed.
    ///
    /// One pass removes every redundant entry. A hash inside an entry's
    /// fragment resolves to a deeper entry containing it, or to the entry
    /// itself, or, once the entry is gone, to its inherited rank; so
    /// removing an entry whose rank equals its inherited rank changes no
    /// inode's effective authority. Another entry's inherited rank is
    /// either an effective authority (unchanged) or the rank of its
    /// deepest enclosing entry on the same directory; if that was the
    /// removed entry, the next enclosing one, or the directory's
    /// authority, now answers with the same rank. So no entry's
    /// redundancy changes, and a second pass would remove nothing.
    pub fn simplify(&mut self, ns: &Namespace) -> usize {
        let redundant: Vec<FragKey> = self
            .entries
            .iter()
            .flat_map(|(&dir, v)| {
                v.iter()
                    .map(move |&(frag, rank)| (FragKey { dir, frag }, rank))
            })
            .filter(|(key, rank)| self.inherited_rank(ns, key) == *rank)
            .map(|(key, _)| key)
            .collect();
        self.clear_all(&redundant)
    }

    /// [`SubtreeMap::simplify`] after a batch of commits that set the
    /// entries `rekeyed`, on a map that had no redundant entry before the
    /// batch. Only the entries whose inherited rank comes from a re-keyed
    /// one are checked: each re-keyed entry itself, the deeper entries on
    /// its directory inside its fragment, and every entry on a directory
    /// its region reaches without crossing another entry.
    ///
    /// An entry's inherited rank is the rank of the first entry above it:
    /// the deepest other entry on its directory enclosing its fragment,
    /// else the entry that decides its directory's authority. Setting
    /// `K → to` changes that first entry, or its rank, only for the
    /// entries listed above, and only to `to`. Every other entry keeps its
    /// rank and its inherited rank, so one that was not redundant still is
    /// not.
    ///
    /// The walk visits the directories of each region down to the next
    /// entries, which is no more than the inodes the commit moved.
    pub fn simplify_after(&mut self, ns: &Namespace, rekeyed: &[FragKey]) -> usize {
        let mut redundant: Vec<FragKey> = Vec::new();
        for key in rekeyed {
            self.redundant_under(ns, key, &mut redundant);
        }
        self.clear_all(&redundant)
    }

    /// Adds to `redundant`, once each, the redundant entries among those
    /// whose inherited rank may come from the entry on `key` (see
    /// [`SubtreeMap::simplify_after`]).
    fn redundant_under(&self, ns: &Namespace, key: &FragKey, redundant: &mut Vec<FragKey>) {
        let mut check = |k: FragKey, rank: MdsRank| {
            if self.inherited_rank(ns, &k) == rank && !redundant.contains(&k) {
                redundant.push(k);
            }
        };
        let own = self.entries_of(key.dir);
        for (frag, rank) in own.iter() {
            if key.frag.contains_frag(&frag) {
                check(FragKey { dir: key.dir, frag }, rank);
            }
        }
        // The subdirectories whose deepest covering entry is `key`'s, then
        // everything below them that no entry covers.
        let deepest_is_key = |d: &InodeId| {
            let hash = dentry_hash(d.raw());
            own.iter()
                .filter(|(f, _)| f.contains_hash(hash))
                .all(|(f, _)| f.bits() <= key.frag.bits())
        };
        let mut reached: Vec<InodeId> = ns
            .subdirs_in_frag(key.dir, &key.frag)
            .filter(deepest_is_key)
            .collect();
        while let Some(dir) = reached.pop() {
            let entries = self.entries_of(dir);
            for (frag, rank) in entries.iter() {
                check(FragKey { dir, frag }, rank);
            }
            let uncovered = |d: &InodeId| {
                let hash = dentry_hash(d.raw());
                !entries.iter().any(|(f, _)| f.contains_hash(hash))
            };
            reached.extend(ns.subdirs_in_frag(dir, &Frag::root()).filter(uncovered));
        }
    }

    /// Clears every entry in `keys` and returns how many there were.
    /// Removing a redundant entry changes no other's redundancy (see
    /// [`SubtreeMap::simplify`]), so callers find them all first.
    fn clear_all(&mut self, keys: &[FragKey]) -> usize {
        for key in keys {
            self.clear_authority(*key);
        }
        keys.len()
    }

    /// The rank the region of entry `key` resolves to without it: the
    /// deepest other entry on `key.dir` enclosing its fragment, else the
    /// authority of the directory inode.
    fn inherited_rank(&self, ns: &Namespace, key: &FragKey) -> MdsRank {
        self.entries
            .get(&key.dir)
            .and_then(|v| {
                v.iter()
                    .filter(|(f, _)| *f != key.frag && f.contains_frag(&key.frag))
                    .max_by_key(|(f, _)| f.bits())
                    .map(|(_, r)| *r)
            })
            .unwrap_or_else(|| self.authority(ns, key.dir))
    }

    /// Inserts a raw `(frag, rank)` entry for `key.dir` bypassing the
    /// dedup/replace logic of [`SubtreeMap::set_authority`] and without
    /// bumping the generation. Exists only so `lunule-verify` tests can
    /// fabricate corrupted maps; never called by the simulator.
    #[doc(hidden)]
    pub fn fault_inject_entry(&mut self, key: FragKey, rank: MdsRank) {
        self.entries
            .entry(key.dir)
            .or_default()
            .push((key.frag, rank));
    }

    /// Overwrites the generation counter — including backwards, which the
    /// public API can never do. Fault injection for `lunule-verify` tests.
    #[doc(hidden)]
    pub fn fault_set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Writes the authority table — including the exact generation
    /// counter, which client caches key their invalidation on — to a
    /// snapshot section.
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        let dirs: Vec<(&InodeId, &Vec<(Frag, MdsRank)>)> = self.entries.iter().collect();
        e.put_seq(&dirs, |e, (dir, v)| {
            e.put_u64(dir.raw());
            e.put_seq(v, |e, (f, r)| {
                f.encode(e);
                e.put_u16(r.0);
            });
        });
        e.put_u16(self.root_rank.0);
        e.put_u64(self.generation);
    }

    /// Reads an authority table back, rejecting duplicate per-directory
    /// fragments as corruption.
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<SubtreeMap, lunule_util::codec::CodecError> {
        use lunule_util::codec::CodecError;
        let dirs = d.get_seq("subtree entries", |d| {
            let raw = d.get_u64("subtree dir id")?;
            let dir = u32::try_from(raw)
                .map(InodeId)
                .map_err(|_| CodecError::Invalid {
                    what: "subtree dir id",
                })?;
            let v = d.get_seq("dir entries", |d| {
                let f = Frag::decode(d)?;
                let r = MdsRank(d.get_u16("entry rank")?);
                Ok((f, r))
            })?;
            Ok((dir, v))
        })?;
        let root_rank = MdsRank(d.get_u16("root rank")?);
        let generation = d.get_u64("subtree generation")?;
        let mut entries = BTreeMap::new();
        for (dir, v) in dirs {
            if v.is_empty() || entries.insert(dir, v).is_some() {
                return Err(CodecError::Invalid {
                    what: "subtree map",
                });
            }
        }
        let map = SubtreeMap {
            entries,
            root_rank,
            generation,
        };
        if !map.invariants_hold() {
            return Err(CodecError::Invalid {
                what: "subtree map",
            });
        }
        Ok(map)
    }

    /// Checks that every explicit entry's fragment value is well-formed and
    /// that per-directory entries never duplicate a fragment. Exposed for
    /// property tests.
    pub fn invariants_hold(&self) -> bool {
        for dir_entries in self.entries.values() {
            for (i, (f, _)) in dir_entries.iter().enumerate() {
                for (g, _) in &dir_entries[i + 1..] {
                    if f == g {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Namespace, InodeId, InodeId, InodeId, InodeId) {
        // /           (mds.0)
        //   a/        -> delegated to mds.1
        //     a1/     -> nested delegation to mds.2
        //       f
        //   b/        (stays mds.0)
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let a1 = ns.mkdir(a, "a1").unwrap();
        let f = ns.create_file(a1, "f", 10).unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        (ns, a, a1, f, b)
    }

    #[test]
    fn default_everything_on_root_rank() {
        let (ns, a, _, f, _) = fixture();
        let map = SubtreeMap::new(MdsRank(0));
        assert_eq!(map.authority(&ns, InodeId::ROOT), MdsRank(0));
        assert_eq!(map.authority(&ns, a), MdsRank(0));
        assert_eq!(map.authority(&ns, f), MdsRank(0));
        assert_eq!(map.authority_chain(&ns, f), vec![MdsRank(0); 4]);
    }

    #[test]
    fn set_root_rank_rewrites_default() {
        let (ns, a, _, f, b) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        let gen = map.generation();
        map.set_root_rank(MdsRank(2));
        assert!(map.generation() > gen, "rewrite must bump the generation");
        // Everything outside the explicit entry follows the new default —
        // including the root inode itself, which no entry can shadow.
        assert_eq!(map.authority(&ns, InodeId::ROOT), MdsRank(2));
        assert_eq!(map.authority(&ns, b), MdsRank(2));
        assert_eq!(map.authority(&ns, f), MdsRank(1), "entry survives");
        // Re-pointing at the same rank is a no-op.
        let gen = map.generation();
        map.set_root_rank(MdsRank(2));
        assert_eq!(map.generation(), gen);
    }

    #[test]
    fn delegation_and_nesting() {
        let (ns, a, a1, f, b) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        // Delegate subtree rooted at dir `a` (i.e. the dirfrag (a, root)).
        map.set_authority(FragKey::whole(a), MdsRank(1));
        // `a` dir inode itself stays on the parent subtree's authority path:
        // the entry is keyed on `a`, so it affects a's children, not `a`.
        assert_eq!(map.authority(&ns, a), MdsRank(0));
        assert_eq!(map.authority(&ns, a1), MdsRank(1));
        assert_eq!(map.authority(&ns, f), MdsRank(1));
        assert_eq!(map.authority(&ns, b), MdsRank(0));
        // Nested delegation overrides below its bound.
        map.set_authority(FragKey::whole(a1), MdsRank(2));
        assert_eq!(map.authority(&ns, a1), MdsRank(1));
        assert_eq!(map.authority(&ns, f), MdsRank(2));
        // Path /a/a1/f crosses 0->1 (at a1) and 1->2 (at f).
        let path = [MdsRank(0), MdsRank(0), MdsRank(1), MdsRank(2)];
        assert_eq!(map.authority_chain(&ns, f), path);
    }

    #[test]
    fn clear_falls_back_to_enclosing() {
        let (ns, a, _, f, _) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        assert_eq!(map.authority(&ns, f), MdsRank(1));
        assert!(map.clear_authority(FragKey::whole(a)));
        assert_eq!(map.authority(&ns, f), MdsRank(0));
        assert!(!map.clear_authority(FragKey::whole(a)));
    }

    #[test]
    fn frag_level_delegation_splits_children() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "big").unwrap();
        let kids: Vec<_> = (0..200)
            .map(|i| ns.create_file(d, &format!("f{i}"), 0).unwrap())
            .collect();
        ns.split_frag(d, &Frag::root(), 1).unwrap();
        let (left, right) = Frag::root().split_in_two();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey { dir: d, frag: left }, MdsRank(1));
        let mut on1 = 0;
        for k in &kids {
            let auth = map.authority(&ns, *k);
            let frag = ns.frag_of_child(d, *k);
            if frag == left {
                assert_eq!(auth, MdsRank(1));
                on1 += 1;
            } else {
                assert_eq!(frag, right);
                assert_eq!(auth, MdsRank(0));
            }
        }
        assert!(on1 > 0 && on1 < 200);
    }

    #[test]
    fn deeper_frag_wins() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "big").unwrap();
        let kids: Vec<_> = (0..64)
            .map(|i| ns.create_file(d, &format!("f{i}"), 0).unwrap())
            .collect();
        let (left, _) = Frag::root().split_in_two();
        let (ll, _) = left.split_in_two();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey { dir: d, frag: left }, MdsRank(1));
        map.set_authority(FragKey { dir: d, frag: ll }, MdsRank(2));
        for k in kids {
            let h = ns.dentry_hash_of(k);
            let expect = if ll.contains_hash(h) {
                MdsRank(2)
            } else if left.contains_hash(h) {
                MdsRank(1)
            } else {
                MdsRank(0)
            };
            assert_eq!(map.authority(&ns, k), expect);
        }
    }

    #[test]
    fn generation_bumps_on_change() {
        let (_, a, _, _, _) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        let g0 = map.generation();
        map.set_authority(FragKey::whole(a), MdsRank(1));
        assert!(map.generation() > g0);
        let g1 = map.generation();
        map.clear_authority(FragKey::whole(a));
        assert!(map.generation() > g1);
    }

    #[test]
    fn subtree_roots_of_reports_assignments() {
        let (_, a, a1, _, b) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        map.set_authority(FragKey::whole(a1), MdsRank(1));
        map.set_authority(FragKey::whole(b), MdsRank(2));
        assert_eq!(map.subtree_roots_of(MdsRank(1)).len(), 2);
        assert_eq!(map.subtree_roots_of(MdsRank(2)), vec![FragKey::whole(b)]);
        assert_eq!(map.entry_count(), 3);
        assert!(map.invariants_hold());
    }

    #[test]
    fn simplify_removes_redundant_entries() {
        let (ns, a, a1, f, b) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        // Redundant: same rank as the fallback.
        map.set_authority(FragKey::whole(b), MdsRank(0));
        // Meaningful chain: a -> rank 1, nested a1 -> rank 1 (redundant),
        // because a1 inherits rank 1 through a's entry.
        map.set_authority(FragKey::whole(a), MdsRank(1));
        map.set_authority(FragKey::whole(a1), MdsRank(1));
        let before_f = map.authority(&ns, f);
        let removed = map.simplify(&ns);
        assert_eq!(removed, 2, "both redundant entries go");
        assert_eq!(map.entry_count(), 1);
        assert_eq!(map.authority(&ns, f), before_f);
        assert_eq!(map.authority(&ns, a1), MdsRank(1));
    }

    #[test]
    fn simplify_keeps_meaningful_nesting() {
        let (ns, a, a1, f, _) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        map.set_authority(FragKey::whole(a1), MdsRank(2));
        assert_eq!(map.simplify(&ns), 0);
        assert_eq!(map.authority(&ns, f), MdsRank(2));
    }

    /// The fixpoint loop `simplify` replaced, kept as its oracle: passes
    /// until one removes nothing.
    fn simplify_to_fixpoint(map: &mut SubtreeMap, ns: &Namespace) -> usize {
        let mut removed_total = 0;
        loop {
            let mut removed = 0;
            for (key, rank) in map.all_entries() {
                if map.inherited_rank(ns, &key) == rank {
                    map.clear_authority(key);
                    removed += 1;
                }
            }
            removed_total += removed;
            if removed == 0 {
                return removed_total;
            }
        }
    }

    /// A random directory tree: the root plus up to eleven directories.
    fn random_dirs(rng: &mut lunule_util::DetRng) -> (Namespace, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut dirs = vec![InodeId::ROOT];
        for i in 0..rng.gen_range(1..12) {
            let parent = dirs[rng.gen_range(0..dirs.len())];
            dirs.push(ns.mkdir_total(parent, &format!("d{i}")));
        }
        (ns, dirs)
    }

    /// A random entry key: any directory, up to three bits deep, so one
    /// directory's entries nest.
    fn random_key(rng: &mut lunule_util::DetRng, dirs: &[InodeId]) -> FragKey {
        let dir = dirs[rng.gen_range(0..dirs.len())];
        let mut frag = Frag::root();
        for _ in 0..rng.gen_range(0..4) {
            let (l, r) = frag.split_in_two();
            frag = if rng.gen_bool() { l } else { r };
        }
        FragKey { dir, frag }
    }

    #[test]
    fn one_simplify_pass_reaches_the_fixpoint() {
        lunule_util::propcheck::run(256, |rng| {
            let (ns, dirs) = random_dirs(rng);
            let mut map = SubtreeMap::new(MdsRank(0));
            for _ in 0..rng.gen_range(0..24) {
                let rank = MdsRank::from_index(rng.gen_range(0..3));
                if rng.gen_ratio(0.1) {
                    map.set_root_rank(rank);
                    continue;
                }
                map.set_authority(random_key(rng, &dirs), rank);
            }
            let mut looped = map.clone();
            let looped_removed = simplify_to_fixpoint(&mut looped, &ns);
            assert_eq!(map.simplify(&ns), looped_removed);
            assert_eq!(map.all_entries(), looped.all_entries());
            assert_eq!(map.generation(), looped.generation());
            assert_eq!(map.simplify(&ns), 0);
        });
    }

    /// A key whose region encloses `inner`'s: on `inner.dir` with a
    /// strictly coarser fragment, or on a proper ancestor directory with
    /// a fragment of up to three bits that contains the path to it.
    /// `None` for an entry on the whole root directory.
    fn enclosing_key(
        rng: &mut lunule_util::DetRng,
        ns: &Namespace,
        inner: &FragKey,
    ) -> Option<FragKey> {
        let chain = ns.path_chain(inner.dir);
        if !inner.frag.is_root() && (chain.len() < 2 || rng.gen_bool()) {
            let up = u8::try_from(rng.gen_range(1..usize::from(inner.frag.bits()) + 1)).unwrap();
            let frag = Frag::new(inner.frag.value() >> up, inner.frag.bits() - up);
            return Some(FragKey {
                dir: inner.dir,
                frag,
            });
        }
        if chain.len() < 2 {
            return None;
        }
        let at = rng.gen_range(0..chain.len() - 1);
        let hash = ns.dentry_hash_of(chain[at + 1]);
        let bits = u8::try_from(rng.gen_range(0..4)).unwrap();
        let frag = Frag::new(hash >> (crate::HASH_BITS - bits), bits);
        Some(FragKey {
            dir: chain[at],
            frag,
        })
    }

    /// From a simplified map, a batch of commits followed by
    /// `simplify_after` with the batch's keys removes exactly what the
    /// global `simplify` removes. A quarter of the commits take the rank of
    /// an existing entry onto a key enclosing it, on the same directory or
    /// on an ancestor's fragment, so the batch may make deeper entries
    /// redundant.
    #[test]
    fn simplify_after_a_batch_matches_the_global_simplify() {
        let mut removing_batches = 0;
        let (mut same_dir, mut ancestor_dir) = (0, 0);
        lunule_util::propcheck::run(512, |rng| {
            let (ns, dirs) = random_dirs(rng);
            let mut map = SubtreeMap::new(MdsRank::from_index(rng.gen_range(0..4)));
            for _ in 0..rng.gen_range(0..24) {
                let rank = MdsRank::from_index(rng.gen_range(0..4));
                map.set_authority(random_key(rng, &dirs), rank);
            }
            map.simplify(&ns);
            let mut rekeyed = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let entries = map.all_entries();
                let pick = (!entries.is_empty()).then(|| entries[rng.gen_range(0..entries.len())]);
                let (key, to) = match (pick, rng.gen_range(0..4)) {
                    // A quarter of the commits enclose an entry with its rank.
                    (Some((inner, rank)), 0) => match enclosing_key(rng, &ns, &inner) {
                        Some(key) => (key, rank),
                        None => (random_key(rng, &dirs), rank),
                    },
                    // Half the rest re-key an existing entry.
                    (Some((key, _)), _) if rng.gen_bool() => {
                        (key, MdsRank::from_index(rng.gen_range(0..4)))
                    }
                    _ => (
                        random_key(rng, &dirs),
                        MdsRank::from_index(rng.gen_range(0..4)),
                    ),
                };
                map.set_authority(key, to);
                rekeyed.push(key);
            }
            let entries = map.all_entries();
            let encloses = |same: bool| {
                rekeyed.iter().any(|k| {
                    let to = map.explicit_entry_rank(k.dir, &k.frag);
                    entries.iter().any(|(e, rank)| {
                        let inside = if same {
                            e.dir == k.dir && e.frag != k.frag && k.frag.contains_frag(&e.frag)
                        } else {
                            e.dir != k.dir && ns.in_dirfrag(k.dir, &k.frag, e.dir)
                        };
                        inside && Some(*rank) == to
                    })
                })
            };
            same_dir += usize::from(encloses(true));
            ancestor_dir += usize::from(encloses(false));
            let mut global = map.clone();
            let want = global.simplify(&ns);
            assert_eq!(map.simplify_after(&ns, &rekeyed), want);
            assert_eq!(map.all_entries(), global.all_entries());
            assert_eq!(map.generation(), global.generation());
            removing_batches += usize::from(want > 0);
        });
        assert!(
            removing_batches >= 50,
            "only {removing_batches} batches removed entries"
        );
        for (shape, n) in [
            ("same-directory", same_dir),
            ("ancestor-directory", ancestor_dir),
        ] {
            assert!(
                n >= 30,
                "only {n} batches had a {shape} key enclosing a same-rank entry"
            );
        }
    }

    #[test]
    fn codec_round_trip_preserves_generation() {
        let (ns, a, a1, f, _) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        map.set_authority(FragKey::whole(a1), MdsRank(2));
        map.set_root_rank(MdsRank(3));
        let mut e = lunule_util::codec::Encoder::new();
        map.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = lunule_util::codec::Decoder::new(&bytes);
        let back = SubtreeMap::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.generation(), map.generation());
        assert_eq!(back.root_rank(), MdsRank(3));
        assert_eq!(back.all_entries(), map.all_entries());
        assert_eq!(back.authority(&ns, f), map.authority(&ns, f));
        let mut e2 = lunule_util::codec::Encoder::new();
        back.encode(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn inode_counts_sum_to_namespace() {
        let (ns, a, _, _, _) = fixture();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        let counts = map.inode_counts(&ns, 3);
        assert_eq!(counts.iter().sum::<usize>(), ns.len());
        assert_eq!(counts[1], 2); // a1 and f
    }
}
