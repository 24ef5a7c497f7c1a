//! Tick-scoped memoization of subtree-map authority walks.
//!
//! [`SubtreeMap::authority`] recurses from the inode to the root on every
//! call; the simulator calls it (directly or through the chain variant)
//! once per metadata op, and with deep paths and millions of ops per tick
//! the repeated ancestor walks dominate the resolve phase. Between two
//! subtree-map mutations the answers cannot change, so [`AuthorityCache`]
//! memoizes them in a dense [`PagedMap`] keyed by inode index and
//! invalidates the whole memo in O(1) whenever
//! [`SubtreeMap::generation`] moves — the map bumps it on every mutation.
//!
//! Namespace mutations never invalidate the memo: inode ids are
//! never reused (unlink tombstones the arena slot), parent links are
//! immutable once created, and a freshly created inode occupies a fresh
//! index whose memo entry cannot exist yet. Only the subtree map decides
//! authority, and every mutation of it bumps the generation.
//!
//! The fill is path-compressing: resolving an inode memoizes every
//! ancestor along the way, so sibling lookups (the common case — ops
//! cluster in directories) are O(1) after the first.

use crate::frag::dentry_hash;
use crate::inode::InodeId;
use crate::subtree::{MdsRank, SubtreeMap};
use crate::tree::Namespace;
use lunule_util::intern::PagedMap;

#[inline]
fn encode_rank(r: MdsRank) -> u32 {
    u32::from(r.0)
}

#[inline]
fn decode_rank(v: u32) -> MdsRank {
    MdsRank(u16::try_from(v).unwrap_or(u16::MAX))
}

/// A memoized view of [`SubtreeMap::authority`], valid for one subtree-map
/// generation and refreshed automatically when the generation moves.
///
/// Both entry points ([`AuthorityCache::authority`],
/// [`AuthorityCache::chain`]) fill the memo as they go.
#[derive(Clone, Default)]
pub struct AuthorityCache {
    /// Subtree-map generation the memo was built against.
    map_generation: u64,
    /// False until the first sync; distinguishes "never primed" from
    /// "primed at generation 0".
    synced: bool,
    /// inode index → memoized authority rank.
    memo: PagedMap,
    /// Walk-up scratch, reused across calls.
    stack: Vec<InodeId>,
    /// Chain scratch backing [`AuthorityCache::chain`].
    chain_buf: Vec<MdsRank>,
}

impl AuthorityCache {
    /// An empty cache; the first lookup primes it.
    #[must_use]
    pub fn new() -> AuthorityCache {
        AuthorityCache::default()
    }

    /// Drops the memo if `map` has mutated since it was built.
    fn sync(&mut self, map: &SubtreeMap) {
        if !self.synced || self.map_generation != map.generation() {
            self.memo.clear();
            self.map_generation = map.generation();
            self.synced = true;
        }
    }

    /// Memoized [`SubtreeMap::authority`]: same answer, amortized O(1).
    pub fn authority(&mut self, map: &SubtreeMap, ns: &Namespace, ino: InodeId) -> MdsRank {
        self.sync(map);
        if let Some(v) = self.memo.get(ino.index()) {
            return decode_rank(v);
        }
        // Walk up to the nearest memoized ancestor (or the root),
        // collecting the unresolved suffix of the path.
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        let mut cur = ino;
        let mut auth;
        loop {
            if let Some(v) = self.memo.get(cur.index()) {
                auth = decode_rank(v);
                break;
            }
            match ns.inode(cur).parent() {
                Some(p) => {
                    stack.push(cur);
                    cur = p;
                }
                None => {
                    auth = map.root_rank();
                    self.memo.set(cur.index(), encode_rank(auth));
                    break;
                }
            }
        }
        // Fill back down, memoizing every level (path compression).
        let mut dir = cur;
        while let Some(child) = stack.pop() {
            auth = map.child_authority(dir, dentry_hash(child.raw()), auth);
            self.memo.set(child.index(), encode_rank(auth));
            dir = child;
        }
        self.stack = stack;
        auth
    }

    /// Memoized [`SubtreeMap::authority_chain`]: the authority of every
    /// inode on the path `/ → ino`, inclusive, as a borrowed slice (the
    /// buffer is internal scratch, valid until the next call).
    pub fn chain(&mut self, map: &SubtreeMap, ns: &Namespace, ino: InodeId) -> &[MdsRank] {
        self.authority(map, ns, ino); // primes the whole path
        let mut buf = std::mem::take(&mut self.chain_buf);
        buf.clear();
        let mut cur = ino;
        loop {
            match self.memo.get(cur.index()) {
                Some(v) => buf.push(decode_rank(v)),
                // Unreachable: `authority` memoized the full path above.
                None => buf.push(map.root_rank()),
            }
            match ns.inode(cur).parent() {
                Some(p) => cur = p,
                None => break,
            }
        }
        buf.reverse();
        self.chain_buf = buf;
        &self.chain_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_util::propcheck;

    /// A 3-level namespace with a few subtree-map entries.
    fn setup() -> (Namespace, SubtreeMap, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut all = Vec::new();
        let mut map = SubtreeMap::new(MdsRank(0));
        for d in 0..4 {
            let dir = ns.mkdir_total(InodeId::ROOT, &format!("d{d}"));
            all.push(dir);
            let sub = ns.mkdir_total(dir, "sub");
            all.push(sub);
            for f in 0..6 {
                all.push(ns.create_file_total(sub, &format!("f{f}"), 1));
            }
            if d % 2 == 0 {
                map.set_authority(FragKey::whole(dir), MdsRank(1));
            }
            if d == 1 {
                map.set_authority(FragKey::whole(sub), MdsRank(2));
            }
        }
        (ns, map, all)
    }

    use crate::subtree::FragKey;

    #[test]
    fn matches_live_authority_for_every_inode() {
        let (ns, map, all) = setup();
        let mut cache = AuthorityCache::new();
        for &ino in &all {
            assert_eq!(cache.authority(&map, &ns, ino), map.authority(&ns, ino));
        }
        // Second pass: pure memo hits, same answers.
        for &ino in &all {
            assert_eq!(cache.authority(&map, &ns, ino), map.authority(&ns, ino));
        }
        assert_eq!(
            cache.authority(&map, &ns, InodeId::ROOT),
            map.root_rank(),
            "root resolves to the root rank"
        );
    }

    #[test]
    fn chain_matches_live_chain() {
        let (ns, map, all) = setup();
        let mut cache = AuthorityCache::new();
        for &ino in &all {
            let live = map.authority_chain(&ns, ino);
            assert_eq!(cache.chain(&map, &ns, ino), live.as_slice());
        }
    }

    #[test]
    fn invalidates_on_generation_bump() {
        let (ns, mut map, all) = setup();
        let mut cache = AuthorityCache::new();
        // `all[1]` is the child of `all[0]`: re-pointing the parent's
        // fragment moves the child's authority.
        let target = all[1];
        let before = cache.authority(&map, &ns, target);
        map.set_authority(FragKey::whole(all[0]), MdsRank(3));
        let live = map.authority(&ns, target);
        assert_ne!(before, live, "the mutation must change the answer");
        assert_eq!(
            cache.authority(&map, &ns, target),
            live,
            "stale memo must not serve the new generation"
        );
    }

    #[test]
    fn prop_matches_live_under_random_maps() {
        propcheck::run(64, |rng| {
            let mut ns = Namespace::new();
            let mut dirs = vec![InodeId::ROOT];
            let mut files = Vec::new();
            let n_dirs = 2 + (rng.next_u64() % 12);
            for d in 0..n_dirs {
                let parent = dirs[rng.gen_range(0..dirs.len())];
                let dir = ns.mkdir_total(parent, &format!("d{d}"));
                dirs.push(dir);
                for f in 0..(rng.next_u64() % 4) {
                    files.push(ns.create_file_total(dir, &format!("f{f}"), 1));
                }
            }
            let mut map = SubtreeMap::new(MdsRank(0));
            for &dir in &dirs {
                if rng.next_u64() % 3 == 0 {
                    let rank = MdsRank(u16::try_from(rng.next_u64() % 5).unwrap_or(0));
                    map.set_authority(FragKey::whole(dir), rank);
                }
            }
            let mut cache = AuthorityCache::new();
            let mut all = dirs.clone();
            all.extend_from_slice(&files);
            for &ino in &all {
                assert_eq!(cache.authority(&map, &ns, ino), map.authority(&ns, ino));
                assert_eq!(
                    cache.chain(&map, &ns, ino),
                    map.authority_chain(&ns, ino).as_slice()
                );
            }
            // Mutate, then re-check: the memo must resync.
            let victim = dirs[rng.gen_range(0..dirs.len())];
            map.set_authority(FragKey::whole(victim), MdsRank(7));
            for &ino in &all {
                assert_eq!(cache.authority(&map, &ns, ino), map.authority(&ns, ino));
            }
        });
    }
}
