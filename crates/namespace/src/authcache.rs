//! Memoization of subtree-map authority walks and per-directory routes.
//!
//! [`SubtreeMap::authority`] recurses from the inode to the root on every
//! call; the simulator calls it (directly or through the chain variant)
//! once per metadata op, and with deep paths and millions of ops per tick
//! the repeated ancestor walks dominate the resolve phase. Between two
//! subtree-map mutations the answers cannot change, so [`AuthorityCache`]
//! memoizes them in a dense [`PagedMap`] keyed by inode index.
//!
//! Beside it sits a *route table* per directory: each live fragment of the
//! directory with the rank that serves the children hashing into it. An
//! op's route ([`AuthorityCache::child_route`]) is then one memo probe and
//! a scan of a few entries instead of a fragment lookup in the namespace
//! plus an entry lookup in the subtree map. The directory's memo entry
//! holds the table's number beside its authority, so the tables add no
//! index of their own.
//!
//! Both memos are keyed on the pair of [`SubtreeMap::generation`] and
//! [`Namespace::generation`], and are dropped in O(1) whenever either
//! moves. The map bumps its generation on every mutation. The namespace
//! bumps its own on the one mutation that can move a memoized answer: a
//! fragment split changes a directory's fragments. Parent links never
//! change (nothing renames or removes a directory), so creates and
//! unlinks do not bump it: inode ids are never reused (unlink tombstones
//! the arena slot), and a freshly created inode occupies a fresh index
//! whose memo entries cannot exist yet.
//!
//! The authority fill is path-compressing: resolving an inode memoizes
//! every ancestor along the way, so sibling lookups (the common case — ops
//! cluster in directories) are O(1) after the first.
//!
//! One cache serves one namespace and map pair: the generations identify
//! states of that pair, not of any other.

use crate::frag::{dentry_hash, Frag};
use crate::inode::InodeId;
use crate::subtree::{MdsRank, SubtreeMap};
use crate::tree::Namespace;
use lunule_util::convert::{u32_to_usize, usize_to_u32};
use lunule_util::intern::PagedMap;

/// Most route tables one generation holds. A directory's memo entry
/// carries its authority rank in the low 16 bits and its table number
/// (position in `spans` plus one, 0 for none) in the high 16, so one
/// probe finds both; past this many tables both memos start over.
const MAX_TABLES: usize = 0xFFFF;

#[inline]
fn encode_rank(r: MdsRank) -> u32 {
    u32::from(r.0)
}

#[inline]
fn decode_rank(v: u32) -> MdsRank {
    MdsRank(u16::try_from(v & 0xFFFF).unwrap_or(u16::MAX))
}

/// A memoized view of [`SubtreeMap::authority`] and of the per-fragment
/// authority of each directory's children, valid for one `(map,
/// namespace)` generation pair and refreshed automatically when either
/// moves.
///
/// Every entry point ([`AuthorityCache::authority`],
/// [`AuthorityCache::chain`], [`AuthorityCache::child_route`]) fills the
/// memos as it goes.
#[derive(Clone, Default)]
pub struct AuthorityCache {
    /// `(subtree-map generation, namespace generation)` the memos were
    /// built against.
    generations: (u64, u64),
    /// False until the first sync; distinguishes "never primed" from
    /// "primed at generation 0".
    synced: bool,
    /// inode index → memoized authority rank, plus the route table number
    /// of a directory that has one (see [`MAX_TABLES`]).
    memo: PagedMap,
    /// Per route table: `(start, len)` of its entries in `routes`.
    spans: Vec<(u32, u32)>,
    /// Route tables back to back: each live fragment of a directory, in
    /// the directory's fragment order, with the rank serving it.
    routes: Vec<(Frag, MdsRank)>,
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

    /// Drops both memos if `map` or `ns` has mutated since they were built.
    fn sync(&mut self, map: &SubtreeMap, ns: &Namespace) {
        let now = (map.generation(), ns.generation());
        if !self.synced || self.generations != now {
            self.clear();
            self.generations = now;
            self.synced = true;
        }
    }

    /// Drops both memos.
    fn clear(&mut self) {
        self.memo.clear();
        self.spans.clear();
        self.routes.clear();
    }

    /// Memoized [`SubtreeMap::authority`]: same answer, amortized O(1).
    pub fn authority(&mut self, map: &SubtreeMap, ns: &Namespace, ino: InodeId) -> MdsRank {
        self.sync(map, ns);
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

    /// The live fragment of `dir` that dentry hash `hash` falls in, and the
    /// rank serving it: the deepest subtree-map entry on `dir` covering
    /// that fragment, else the directory's own authority. This is where
    /// an op on the child of `dir` with hash `hash` is served. The first
    /// call for a directory in a generation builds its route table; later
    /// calls scan it.
    pub fn child_route(
        &mut self,
        map: &SubtreeMap,
        ns: &Namespace,
        dir: InodeId,
        hash: u32,
    ) -> (Frag, MdsRank) {
        self.sync(map, ns);
        let (start, len) = match self.memo.get(dir.index()).map(|v| v >> 16) {
            Some(table) if table > 0 => self.spans[u32_to_usize(table - 1)],
            _ => self.fill_table(map, ns, dir),
        };
        let start = u32_to_usize(start);
        let table = &self.routes[start..start + u32_to_usize(len)];
        match table.iter().find(|(f, _)| f.contains_hash(hash)) {
            Some(&hit) => hit,
            None => {
                // The fragments of a directory partition the hash space, so
                // only a corrupted fragment set misses; answer as a lookup
                // that fell back to the root fragment would.
                debug_assert!(false, "fragments of {dir:?} miss hash {hash:#x}");
                let dir_auth = self.authority(map, ns, dir);
                let root = Frag::root();
                (
                    root,
                    map.covering_entry_rank(dir, &root).unwrap_or(dir_auth),
                )
            }
        }
    }

    /// Builds and memoizes the route table of `dir`; returns its span.
    fn fill_table(&mut self, map: &SubtreeMap, ns: &Namespace, dir: InodeId) -> (u32, u32) {
        if self.spans.len() >= MAX_TABLES {
            self.clear();
        }
        let dir_auth = self.authority(map, ns, dir);
        let start = self.routes.len();
        let root = [Frag::root()];
        let frags = ns.frag_set(dir).map_or(&root[..], |set| set.frags());
        self.routes.extend(frags.iter().map(|f| {
            // An exactly matching entry covers its own fragment, so the
            // covering lookup also answers the exact-entry case.
            (*f, map.covering_entry_rank(dir, f).unwrap_or(dir_auth))
        }));
        let span = (usize_to_u32(start), usize_to_u32(self.routes.len() - start));
        self.spans.push(span);
        let table = usize_to_u32(self.spans.len()) << 16;
        self.memo.set(dir.index(), encode_rank(dir_auth) | table);
        span
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
    fn child_route_follows_fragment_entries_and_splits() {
        let (mut ns, mut map, all) = setup();
        let sub = all[1];
        let mut cache = AuthorityCache::new();
        let hashes: Vec<u32> = (0..64u64).map(dentry_hash).collect();
        let dir_auth = map.authority(&ns, sub);
        for &h in &hashes {
            assert_eq!(
                cache.child_route(&map, &ns, sub, h),
                (Frag::root(), dir_auth)
            );
        }
        // Split and pin one half: the memo must see both changes.
        let halves = ns.split_frag(sub, &Frag::root(), 1).unwrap();
        map.set_authority(
            FragKey {
                dir: sub,
                frag: halves[1],
            },
            MdsRank(4),
        );
        for &h in &hashes {
            let want = if halves[1].contains_hash(h) {
                (halves[1], MdsRank(4))
            } else {
                (halves[0], dir_auth)
            };
            assert_eq!(cache.child_route(&map, &ns, sub, h), want);
        }
    }

    #[test]
    fn route_tables_start_over_past_the_table_limit() {
        let mut ns = Namespace::new();
        let mut map = SubtreeMap::new(MdsRank(0));
        let dirs: Vec<InodeId> = (0..MAX_TABLES + 10)
            .map(|d| ns.mkdir_total(InodeId::ROOT, &format!("d{d}")))
            .collect();
        for &d in dirs.iter().step_by(7) {
            map.set_authority(FragKey::whole(d), MdsRank(3));
        }
        let mut cache = AuthorityCache::new();
        // Twice over: the second pass hits tables built after the reset.
        for _ in 0..2 {
            for &d in &dirs {
                let (_, rank) = cache.child_route(&map, &ns, d, 7);
                assert_eq!(rank, map.frag_authority(&ns, d, &Frag::root()), "{d:?}");
                assert_eq!(cache.authority(&map, &ns, d), map.authority(&ns, d));
            }
        }
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
