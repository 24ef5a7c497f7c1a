//! The namespace arena: a hierarchical tree of directories and files.

use crate::error::{NsError, NsResult};
use crate::frag::{dentry_hash, Frag, FragSet};
use crate::inode::{ChildList, FileType, Inode, InodeId};
use lunule_util::convert::{u32_to_usize, usize_to_u32};
use std::collections::BTreeMap;

/// An in-memory hierarchical filesystem namespace.
///
/// This is the substrate the CephFS MDS cluster manages: every balancer
/// decision (subtree selection, frag splitting, migration accounting) is a
/// query or mutation against this structure. Inodes live in an arena indexed
/// by [`InodeId`]; directories additionally own a [`FragSet`] once they have
/// been fragmented.
///
/// Beside the arena sit two structures derived from it, neither of them
/// serialised: a name arena holding every inode's name back to back, and a
/// directory index ([`Namespace::dir_ids`], [`Namespace::subdir_slots`])
/// that lets whole-namespace aggregations visit directories only.
///
/// The namespace only grows, except by file unlink: nothing renames or
/// removes a directory and fragments never merge. So every directory stays
/// live, and every inode's parent has a smaller id than the inode itself;
/// [`Namespace::decode`] refuses an arena that breaks either.
#[derive(Clone, Debug)]
pub struct Namespace {
    arena: Vec<Inode>,
    /// Every name ever given, back to back; an inode's `(name_off,
    /// name_len)` range selects its own.
    names: String,
    /// Fragment sets for fragmented directories only; an absent entry means
    /// the directory is undivided (implicit `[Frag::root()]`). Each set's
    /// child counts are kept here, where children join and leave.
    frags: BTreeMap<InodeId, FragSet>,
    /// Every directory, ascending. Ids only append, so `mkdir` keeps it
    /// sorted by pushing. A directory's position here is its *slot*.
    dir_ids: Vec<InodeId>,
    /// Per directory slot: the slots of its child directories, in the
    /// order they appear in its `children`.
    subdirs: Vec<Vec<u32>>,
    n_files: usize,
    /// Bumps on every `split_frag`, the one mutation that can move a
    /// memoized route (see [`crate::AuthorityCache`]). Not serialised; a
    /// decoded namespace starts at 0.
    generation: u64,
}

/// Appends `name` to a name arena and returns its `(offset, len)` range,
/// or `None` (leaving the arena untouched) when the range would end past
/// `u32::MAX`.
fn push_name(names: &mut String, name: &str) -> Option<(u32, u32)> {
    let range = name_range(names.len(), name.len())?;
    names.push_str(name);
    Some(range)
}

/// The `(offset, len)` range a name of `len` bytes gets when appended to
/// an arena of `arena_len` bytes; `None` when it would end past `u32::MAX`.
fn name_range(arena_len: usize, len: usize) -> Option<(u32, u32)> {
    let off = u32::try_from(arena_len).ok()?;
    let len = u32::try_from(len).ok()?;
    off.checked_add(len)?;
    Some((off, len))
}

impl Namespace {
    /// Creates a namespace containing only the root directory `/`.
    pub fn new() -> Self {
        Namespace {
            arena: vec![Inode {
                parent: None,
                name_off: 0,
                name_len: 1,
                ftype: FileType::Dir,
                size: 0,
                children: ChildList::default(),
                depth: 0,
                alive: true,
                below: 0,
            }],
            names: String::from("/"),
            frags: BTreeMap::new(),
            dir_ids: vec![InodeId::ROOT],
            subdirs: vec![Vec::new()],
            n_files: 0,
            generation: 0,
        }
    }

    /// Change counter for the routing-relevant structure: bumps on every
    /// fragment split, never on creates or unlinks (a fresh inode takes a
    /// fresh id; an unlinked one is never routed again).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of inodes (files + directories, including the root).
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True only for a namespace that somehow lost its root (never happens);
    /// present to satisfy the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Number of regular files.
    pub fn file_count(&self) -> usize {
        self.n_files
    }

    /// Number of directories (including the root).
    pub fn dir_count(&self) -> usize {
        self.dir_ids.len()
    }

    /// Borrow an inode entry.
    pub fn inode(&self, id: InodeId) -> &Inode {
        &self.arena[id.index()]
    }

    /// Checked inode lookup.
    pub fn get(&self, id: InodeId) -> NsResult<&Inode> {
        self.arena.get(id.index()).ok_or(NsError::NoSuchInode(id))
    }

    /// Final path component of `id` (`"/"` for the root).
    pub fn name(&self, id: InodeId) -> &str {
        // Ranges always lie inside the arena (`invariants_hold` checks it);
        // the empty fallback keeps a corrupt range from panicking.
        self.name_of(self.inode(id)).unwrap_or("")
    }

    /// The name arena slice `ino`'s range selects, `None` when the range
    /// does not lie inside the arena on character boundaries.
    fn name_of(&self, ino: &Inode) -> Option<&str> {
        let start = u32_to_usize(ino.name_off);
        self.names.get(start..start + u32_to_usize(ino.name_len))
    }

    /// Every directory, in ascending id order. A directory's position in
    /// this slice is its *slot*, the index [`Namespace::subdir_slots`]
    /// takes and returns.
    pub fn dir_ids(&self) -> &[InodeId] {
        &self.dir_ids
    }

    /// Slots of the child directories of the directory at `slot`, in the
    /// order they appear in its [`Inode::children`] (empty for an unknown
    /// slot).
    pub fn subdir_slots(&self, slot: usize) -> &[u32] {
        self.subdirs.get(slot).map_or(&[], Vec::as_slice)
    }

    /// Slot of directory `dir` in [`Namespace::dir_ids`], `None` for an
    /// inode that is no directory.
    pub fn dir_slot(&self, dir: InodeId) -> Option<usize> {
        self.dir_ids.binary_search(&dir).ok()
    }

    /// Creates a subdirectory of `parent` and returns its id.
    pub fn mkdir(&mut self, parent: InodeId, name: &str) -> NsResult<InodeId> {
        self.insert(parent, name, FileType::Dir, 0)
    }

    /// Creates a regular file under `parent` and returns its id.
    pub fn create_file(&mut self, parent: InodeId, name: &str, size: u64) -> NsResult<InodeId> {
        self.insert(parent, name, FileType::File, size)
    }

    /// Total [`Namespace::mkdir`] for generated datasets, whose parents are
    /// directories by construction. A non-directory parent is a builder
    /// bug: debug builds abort on it, release builds return `parent`
    /// unchanged so dataset construction stays total (the same caller-bug
    /// idiom as the simulator's `consume_op`).
    pub fn mkdir_total(&mut self, parent: InodeId, name: &str) -> InodeId {
        match self.mkdir(parent, name) {
            Ok(id) => id,
            Err(e) => {
                debug_assert!(false, "mkdir under a generated parent failed: {e}");
                parent
            }
        }
    }

    /// Total [`Namespace::create_file`]; see [`Namespace::mkdir_total`].
    pub fn create_file_total(&mut self, parent: InodeId, name: &str, size: u64) -> InodeId {
        match self.create_file(parent, name, size) {
            Ok(id) => id,
            Err(e) => {
                debug_assert!(false, "create_file under a generated parent failed: {e}");
                parent
            }
        }
    }

    fn insert(
        &mut self,
        parent: InodeId,
        name: &str,
        ftype: FileType,
        size: u64,
    ) -> NsResult<InodeId> {
        let pdepth = {
            let p = self.get(parent)?;
            if !p.is_dir() {
                return Err(NsError::NotADirectory(parent));
            }
            p.depth
        };
        let (name_off, name_len) =
            push_name(&mut self.names, name).ok_or(NsError::NameArenaFull)?;
        let id = InodeId::from_index(self.arena.len());
        self.arena.push(Inode {
            parent: Some(parent),
            name_off,
            name_len,
            ftype,
            size,
            children: ChildList::default(),
            depth: pdepth + 1,
            alive: true,
            below: 0,
        });
        match ftype {
            FileType::File => self.n_files += 1,
            FileType::Dir => {
                if let Some(parent_slot) = self.dir_slot(parent) {
                    self.subdirs[parent_slot].push(usize_to_u32(self.dir_ids.len()));
                }
                self.dir_ids.push(id);
                self.subdirs.push(Vec::new());
            }
        }
        self.arena[parent.index()].children.push(id);
        if let Some(set) = self.frags.get_mut(&parent) {
            set.count_child(dentry_hash(id.raw()), true);
        }
        self.update_below(parent, |b| b + 1);
        Ok(id)
    }

    /// Unlinks a regular file: detaches it from its parent (and from the
    /// child count of its fragment when the parent is fragmented) and
    /// tombstones the arena slot (ids are never reused). The parent's child
    /// list keeps the creation order that iteration and snapshots follow,
    /// at a cost of `id`'s distance to the nearer end of the list (see
    /// `ChildList::remove`).
    pub fn unlink(&mut self, id: InodeId) -> NsResult<()> {
        let ino = self.get(id)?;
        if !ino.alive {
            return Err(NsError::NoSuchInode(id));
        }
        if ino.is_dir() {
            return Err(NsError::IsADirectory(id));
        }
        // A parentless inode can only be the root, which is a directory and
        // was rejected above; route the impossible case as a typed error.
        let parent = ino.parent.ok_or(NsError::RootIsImmovable)?;
        self.arena[parent.index()].children.remove(id);
        if let Some(set) = self.frags.get_mut(&parent) {
            set.count_child(dentry_hash(id.raw()), false);
        }
        self.update_below(parent, |b| b - 1);
        self.arena[id.index()].alive = false;
        self.n_files -= 1;
        Ok(())
    }

    /// Applies `f` to the `below` count of `dir` and of each of its
    /// ancestors: the bookkeeping of an inode joining or leaving the
    /// subtrees on that chain.
    fn update_below(&mut self, dir: InodeId, f: impl Fn(u32) -> u32) {
        let mut at = Some(dir);
        while let Some(d) = at {
            let ino = &mut self.arena[d.index()];
            ino.below = f(ino.below);
            at = ino.parent;
        }
    }

    /// Number of live inodes (files + directories), excluding tombstones.
    pub fn live_count(&self) -> usize {
        self.n_files + self.dir_ids.len()
    }

    /// The chain of inode ids from the root down to `id`, inclusive.
    ///
    /// This is the traversal the metadata path performs; the simulator uses
    /// it to count authority-boundary crossings (request forwards).
    pub fn path_chain(&self, id: InodeId) -> Vec<InodeId> {
        let mut chain = Vec::with_capacity(usize::from(self.inode(id).depth) + 1);
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.inode(c).parent;
        }
        chain.reverse();
        chain
    }

    /// True when `ino` lies inside the dirfrag subtree `(dir, frag)`: one
    /// of its ancestors-or-self is a child of `dir` whose dentry hash
    /// falls in `frag`. `dir` itself is not inside. Walks parent links
    /// upward and allocates nothing; the commit, freeze and overlap checks
    /// of the migration path all ask this question.
    pub fn in_dirfrag(&self, dir: InodeId, frag: &Frag, ino: InodeId) -> bool {
        let mut cur = ino;
        while let Some(parent) = self.inode(cur).parent {
            if parent == dir {
                return frag.contains_hash(dentry_hash(cur.raw()));
            }
            cur = parent;
        }
        false
    }

    /// Looks up a direct child of `dir` by name (linear scan; not a hot
    /// path — see [`Inode::children`] docs).
    pub fn child_by_name(&self, dir: InodeId, name: &str) -> Option<InodeId> {
        self.inode(dir)
            .children
            .iter()
            .copied()
            .find(|c| self.name(*c) == name)
    }

    /// The dentry-hash of `child` inside its parent directory.
    pub fn dentry_hash_of(&self, child: InodeId) -> u32 {
        dentry_hash(child.raw())
    }

    /// The live fragment of directory `dir` that `child` belongs to; the
    /// tests' shorthand for [`Namespace::frag_for_hash`].
    #[cfg(test)]
    pub(crate) fn frag_of_child(&self, dir: InodeId, child: InodeId) -> Frag {
        match self.frags.get(&dir) {
            None => Frag::root(),
            Some(set) => set.frag_for_hash(dentry_hash(child.raw())),
        }
    }

    /// The live fragment of directory `dir` covering dentry hash `hash`.
    pub fn frag_for_hash(&self, dir: InodeId, hash: u32) -> Frag {
        match self.frags.get(&dir) {
            None => Frag::root(),
            Some(set) => set.frag_for_hash(hash),
        }
    }

    /// The fragment set of `dir`; `None` means the directory is undivided.
    pub fn frag_set(&self, dir: InodeId) -> Option<&FragSet> {
        self.frags.get(&dir)
    }

    /// Every fragmented directory with its fragment set, in ascending id
    /// order: the order of [`Namespace::dir_ids`], so one merge-walk pairs
    /// each directory with its set.
    pub fn frag_sets(&self) -> impl Iterator<Item = (InodeId, &FragSet)> {
        self.frags.iter().map(|(dir, set)| (*dir, set))
    }

    /// Live fragments of `dir` (a single root fragment when undivided).
    pub fn frags_of(&self, dir: InodeId) -> Vec<Frag> {
        match self.frags.get(&dir) {
            None => vec![Frag::root()],
            Some(set) => set.frags().to_vec(),
        }
    }

    /// Splits fragment `frag` of directory `dir` into `2^by` children and
    /// returns them. Creates the fragment set on first split, counting
    /// every child into its root fragment and histogram in one pass, so a
    /// split that fails leaves the counts right. A split no deeper than
    /// [`crate::HIST_BITS`] reads its counts from the histogram; a deeper
    /// one recounts the children of `frag`.
    pub fn split_frag(&mut self, dir: InodeId, frag: &Frag, by: u8) -> NsResult<Vec<Frag>> {
        if !self.get(dir)?.is_dir() {
            return Err(NsError::NotADirectory(dir));
        }
        self.generation += 1;
        let children = &self.arena[dir.index()].children;
        let hashes = || children.iter().map(|c| dentry_hash(c.raw()));
        self.frags
            .entry(dir)
            .or_insert_with(|| FragSet::new_root_counting(hashes()))
            .split_counting(frag, by, hashes())
            .ok_or(NsError::NoSuchFrag { dir, frag: *frag })
    }

    /// Children of `dir` that fall inside `frag`: the oracle of
    /// [`Namespace::frag_child_count`].
    #[cfg(test)]
    pub(crate) fn children_in_frag(&self, dir: InodeId, frag: &Frag) -> Vec<InodeId> {
        self.inode(dir)
            .children
            .iter()
            .copied()
            .filter(|c| frag.contains_hash(dentry_hash(c.raw())))
            .collect()
    }

    /// Number of children of `dir` whose dentry hash `frag` contains. The
    /// whole directory reads its child list's length, and a fragmented
    /// directory answers from its [`FragSet::child_count`]; only an
    /// undivided directory asked for a part, or a fragment deeper than
    /// [`crate::HIST_BITS`] that is not live, hashes its children.
    pub fn frag_child_count(&self, dir: InodeId, frag: &Frag) -> usize {
        let children = &self.inode(dir).children;
        if frag.is_root() {
            return children.len();
        }
        self.frags
            .get(&dir)
            .and_then(|set| set.child_count(frag))
            .unwrap_or_else(|| {
                children
                    .iter()
                    .filter(|c| frag.contains_hash(dentry_hash(c.raw())))
                    .count()
            })
    }

    /// Subdirectories of `dir` whose dentry hash `frag` contains, in
    /// child-list order, read from the directory index.
    pub fn subdirs_in_frag<'a>(
        &'a self,
        dir: InodeId,
        frag: &'a Frag,
    ) -> impl Iterator<Item = InodeId> + 'a {
        let slots = self.dir_slot(dir).map_or(&[][..], |s| self.subdir_slots(s));
        slots
            .iter()
            .map(|s| self.dir_ids[u32_to_usize(*s)])
            .filter(|d| frag.contains_hash(dentry_hash(d.raw())))
    }

    /// Iterative pre-order walk of the subtree rooted at `root`
    /// (inclusive): the oracle of [`Namespace::subtree_size`].
    #[cfg(test)]
    fn walk_subtree(&self, root: InodeId) -> SubtreeIter<'_> {
        SubtreeIter {
            ns: self,
            stack: vec![root],
        }
    }

    /// Number of inodes covered by the dirfrag subtree `(root, frag)`:
    /// children of `root` whose dentry hash falls in `frag`, plus all their
    /// descendants. The `root` directory inode itself is *not* counted — in
    /// CephFS a subtree root dirfrag covers its contents, while the directory
    /// inode stays with the parent subtree.
    ///
    /// The whole directory reads its `below` count. A fragment sums its
    /// [`Namespace::frag_child_count`] and the `below` counts of the
    /// subdirectories it contains (a file has nothing below it), so it
    /// costs one dentry hash per subdirectory of `root`, not per child.
    pub fn subtree_inode_count(&self, root: InodeId, frag: &Frag) -> usize {
        if frag.is_root() {
            return u32_to_usize(self.inode(root).below);
        }
        let nested: usize = self
            .subdirs_in_frag(root, frag)
            .map(|d| u32_to_usize(self.inode(d).below))
            .sum();
        self.frag_child_count(root, frag) + nested
    }

    /// Number of inodes in the subtree rooted at `root`, `root` included,
    /// read from its `below` count.
    pub fn subtree_size(&self, root: InodeId) -> usize {
        u32_to_usize(self.inode(root).below) + 1
    }

    /// Internal consistency check used by tests and snapshot decoding:
    /// every child's parent link points back at the directory listing it
    /// and names a smaller id, depths are consistent, no directory is a
    /// tombstone, counters match, every name range lies inside the name
    /// arena, the directory index mirrors the arena, and every subtree
    /// size and fragment child count is exact.
    ///
    /// Linear in the size of the namespace: which inodes their parent
    /// lists comes from one pass over every child list.
    pub fn invariants_hold(&self) -> bool {
        let listed = self.listed_by_parent();
        self.invariants_given(|id| listed[id.index()])
    }

    /// Per arena slot: whether the inode's parent lists it among its
    /// children. One pass over every child list marks each child whose
    /// parent link points back at the listing inode.
    fn listed_by_parent(&self) -> Vec<bool> {
        let mut listed = vec![false; self.arena.len()];
        for (i, ino) in self.arena.iter().enumerate() {
            let dir = Some(InodeId::from_index(i));
            for c in ino.children.iter() {
                if self.arena.get(c.index()).is_some_and(|ch| ch.parent == dir) {
                    listed[c.index()] = true;
                }
            }
        }
        listed
    }

    /// [`Namespace::invariants_hold`] with `in_parent(id)` answering
    /// whether `id`'s parent lists it.
    fn invariants_given(&self, in_parent: impl Fn(InodeId) -> bool) -> bool {
        let mut files = 0;
        for (i, ino) in self.arena.iter().enumerate() {
            let id = InodeId::from_index(i);
            if self.name_of(ino).is_none() {
                return false;
            }
            if ino.parent.is_some_and(|p| p >= id) {
                return false;
            }
            if !ino.alive {
                // Only files are unlinked, and they leave their parent.
                if ino.is_dir() || (ino.parent.is_some() && in_parent(id)) {
                    return false;
                }
                continue;
            }
            if ino.ftype == FileType::File {
                files += 1;
            }
            if let Some(p) = ino.parent {
                let parent = &self.arena[p.index()];
                if !parent.is_dir() || !in_parent(id) {
                    return false;
                }
                if ino.depth != parent.depth + 1 {
                    return false;
                }
            } else if id != InodeId::ROOT {
                return false;
            }
            if !ino.is_dir() && !ino.children.is_empty() {
                return false;
            }
        }
        files == self.n_files
            && self.dir_index_holds()
            && self.below_holds()
            && self.frag_counts_hold()
    }

    /// Every fragment set belongs to an inode, each live fragment's child
    /// count is the number of that inode's children whose dentry hash it
    /// contains, and so is each histogram bucket's.
    fn frag_counts_hold(&self) -> bool {
        self.frags.iter().all(|(dir, set)| {
            let Some(ino) = self.arena.get(dir.index()) else {
                return false;
            };
            let mut fresh = set.clone();
            fresh.recount(ino.children.iter().map(|c| dentry_hash(c.raw())));
            fresh.child_counts() == set.child_counts() && fresh.histogram() == set.histogram()
        })
    }

    /// The directory index check behind [`Namespace::invariants_hold`]:
    /// `dir_ids` lists exactly the directory inodes in ascending order, and
    /// each directory's subdirectory slots name its directory children in
    /// `children` order.
    fn dir_index_holds(&self) -> bool {
        let arena_dirs = self
            .arena
            .iter()
            .enumerate()
            .filter(|(_, ino)| ino.is_dir())
            .map(|(i, _)| InodeId::from_index(i));
        if !self.dir_ids.iter().copied().eq(arena_dirs) || self.subdirs.len() != self.dir_ids.len()
        {
            return false;
        }
        self.dir_ids.iter().zip(&self.subdirs).all(|(dir, slots)| {
            let listed = slots
                .iter()
                .map(|s| self.dir_ids.get(u32_to_usize(*s)).copied());
            let children = self.arena[dir.index()]
                .children
                .iter()
                .filter(|c| self.arena[c.index()].is_dir())
                .map(|c| Some(*c));
            listed.eq(children)
        })
    }

    /// Every `below` count matches the tree: zero for files and
    /// tombstones, and for a live directory the sum over its children of
    /// one plus their own count.
    fn below_holds(&self) -> bool {
        self.arena.iter().all(|ino| {
            if !ino.alive || !ino.is_dir() {
                return ino.below == 0;
            }
            let listed: u64 = ino
                .children
                .iter()
                .map(|c| u64::from(self.arena[c.index()].below) + 1)
                .sum();
            listed == u64::from(ino.below)
        })
    }

    /// Recounts every `below` from the parent links (snapshot decoding;
    /// the counts are not serialised). Inodes go in descending id order,
    /// so each one's count is final before it joins its parent's, which
    /// has a smaller id; [`Namespace::invariants_hold`] rejects an arena
    /// where it does not.
    fn recount_below(&mut self) {
        for ino in &mut self.arena {
            ino.below = 0;
        }
        for i in (0..self.arena.len()).rev() {
            let ino = &self.arena[i];
            let (Some(p), true) = (ino.parent, ino.alive) else {
                continue;
            };
            let joined = ino.below.saturating_add(1);
            let parent = &mut self.arena[p.index()].below;
            *parent = parent.saturating_add(joined);
        }
    }

    /// Recounts every fragment set's child counts from its directory's
    /// children (snapshot decoding; the counts are not serialised).
    fn recount_frags(&mut self) {
        for (dir, set) in &mut self.frags {
            if let Some(ino) = self.arena.get(dir.index()) {
                set.recount(ino.children.iter().map(|c| dentry_hash(c.raw())));
            }
        }
    }

    /// Rebuilds the directory index from the arena (snapshot decoding;
    /// the index is not serialised). Child ids must already be in bounds.
    fn rebuild_dir_index(&mut self) {
        self.dir_ids = self
            .arena
            .iter()
            .enumerate()
            .filter(|(_, ino)| ino.is_dir())
            .map(|(i, _)| InodeId::from_index(i))
            .collect();
        self.subdirs = self
            .dir_ids
            .iter()
            .map(|dir| {
                self.arena[dir.index()]
                    .children
                    .iter()
                    .filter_map(|c| self.dir_slot(*c).map(usize_to_u32))
                    .collect()
            })
            .collect();
    }
}

impl Namespace {
    /// Writes the complete arena (including tombstones — ids are never
    /// reused, so slots must survive a round-trip) and every fragment set
    /// to a snapshot section.
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_seq(&self.arena, |e, ino| {
            e.put_option(&ino.parent, |e, p| e.put_u64(p.raw()));
            e.put_str(self.name_of(ino).unwrap_or(""));
            e.put_bool(ino.ftype == FileType::Dir);
            e.put_u64(ino.size);
            e.put_seq(&ino.children, |e, c| e.put_u64(c.raw()));
            e.put_u16(ino.depth);
            e.put_bool(ino.alive);
        });
        let frag_dirs: Vec<(&InodeId, &FragSet)> = self.frags.iter().collect();
        e.put_seq(&frag_dirs, |e, (dir, set)| {
            e.put_u64(dir.raw());
            set.encode(e);
        });
        e.put_usize(self.n_files);
        e.put_usize(self.dir_ids.len());
    }

    /// Reads a namespace back. Structural corruption (dangling ids,
    /// counter drift, broken parent/child links, a dead directory, a parent
    /// id not below its child's) is reported as a typed error rather than
    /// trusted.
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<Namespace, lunule_util::codec::CodecError> {
        use lunule_util::codec::CodecError;
        let invalid = || CodecError::Invalid { what: "namespace" };
        let mut names = String::new();
        let arena = d.get_seq("namespace arena", |d| {
            let parent = d
                .get_option("inode parent", |d| d.get_u64("parent id"))?
                .map(id_from_raw)
                .transpose()?;
            let (name_off, name_len) =
                push_name(&mut names, &d.get_str("inode name")?).ok_or(CodecError::Invalid {
                    what: "namespace name arena",
                })?;
            let ftype = if d.get_bool("inode is_dir")? {
                FileType::Dir
            } else {
                FileType::File
            };
            let size = d.get_u64("inode size")?;
            let children = d.get_seq("inode children", |d| id_from_raw(d.get_u64("child id")?))?;
            let depth = d.get_u16("inode depth")?;
            let alive = d.get_bool("inode alive")?;
            Ok(Inode {
                parent,
                name_off,
                name_len,
                ftype,
                size,
                children: children.into(),
                depth,
                alive,
                below: 0,
            })
        })?;
        let frag_pairs = d.get_seq("namespace frags", |d| {
            let dir = id_from_raw(d.get_u64("frag dir id")?)?;
            let set = FragSet::decode(d)?;
            Ok((dir, set))
        })?;
        let n_files = d.get_usize("namespace n_files")?;
        let n_dirs = d.get_usize("namespace n_dirs")?;
        let mut frags = BTreeMap::new();
        for (dir, set) in frag_pairs {
            if dir.index() >= arena.len() || frags.insert(dir, set).is_some() {
                return Err(invalid());
            }
        }
        let mut ns = Namespace {
            arena,
            names,
            frags,
            dir_ids: Vec::new(),
            subdirs: Vec::new(),
            n_files,
            generation: 0,
        };
        if ns.arena.is_empty()
            || ns
                .arena
                .iter()
                .flat_map(|ino| ino.children.iter().chain(ino.parent.iter()))
                .any(|id| id.index() >= ns.arena.len())
        {
            return Err(invalid());
        }
        ns.rebuild_dir_index();
        if ns.dir_ids.len() != n_dirs {
            return Err(invalid());
        }
        ns.recount_below();
        ns.recount_frags();
        ns.checked()
    }

    /// The last step of [`Namespace::decode`]: the namespace itself when
    /// [`Namespace::invariants_hold`], a typed error otherwise.
    fn checked(self) -> Result<Namespace, lunule_util::codec::CodecError> {
        if self.invariants_hold() {
            Ok(self)
        } else {
            Err(lunule_util::codec::CodecError::Invalid { what: "namespace" })
        }
    }
}

/// Rebuilds an [`InodeId`] from its serialized raw form, bounds-checked
/// into `u32` space.
fn id_from_raw(raw: u64) -> Result<InodeId, lunule_util::codec::CodecError> {
    u32::try_from(raw)
        .map(InodeId)
        .map_err(|_| lunule_util::codec::CodecError::Invalid { what: "inode id" })
}

impl Default for Namespace {
    fn default() -> Self {
        Namespace::new()
    }
}

/// Iterator over a subtree in pre-order. See [`Namespace::walk_subtree`].
#[cfg(test)]
struct SubtreeIter<'a> {
    ns: &'a Namespace,
    stack: Vec<InodeId>,
}

#[cfg(test)]
impl Iterator for SubtreeIter<'_> {
    type Item = InodeId;

    fn next(&mut self) -> Option<InodeId> {
        let id = self.stack.pop()?;
        let ino = self.ns.inode(id);
        // Push in reverse so iteration visits children in creation order.
        self.stack.extend(ino.children.iter().rev());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_util::propcheck;

    /// A small namespace exercising everything the encoding carries:
    /// nested directories, sized files, a fragmented directory split twice
    /// (with a subdirectory created after the splits), an unlinked file and
    /// a create after the unlink.
    fn nested_and_split() -> Namespace {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "alpha").unwrap();
        let b = ns.mkdir(a, "beta2").unwrap();
        let big = ns.mkdir(b, "big").unwrap();
        let files: Vec<InodeId> = (0..40)
            .map(|i| ns.create_file(big, &format!("g{i}"), 0).unwrap())
            .collect();
        ns.split_frag(big, &Frag::root(), 1).unwrap();
        ns.split_frag(big, &Frag::new(0, 1), 2).unwrap();
        let moved = ns.mkdir(big, "moved").unwrap();
        for i in 0..6 {
            ns.create_file(moved, &format!("f{i}"), i * 100).unwrap();
        }
        ns.unlink(files[7]).unwrap();
        ns.create_file(InodeId::ROOT, "late", 7).unwrap();
        ns
    }

    fn tiny() -> (Namespace, InodeId, InodeId, InodeId) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "data").unwrap();
        let f = ns.create_file(d, "a.bin", 1024).unwrap();
        let sub = ns.mkdir(d, "sub").unwrap();
        (ns, d, f, sub)
    }

    #[test]
    fn mkdir_and_create() {
        let (ns, d, f, sub) = tiny();
        assert_eq!(ns.len(), 4);
        assert_eq!(ns.file_count(), 1);
        assert_eq!(ns.dir_count(), 3);
        assert_eq!(ns.inode(f).parent(), Some(d));
        assert_eq!(ns.inode(sub).depth(), 2);
        assert!(ns.invariants_hold());
    }

    #[test]
    fn path_chain_runs_from_the_root() {
        let (ns, d, f, _) = tiny();
        assert_eq!(ns.path_chain(f), vec![InodeId::ROOT, d, f]);
        assert_eq!(ns.path_chain(InodeId::ROOT), vec![InodeId::ROOT]);
    }

    #[test]
    fn create_under_file_fails() {
        let (mut ns, _, f, _) = tiny();
        assert_eq!(
            ns.create_file(f, "x", 0).unwrap_err(),
            NsError::NotADirectory(f)
        );
    }

    #[test]
    fn child_by_name_finds() {
        let (ns, d, f, _) = tiny();
        assert_eq!(ns.child_by_name(d, "a.bin"), Some(f));
        assert_eq!(ns.child_by_name(d, "missing"), None);
    }

    #[test]
    fn walk_subtree_preorder() {
        let (ns, d, f, sub) = tiny();
        let order: Vec<_> = ns.walk_subtree(InodeId::ROOT).collect();
        assert_eq!(order, vec![InodeId::ROOT, d, f, sub]);
        assert_eq!(ns.walk_subtree(d).count(), 3);
    }

    #[test]
    fn frag_split_routes_children() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "big").unwrap();
        let kids: Vec<_> = (0..100)
            .map(|i| ns.create_file(d, &format!("f{i}"), 0).unwrap())
            .collect();
        let frags = ns.split_frag(d, &Frag::root(), 1).unwrap();
        let mut seen = 0;
        for fr in &frags {
            seen += ns.children_in_frag(d, fr).len();
        }
        assert_eq!(seen, 100);
        for k in kids {
            let fr = ns.frag_of_child(d, k);
            assert!(frags.contains(&fr));
        }
    }

    #[test]
    fn subtree_inode_count_respects_frags() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "big").unwrap();
        for i in 0..64 {
            ns.create_file(d, &format!("f{i}"), 0).unwrap();
        }
        assert_eq!(ns.subtree_inode_count(d, &Frag::root()), 64);
        let frags = ns.split_frag(d, &Frag::root(), 1).unwrap();
        let total: usize = frags.iter().map(|fr| ns.subtree_inode_count(d, fr)).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn unlink_detaches_and_tombstones() {
        let (mut ns, d, f, _) = tiny();
        assert!(ns.unlink(f).is_ok());
        assert!(!ns.inode(f).is_alive());
        assert!(!ns.inode(d).children().contains(&f));
        assert_eq!(ns.file_count(), 0);
        assert_eq!(ns.live_count(), 3);
        assert!(ns.invariants_hold());
        // Double unlink fails.
        assert_eq!(ns.unlink(f).unwrap_err(), NsError::NoSuchInode(f));
        // Ids are never reused: a new file gets a fresh slot.
        let f2 = ns.create_file(d, "b.bin", 1).unwrap();
        assert_ne!(f2, f);
    }

    #[test]
    fn unlink_keeps_sibling_creation_order() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let files: Vec<InodeId> = (0..5)
            .map(|i| ns.create_file(d, &format!("f{i}"), 1).unwrap())
            .collect();
        ns.unlink(files[0]).unwrap();
        ns.unlink(files[2]).unwrap();
        assert_eq!(ns.inode(d).children(), &[files[1], files[3], files[4]]);
    }

    #[test]
    fn unlink_rejects_directories() {
        let (mut ns, d, _, _) = tiny();
        assert_eq!(ns.unlink(d).unwrap_err(), NsError::IsADirectory(d));
    }

    #[test]
    fn codec_round_trip_preserves_everything() {
        let (mut ns, d, f, _) = tiny();
        ns.split_frag(d, &Frag::root(), 1).unwrap();
        ns.unlink(f).unwrap(); // keep a tombstone in the arena
        let mut e = lunule_util::codec::Encoder::new();
        ns.encode(&mut e);
        let bytes = e.into_bytes();
        let mut dec = lunule_util::codec::Decoder::new(&bytes);
        let back = Namespace::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.len(), ns.len());
        assert_eq!(back.file_count(), ns.file_count());
        assert_eq!(back.dir_count(), ns.dir_count());
        assert_eq!(back.frags_of(d), ns.frags_of(d));
        assert!(!back.inode(f).is_alive());
        assert!(back.invariants_hold());
        // Re-encoding is byte-stable.
        let mut e2 = lunule_util::codec::Encoder::new();
        back.encode(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_corrupt_counters() {
        let (ns, _, _, _) = tiny();
        let mut e = lunule_util::codec::Encoder::new();
        ns.encode(&mut e);
        let mut bytes = e.into_bytes();
        // The trailing 16 bytes are the file and directory counts; corrupt
        // the directory count.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut dec = lunule_util::codec::Decoder::new(&bytes);
        assert!(Namespace::decode(&mut dec).is_err());
    }

    #[test]
    fn encoding_is_unchanged_by_the_name_arena() {
        // FNV-1a of this fixture's encoding, recorded from the last build
        // with directory rename and removal: the name arena, the directory
        // index and the narrower namespace contract must not change a
        // single snapshot byte.
        let ns = nested_and_split();
        let mut e = lunule_util::codec::Encoder::new();
        ns.encode(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 2534);
        assert_eq!(lunule_util::codec::fnv1a64(&bytes), 0x19a2_048e_0d18_7c0a);
        let back = Namespace::decode(&mut lunule_util::codec::Decoder::new(&bytes)).unwrap();
        assert_eq!(back.dir_ids(), ns.dir_ids());
        for slot in 0..ns.dir_ids().len() {
            assert_eq!(back.subdir_slots(slot), ns.subdir_slots(slot));
        }
    }

    /// Directory ids of `dir`'s subdirectory slots, in index order.
    fn subdirs_of(ns: &Namespace, dir: InodeId) -> Vec<InodeId> {
        let slot = ns.dir_ids().binary_search(&dir).unwrap();
        ns.subdir_slots(slot)
            .iter()
            .map(|s| ns.dir_ids()[*s as usize])
            .collect()
    }

    /// Subtree sizes as the pre-order walk counts them.
    fn walked_inode_count(ns: &Namespace, root: InodeId, frag: &Frag) -> usize {
        ns.children_in_frag(root, frag)
            .into_iter()
            .map(|c| ns.walk_subtree(c).count())
            .sum()
    }

    /// Asserts that each live fragment of every fragmented directory
    /// counts exactly the children whose dentry hash it contains.
    fn assert_frag_counts(ns: &Namespace) {
        for (dir, set) in &ns.frags {
            let children = ns.inode(*dir).children();
            for (frag, n) in set.frags().iter().zip(set.child_counts()) {
                let hashed = children
                    .iter()
                    .filter(|c| frag.contains_hash(ns.dentry_hash_of(**c)))
                    .count();
                assert_eq!(*n, hashed, "dir {dir:?} frag {frag:?}");
            }
            assert_eq!(set.child_counts().len(), set.len());
        }
    }

    /// Builds a random namespace by 20–60 random mkdir, create, unlink and
    /// split steps, calling `after_step` after each one. Returns it with
    /// every directory it created.
    ///
    /// A test-side model of every live directory's children follows the
    /// same steps, and each directory's [`Inode::children`] must equal it
    /// after every step.
    fn random_namespace(
        rng: &mut lunule_util::rng::DetRng,
        mut after_step: impl FnMut(&Namespace),
    ) -> (Namespace, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut dirs = vec![InodeId::ROOT];
        let mut files = Vec::new();
        let mut model: BTreeMap<InodeId, Vec<InodeId>> = BTreeMap::from([(InodeId::ROOT, vec![])]);
        for step in 0..(20 + rng.gen_range(0..40)) {
            let at = dirs[rng.gen_range(0..dirs.len())];
            match rng.gen_range(0..6) {
                0 | 1 => {
                    let d = ns.mkdir_total(at, &format!("d{step}"));
                    dirs.push(d);
                    model.insert(d, Vec::new());
                    model.get_mut(&at).unwrap().push(d);
                }
                2..=4 => {
                    let f = ns.create_file_total(at, &format!("f{step}"), 0);
                    files.push(f);
                    model.get_mut(&at).unwrap().push(f);
                }
                5 if !files.is_empty() => {
                    let f = files.swap_remove(rng.gen_range(0..files.len()));
                    let siblings = model.get_mut(&ns.inode(f).parent().unwrap()).unwrap();
                    siblings.retain(|c| *c != f);
                    ns.unlink(f).unwrap();
                }
                _ => {
                    let frags = ns.frags_of(at);
                    let frag = frags[rng.gen_range(0..frags.len())];
                    let by = u8::try_from(1 + rng.gen_range(0..2)).unwrap();
                    let _ = ns.split_frag(at, &frag, by);
                }
            }
            for (dir, children) in &model {
                assert_eq!(
                    ns.inode(*dir).children(),
                    children.as_slice(),
                    "step {step}"
                );
            }
            after_step(&ns);
        }
        (ns, dirs)
    }

    #[test]
    fn subtree_counts_follow_every_mutation() {
        propcheck::run(64, |rng| {
            let (ns, dirs) = random_namespace(rng, assert_frag_counts);
            let mut e = lunule_util::codec::Encoder::new();
            ns.encode(&mut e);
            let bytes = e.into_bytes();
            let back = Namespace::decode(&mut lunule_util::codec::Decoder::new(&bytes)).unwrap();
            for ns in [&ns, &back] {
                assert!(ns.invariants_hold());
                assert_frag_counts(ns);
                for &d in &dirs {
                    assert_eq!(ns.subtree_size(d), ns.walk_subtree(d).count());
                    for frag in ns.frags_of(d).iter().chain([&Frag::root()]) {
                        assert_eq!(
                            ns.subtree_inode_count(d, frag),
                            walked_inode_count(ns, d, frag)
                        );
                    }
                }
            }
        });
    }

    /// Fragments to ask `dir` about: the whole directory, every live
    /// fragment with its halves and its parent, and eight random
    /// fragments up to 12 bits deep, past the histogram's resolution.
    fn probe_frags(rng: &mut lunule_util::rng::DetRng, ns: &Namespace, dir: InodeId) -> Vec<Frag> {
        let mut out = vec![Frag::root()];
        for f in ns.frags_of(dir) {
            let (l, r) = f.split_in_two();
            out.extend([f, l, r]);
            if !f.is_root() {
                out.push(Frag::new(f.value() >> 1, f.bits() - 1));
            }
        }
        for _ in 0..8 {
            let mut f = Frag::root();
            for _ in 0..rng.gen_range(0..13) {
                let (l, r) = f.split_in_two();
                f = if rng.gen_bool() { l } else { r };
            }
            out.push(f);
        }
        out
    }

    /// The counts a split, the selector and a migration read without
    /// walking the children, against a walk of them: every live
    /// fragment's child count, [`Namespace::frag_child_count`],
    /// [`Namespace::subdirs_in_frag`] and [`Namespace::subtree_inode_count`]
    /// on live, coarser, finer and random fragments, after nested splits
    /// past [`crate::HIST_BITS`] mixed with creates and unlinks, and
    /// again after a snapshot round trip.
    #[test]
    fn frag_counts_match_a_child_walk() {
        let mut past_histogram = 0;
        propcheck::run(96, |rng| {
            let (mut ns, dirs) = random_namespace(rng, |_| {});
            // Half the steps go to one directory, so its splits nest deep.
            let focus = dirs[rng.gen_range(0..dirs.len())];
            for step in 0..rng.gen_range(10..50) {
                let d = if rng.gen_bool() {
                    focus
                } else {
                    dirs[rng.gen_range(0..dirs.len())]
                };
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        // Mostly the fragment holding a random child, so
                        // the splits nest where the children are.
                        let children = ns.inode(d).children();
                        let frag = if children.is_empty() || rng.gen_ratio(0.2) {
                            let frags = ns.frags_of(d);
                            frags[rng.gen_range(0..frags.len())]
                        } else {
                            let c = children[rng.gen_range(0..children.len())];
                            ns.frag_for_hash(d, ns.dentry_hash_of(c))
                        };
                        let by = u8::try_from(1 + rng.gen_range(0..3)).unwrap();
                        if frag.bits() + by <= 12 {
                            ns.split_frag(d, &frag, by).unwrap();
                        }
                    }
                    2 => {
                        for i in 0..rng.gen_range(1..40) {
                            ns.create_file_total(d, &format!("g{step}.{i}"), 0);
                        }
                    }
                    _ => {
                        let files: Vec<InodeId> = ns
                            .inode(d)
                            .children()
                            .iter()
                            .copied()
                            .filter(|c| !ns.inode(*c).is_dir())
                            .collect();
                        if !files.is_empty() {
                            ns.unlink(files[rng.gen_range(0..files.len())]).unwrap();
                        }
                    }
                }
            }
            let mut e = lunule_util::codec::Encoder::new();
            ns.encode(&mut e);
            let bytes = e.into_bytes();
            let back = Namespace::decode(&mut lunule_util::codec::Decoder::new(&bytes)).unwrap();
            for ns in [&ns, &back] {
                assert!(ns.invariants_hold());
                for &d in &dirs {
                    if let Some(set) = ns.frag_set(d) {
                        for (f, n) in set.frags().iter().zip(set.child_counts()) {
                            assert_eq!(*n, ns.children_in_frag(d, f).len(), "{d:?} {f:?}");
                        }
                    }
                    for frag in probe_frags(rng, ns, d) {
                        let walked = ns.children_in_frag(d, &frag);
                        assert_eq!(
                            ns.frag_child_count(d, &frag),
                            walked.len(),
                            "{d:?} {frag:?}"
                        );
                        let subdirs: Vec<InodeId> = walked
                            .into_iter()
                            .filter(|c| ns.inode(*c).is_dir())
                            .collect();
                        assert!(ns.subdirs_in_frag(d, &frag).eq(subdirs));
                        assert_eq!(
                            ns.subtree_inode_count(d, &frag),
                            walked_inode_count(ns, d, &frag),
                            "{d:?} {frag:?}"
                        );
                    }
                }
            }
            past_histogram += usize::from(dirs.iter().any(|d| {
                ns.frags_of(*d)
                    .iter()
                    .any(|f| f.bits() > crate::HIST_BITS && !ns.children_in_frag(*d, f).is_empty())
            }));
        });
        assert!(
            past_histogram >= 30,
            "only {past_histogram} of 96 cases split a populated fragment past the histogram"
        );
    }

    /// The check `invariants_hold` replaced, kept as its oracle: each
    /// inode's parent scans its whole child list for it, which is
    /// quadratic in the size of a directory.
    fn invariants_hold_by_contains(ns: &Namespace) -> bool {
        ns.invariants_given(|id| {
            ns.inode(id)
                .parent
                .is_some_and(|p| ns.arena[p.index()].children.contains(&id))
        })
    }

    /// Every inode of `ns` that `keep` accepts.
    fn inodes_where(ns: &Namespace, keep: impl Fn(&Inode) -> bool) -> Vec<InodeId> {
        (0..ns.len())
            .map(InodeId::from_index)
            .filter(|id| keep(ns.inode(*id)))
            .collect()
    }

    #[test]
    fn linear_namespace_check_matches_the_contains_check() {
        let mut corrupted = 0;
        propcheck::run(96, |rng| {
            let (ns, _) = random_namespace(rng, |ns| {
                assert!(ns.invariants_hold());
                assert!(invariants_hold_by_contains(ns));
            });
            let tombstones = inodes_where(&ns, |ino| !ino.alive);
            let live = inodes_where(&ns, |ino| ino.alive && ino.parent.is_some());
            if live.is_empty() {
                return;
            }
            let mut bad = ns.clone();
            let pick =
                |v: &[InodeId], rng: &mut lunule_util::rng::DetRng| v[rng.gen_range(0..v.len())];
            let child = pick(&live, rng);
            let parent = ns.inode(child).parent.unwrap();
            match rng.gen_range(0..5) {
                0 if !tombstones.is_empty() => {
                    // A tombstone still listed by its parent.
                    let t = pick(&tombstones, rng);
                    let p = ns.inode(t).parent.unwrap();
                    bad.arena[p.index()].children.push(t);
                }
                1 => {
                    // A live child its parent no longer lists.
                    assert!(bad.arena[parent.index()].children.remove(child));
                }
                2 => {
                    // A child listed under an inode that is not its parent.
                    let others = inodes_where(&ns, |ino| ino.alive);
                    let other = pick(&others, rng);
                    if other == parent {
                        return;
                    }
                    bad.arena[other.index()].children.push(child);
                }
                3 => {
                    // Two live files of different parents swap listings:
                    // every subtree count still adds up, only the parent
                    // links tell.
                    let files = inodes_where(&ns, |ino| ino.alive && !ino.is_dir());
                    if files.is_empty() {
                        return;
                    }
                    let (a, b) = (pick(&files, rng), pick(&files, rng));
                    let (pa, pb) = (ns.inode(a).parent.unwrap(), ns.inode(b).parent.unwrap());
                    if pa == pb {
                        return;
                    }
                    assert!(bad.arena[pa.index()].children.remove(a));
                    assert!(bad.arena[pb.index()].children.remove(b));
                    bad.arena[pa.index()].children.push(b);
                    bad.arena[pb.index()].children.push(a);
                }
                _ => {
                    // A child listed twice.
                    bad.arena[parent.index()].children.push(child);
                }
            }
            assert!(!invariants_hold_by_contains(&bad));
            assert!(!bad.invariants_hold());
            corrupted += 1;
        });
        assert!(corrupted > 48, "only {corrupted} corrupted cases");
    }

    #[test]
    fn unlinks_from_either_end_encode_like_the_creation_order() {
        for fifo in [true, false] {
            let mut ns = Namespace::new();
            let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
            let files: Vec<InodeId> = (0..50)
                .map(|i| ns.create_file(d, &format!("f{i}"), 1).unwrap())
                .collect();
            let gone: Vec<InodeId> = if fifo {
                files[..20].to_vec()
            } else {
                files[30..].iter().rev().copied().collect()
            };
            for f in &gone {
                ns.unlink(*f).unwrap();
            }
            ns.create_file(d, "late", 1).unwrap();
            let mut e = lunule_util::codec::Encoder::new();
            ns.encode(&mut e);
            let bytes = e.into_bytes();
            let back = Namespace::decode(&mut lunule_util::codec::Decoder::new(&bytes)).unwrap();
            assert_eq!(back.inode(d).children(), ns.inode(d).children());
            assert_eq!(ns.inode(d).children().len(), 31);
            let mut again = lunule_util::codec::Encoder::new();
            back.encode(&mut again);
            assert_eq!(again.into_bytes(), bytes, "fifo {fifo}");
        }
    }

    #[test]
    fn invariants_catch_stale_frag_counts() {
        // Files leave a split directory by unlink and join it by create.
        let mut ns = nested_and_split();
        let a = ns.child_by_name(InodeId::ROOT, "alpha").unwrap();
        let big = ns
            .child_by_name(ns.child_by_name(a, "beta2").unwrap(), "big")
            .unwrap();
        ns.unlink(ns.child_by_name(big, "g3").unwrap()).unwrap();
        ns.unlink(ns.child_by_name(big, "g9").unwrap()).unwrap();
        ns.create_file(big, "new", 1).unwrap();
        assert_frag_counts(&ns);
        assert!(ns.clone().checked().is_ok());
        let set = ns.frag_set(big).unwrap();
        assert_eq!(set.len(), 5);
        assert_eq!(
            set.child_counts().iter().sum::<usize>(),
            ns.inode(big).children().len()
        );
        for i in 0..set.len() {
            for up in [true, false] {
                let mut stale = ns.clone();
                let n = &mut stale.frags.get_mut(&big).unwrap().counts_mut()[i];
                *n = if up { *n + 1 } else { n.wrapping_sub(1) };
                assert!(!stale.invariants_hold(), "frag {i}, up {up}");
                assert_eq!(
                    stale.checked().unwrap_err(),
                    lunule_util::codec::CodecError::Invalid { what: "namespace" }
                );
            }
        }
    }

    /// The containment walk `in_dirfrag` replaced, kept as its oracle:
    /// materialise the root-to-`ino` chain and look for the step out of
    /// `dir`.
    fn in_dirfrag_by_path_chain(ns: &Namespace, dir: InodeId, frag: &Frag, ino: InodeId) -> bool {
        let chain = ns.path_chain(ino);
        for w in chain.windows(2) {
            if w[0] == dir {
                return frag.contains_hash(dentry_hash(w[1].raw()));
            }
        }
        false
    }

    #[test]
    fn in_dirfrag_matches_the_path_chain_walk() {
        propcheck::run(48, |rng| {
            let (ns, _) = random_namespace(rng, |_| {});
            let mut inside = 0;
            // Every inode, tombstones included, against every live
            // fragment, the root fragment and a half of every directory.
            for d in 0..ns.len() {
                let dir = InodeId::from_index(d);
                let (left, right) = Frag::root().split_in_two();
                let mut frags = ns.frags_of(dir);
                frags.extend([Frag::root(), left, right]);
                for frag in &frags {
                    for i in 0..ns.len() {
                        let ino = InodeId::from_index(i);
                        let want = in_dirfrag_by_path_chain(&ns, dir, frag, ino);
                        assert_eq!(
                            ns.in_dirfrag(dir, frag, ino),
                            want,
                            "{dir:?} {frag:?} {ino:?}"
                        );
                        inside += usize::from(want);
                    }
                }
            }
            assert!(inside > 0);
        });
    }

    #[test]
    fn a_stale_subtree_count_breaks_the_invariants() {
        let (mut ns, d, _, _) = tiny();
        assert!(ns.invariants_hold());
        ns.arena[d.index()].below += 1;
        assert!(!ns.invariants_hold());
    }

    #[test]
    fn dir_index_follows_mkdir() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        ns.create_file(a, "f", 1).unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        let a1 = ns.mkdir(a, "a1").unwrap();
        let a2 = ns.mkdir(a, "a2").unwrap();
        assert_eq!(ns.dir_ids(), &[InodeId::ROOT, a, b, a1, a2]);
        assert_eq!(subdirs_of(&ns, InodeId::ROOT), vec![a, b]);
        assert_eq!(subdirs_of(&ns, a), vec![a1, a2]);
        assert!(subdirs_of(&ns, b).is_empty());
        assert!(ns.invariants_hold());
    }

    #[test]
    fn invariants_catch_a_stale_dir_index() {
        let mut ns = nested_and_split();
        ns.subdirs[0].reverse();
        ns.subdirs[0].push(0);
        assert!(!ns.invariants_hold());
        let mut ns = nested_and_split();
        ns.dir_ids.pop();
        assert!(!ns.invariants_hold());
        let mut ns = nested_and_split();
        ns.arena[1].name_off = u32::try_from(ns.names.len()).unwrap();
        assert!(!ns.invariants_hold());
    }

    #[test]
    fn name_arena_past_u32_is_refused() {
        let max = u32_to_usize(u32::MAX);
        assert_eq!(name_range(max - 3, 3), Some((u32::MAX - 3, 3)));
        assert_eq!(name_range(max - 3, 4), None);
        assert_eq!(name_range(max + 1, 0), None);
        let mut names = String::from("x");
        assert_eq!(push_name(&mut names, "yz"), Some((1, 2)));
        assert_eq!(names, "xyz");
    }

    #[test]
    fn unlinked_files_are_excluded_from_walks() {
        let (mut ns, d, f, sub) = tiny();
        ns.unlink(f).unwrap();
        let walked: Vec<_> = ns.walk_subtree(InodeId::ROOT).collect();
        assert_eq!(walked, vec![InodeId::ROOT, d, sub]);
        assert_eq!(ns.subtree_size(InodeId::ROOT), 3);
    }

    /// Encodes `ns`, letting `corrupt` edit the arena first.
    fn encoded_with(ns: &Namespace, corrupt: impl FnOnce(&mut Vec<Inode>)) -> Vec<u8> {
        let mut bad = ns.clone();
        corrupt(&mut bad.arena);
        let mut e = lunule_util::codec::Encoder::new();
        bad.encode(&mut e);
        e.into_bytes()
    }

    #[test]
    fn decode_refuses_dead_directories_and_upward_parent_ids() {
        let invalid = lunule_util::codec::CodecError::Invalid { what: "namespace" };
        let decode = |bytes: &[u8]| {
            Namespace::decode(&mut lunule_util::codec::Decoder::new(bytes)).map(|_| ())
        };
        // An empty directory, dead and detached from its parent: the
        // encoded directory count still matches the rebuilt index, and
        // every other check still holds.
        let mut ns = Namespace::new();
        let gone = ns.mkdir(InodeId::ROOT, "gone").unwrap();
        let good = encoded_with(&ns, |_| {});
        assert_eq!(decode(&good), Ok(()));
        // The directory count is the encoding's last word; one too few is
        // refused against the rebuilt index.
        let mut short = good.clone();
        let at = short.len() - 8;
        short[at..].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(decode(&short), Err(invalid.clone()));
        let dead = encoded_with(&ns, |arena| {
            arena[0].children.remove(gone);
            arena[gone.index()].alive = false;
        });
        assert_eq!(decode(&dead), Err(invalid.clone()));
        // A directory and its file swap slots, so the directory's id is
        // above its child's while every link, depth and count still match.
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        ns.create_file(d, "g", 1).unwrap();
        let swapped = encoded_with(&ns, |arena| {
            arena.swap(1, 2);
            let (file, dir) = (InodeId::from_index(1), InodeId::from_index(2));
            arena[0].children = vec![dir].into();
            arena[dir.index()].children = vec![file].into();
            arena[file.index()].parent = Some(dir);
        });
        assert_eq!(decode(&swapped), Err(invalid));
    }
}
