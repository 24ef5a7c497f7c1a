//! The namespace arena: a hierarchical tree of directories and files.

use crate::error::{NsError, NsResult};
use crate::frag::{dentry_hash, Frag, FragSet};
use crate::inode::{FileType, Inode, InodeId};
use std::collections::BTreeMap;

/// An in-memory hierarchical filesystem namespace.
///
/// This is the substrate the CephFS MDS cluster manages: every balancer
/// decision (subtree selection, frag splitting, migration accounting) is a
/// query or mutation against this structure. Inodes live in an arena indexed
/// by [`InodeId`]; directories additionally own a [`FragSet`] once they have
/// been fragmented.
#[derive(Clone, Debug)]
pub struct Namespace {
    arena: Vec<Inode>,
    /// Fragment sets for fragmented directories only; an absent entry means
    /// the directory is undivided (implicit `[Frag::root()]`).
    frags: BTreeMap<InodeId, FragSet>,
    n_files: usize,
    n_dirs: usize,
}

impl Namespace {
    /// Creates a namespace containing only the root directory `/`.
    pub fn new() -> Self {
        Namespace {
            arena: vec![Inode {
                parent: None,
                name: "/".into(),
                ftype: FileType::Dir,
                size: 0,
                children: Vec::new(),
                depth: 0,
                alive: true,
            }],
            frags: BTreeMap::new(),
            n_files: 0,
            n_dirs: 1,
        }
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
        self.n_dirs
    }

    /// Borrow an inode entry.
    pub fn inode(&self, id: InodeId) -> &Inode {
        &self.arena[id.index()]
    }

    /// Checked inode lookup.
    pub fn get(&self, id: InodeId) -> NsResult<&Inode> {
        self.arena.get(id.index()).ok_or(NsError::NoSuchInode(id))
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
        let id = InodeId::from_index(self.arena.len());
        self.arena.push(Inode {
            parent: Some(parent),
            name: name.into(),
            ftype,
            size,
            children: Vec::new(),
            depth: pdepth + 1,
            alive: true,
        });
        self.arena[parent.index()].children.push(id);
        match ftype {
            FileType::File => self.n_files += 1,
            FileType::Dir => self.n_dirs += 1,
        }
        Ok(id)
    }

    /// Unlinks a regular file: detaches it from its parent and tombstones
    /// the arena slot (ids are never reused).
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
        self.remove_child(parent, id);
        self.arena[id.index()].alive = false;
        self.n_files -= 1;
        Ok(())
    }

    /// Drops `id` from `parent`'s child list. A child is listed once, so
    /// the first match is the only one; `Vec::remove` shifts the tail in
    /// one memmove and keeps the creation order that iteration and
    /// snapshots follow.
    fn remove_child(&mut self, parent: InodeId, id: InodeId) {
        let children = &mut self.arena[parent.index()].children;
        if let Some(pos) = children.iter().position(|c| *c == id) {
            children.remove(pos);
        }
    }

    /// Removes an *empty* directory. The root cannot be removed.
    pub fn rmdir(&mut self, id: InodeId) -> NsResult<()> {
        if id == InodeId::ROOT {
            return Err(NsError::RootIsImmovable);
        }
        let ino = self.get(id)?;
        if !ino.alive {
            return Err(NsError::NoSuchInode(id));
        }
        if !ino.is_dir() {
            return Err(NsError::NotADirectory(id));
        }
        if !ino.children.is_empty() {
            return Err(NsError::DirectoryNotEmpty(id));
        }
        let parent = ino.parent.ok_or(NsError::RootIsImmovable)?;
        self.remove_child(parent, id);
        self.arena[id.index()].alive = false;
        self.frags.remove(&id);
        self.n_dirs -= 1;
        Ok(())
    }

    /// Moves `id` (file or directory subtree) under `new_parent` with a new
    /// name. Rejects moving the root and moving a directory into its own
    /// subtree. Depths of the moved subtree are recomputed.
    pub fn rename(&mut self, id: InodeId, new_parent: InodeId, new_name: &str) -> NsResult<()> {
        if id == InodeId::ROOT {
            return Err(NsError::RootIsImmovable);
        }
        let np = self.get(new_parent)?;
        if !np.is_dir() || !np.alive {
            return Err(NsError::NotADirectory(new_parent));
        }
        let ino = self.get(id)?;
        if !ino.alive {
            return Err(NsError::NoSuchInode(id));
        }
        // Cycle check: new_parent must not be inside id's subtree.
        if self.path_chain(new_parent).contains(&id) {
            return Err(NsError::WouldCreateCycle {
                moved: id,
                into: new_parent,
            });
        }
        let old_parent = ino.parent.ok_or(NsError::RootIsImmovable)?;
        self.remove_child(old_parent, id);
        self.arena[new_parent.index()].children.push(id);
        let entry = &mut self.arena[id.index()];
        entry.parent = Some(new_parent);
        entry.name = new_name.into();
        // Recompute cached depths across the moved subtree.
        let base = self.arena[new_parent.index()].depth + 1;
        let delta = i32::from(base) - i32::from(self.arena[id.index()].depth);
        if delta != 0 {
            let subtree: Vec<InodeId> = self.walk_subtree(id).collect();
            for node in subtree {
                let d = &mut self.arena[node.index()].depth;
                let shifted = i32::from(*d) + delta;
                *d = u16::try_from(shifted).unwrap_or(0);
            }
        }
        Ok(())
    }

    /// Number of live inodes (files + directories), excluding tombstones.
    pub fn live_count(&self) -> usize {
        self.n_files + self.n_dirs
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

    /// Human-readable absolute path, for display/debugging.
    pub fn path_string(&self, id: InodeId) -> String {
        let chain = self.path_chain(id);
        if chain.len() == 1 {
            return "/".to_string();
        }
        let mut s = String::new();
        for c in &chain[1..] {
            s.push('/');
            s.push_str(self.inode(*c).name());
        }
        s
    }

    /// Looks up a direct child of `dir` by name (linear scan; not a hot
    /// path — see [`Inode::children`] docs).
    pub fn child_by_name(&self, dir: InodeId, name: &str) -> Option<InodeId> {
        self.inode(dir)
            .children
            .iter()
            .copied()
            .find(|c| self.inode(*c).name() == name)
    }

    /// The nearest ancestor of `id` that is a directory — `id` itself when it
    /// is a directory, its parent otherwise.
    pub fn containing_dir(&self, id: InodeId) -> InodeId {
        let ino = self.inode(id);
        if ino.is_dir() {
            id
        } else {
            // Only the root lacks a parent, and the root is a directory, so
            // falling back to the root keeps this total without a panic path.
            ino.parent.unwrap_or(InodeId::ROOT)
        }
    }

    /// The dentry-hash of `child` inside its parent directory.
    pub fn dentry_hash_of(&self, child: InodeId) -> u32 {
        dentry_hash(child.raw())
    }

    /// The live fragment of directory `dir` that `child` belongs to.
    pub fn frag_of_child(&self, dir: InodeId, child: InodeId) -> Frag {
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

    /// Live fragments of `dir` (a single root fragment when undivided).
    pub fn frags_of(&self, dir: InodeId) -> Vec<Frag> {
        match self.frags.get(&dir) {
            None => vec![Frag::root()],
            Some(set) => set.frags().to_vec(),
        }
    }

    /// Splits fragment `frag` of directory `dir` into `2^by` children and
    /// returns them. Creates the fragment set on first split.
    pub fn split_frag(&mut self, dir: InodeId, frag: &Frag, by: u8) -> NsResult<Vec<Frag>> {
        if !self.get(dir)?.is_dir() {
            return Err(NsError::NotADirectory(dir));
        }
        let set = self.frags.entry(dir).or_insert_with(FragSet::new_root);
        set.split(frag, by)
            .ok_or(NsError::NoSuchFrag { dir, frag: *frag })
    }

    /// Children of `dir` that fall inside `frag`.
    pub fn children_in_frag(&self, dir: InodeId, frag: &Frag) -> Vec<InodeId> {
        self.inode(dir)
            .children
            .iter()
            .copied()
            .filter(|c| frag.contains_hash(dentry_hash(c.raw())))
            .collect()
    }

    /// Iterative pre-order walk of the subtree rooted at `root` (inclusive).
    pub fn walk_subtree(&self, root: InodeId) -> SubtreeIter<'_> {
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
    pub fn subtree_inode_count(&self, root: InodeId, frag: &Frag) -> usize {
        self.children_in_frag(root, frag)
            .into_iter()
            .map(|child| self.walk_subtree(child).count())
            .sum()
    }

    /// All live directory ids, in arena order. Used by static pinning
    /// (Dir-Hash).
    pub fn all_dirs(&self) -> impl Iterator<Item = InodeId> + '_ {
        self.arena
            .iter()
            .enumerate()
            .filter(|(_, ino)| ino.is_dir() && ino.alive)
            .map(|(i, _)| InodeId::from_index(i))
    }

    /// Internal consistency check used by tests: every child's parent link
    /// points back at the directory listing it, depths are consistent, and
    /// counters match.
    pub fn invariants_hold(&self) -> bool {
        let mut files = 0;
        let mut dirs = 0;
        for (i, ino) in self.arena.iter().enumerate() {
            let id = InodeId::from_index(i);
            if !ino.alive {
                // Tombstones must be fully detached.
                if let Some(p) = ino.parent {
                    if self.arena[p.index()].children.contains(&id) {
                        return false;
                    }
                }
                continue;
            }
            match ino.ftype {
                FileType::File => files += 1,
                FileType::Dir => dirs += 1,
            }
            if let Some(p) = ino.parent {
                let parent = &self.arena[p.index()];
                if !parent.is_dir() || !parent.children.contains(&id) {
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
        files == self.n_files && dirs == self.n_dirs
    }
}

impl Namespace {
    /// Writes the complete arena (including tombstones — ids are never
    /// reused, so slots must survive a round-trip) and every fragment set
    /// to a snapshot section.
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_seq(&self.arena, |e, ino| {
            e.put_option(&ino.parent, |e, p| e.put_u64(p.raw()));
            e.put_str(&ino.name);
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
        e.put_usize(self.n_dirs);
    }

    /// Reads a namespace back. Structural corruption (dangling ids,
    /// counter drift, broken parent/child links) is reported as a typed
    /// error rather than trusted.
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<Namespace, lunule_util::codec::CodecError> {
        use lunule_util::codec::CodecError;
        let invalid = || CodecError::Invalid { what: "namespace" };
        let arena = d.get_seq("namespace arena", |d| {
            let parent = d
                .get_option("inode parent", |d| d.get_u64("parent id"))?
                .map(id_from_raw)
                .transpose()?;
            let name: Box<str> = d.get_str("inode name")?.into();
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
                name,
                ftype,
                size,
                children,
                depth,
                alive,
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
        let ns = Namespace {
            arena,
            frags,
            n_files,
            n_dirs,
        };
        if ns.arena.is_empty()
            || ns
                .arena
                .iter()
                .flat_map(|ino| ino.children.iter().chain(ino.parent.iter()))
                .any(|id| id.index() >= ns.arena.len())
            || !ns.invariants_hold()
        {
            return Err(invalid());
        }
        Ok(ns)
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
pub struct SubtreeIter<'a> {
    ns: &'a Namespace,
    stack: Vec<InodeId>,
}

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
    fn path_chain_and_string() {
        let (ns, d, f, _) = tiny();
        assert_eq!(ns.path_chain(f), vec![InodeId::ROOT, d, f]);
        assert_eq!(ns.path_string(f), "/data/a.bin");
        assert_eq!(ns.path_string(InodeId::ROOT), "/");
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
    fn containing_dir_of_file_and_dir() {
        let (ns, d, f, sub) = tiny();
        assert_eq!(ns.containing_dir(f), d);
        assert_eq!(ns.containing_dir(sub), sub);
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
    fn rmdir_requires_empty() {
        let (mut ns, d, f, sub) = tiny();
        assert_eq!(ns.rmdir(d).unwrap_err(), NsError::DirectoryNotEmpty(d));
        ns.unlink(f).unwrap();
        ns.rmdir(sub).unwrap();
        assert!(ns.rmdir(d).is_ok());
        assert_eq!(ns.dir_count(), 1); // only the root remains
        assert!(ns.invariants_hold());
        assert_eq!(
            ns.rmdir(InodeId::ROOT).unwrap_err(),
            NsError::RootIsImmovable
        );
    }

    #[test]
    fn rename_moves_subtree_and_fixes_depths() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let b = ns.mkdir(InodeId::ROOT, "b").unwrap();
        let deep = ns.mkdir(a, "deep").unwrap();
        let f = ns.create_file(deep, "f", 1).unwrap();
        assert_eq!(ns.inode(f).depth(), 3);
        ns.rename(deep, b, "moved").unwrap();
        assert_eq!(ns.path_string(f), "/b/moved/f");
        assert_eq!(ns.inode(deep).depth(), 2);
        assert_eq!(ns.inode(f).depth(), 3);
        assert!(ns.invariants_hold());
        // Deepen: move b under a; everything below shifts by one.
        ns.rename(b, a, "b2").unwrap();
        assert_eq!(ns.inode(f).depth(), 4);
        assert_eq!(ns.path_string(f), "/a/b2/moved/f");
        assert!(ns.invariants_hold());
    }

    #[test]
    fn rename_rejects_cycles_and_root() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let inner = ns.mkdir(a, "inner").unwrap();
        assert!(matches!(
            ns.rename(a, inner, "x").unwrap_err(),
            NsError::WouldCreateCycle { .. }
        ));
        assert!(matches!(
            ns.rename(a, a, "self").unwrap_err(),
            NsError::WouldCreateCycle { .. }
        ));
        assert_eq!(
            ns.rename(InodeId::ROOT, a, "r").unwrap_err(),
            NsError::RootIsImmovable
        );
        assert!(ns.invariants_hold());
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
        // The trailing 16 bytes are n_files/n_dirs; corrupt n_dirs.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut dec = lunule_util::codec::Decoder::new(&bytes);
        assert!(Namespace::decode(&mut dec).is_err());
    }

    #[test]
    fn tombstones_are_excluded_from_walks_and_dirs() {
        let (mut ns, d, f, sub) = tiny();
        ns.unlink(f).unwrap();
        ns.rmdir(sub).unwrap();
        let walked: Vec<_> = ns.walk_subtree(InodeId::ROOT).collect();
        assert_eq!(walked, vec![InodeId::ROOT, d]);
        assert!(ns.all_dirs().all(|x| x != sub));
    }
}
