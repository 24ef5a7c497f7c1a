//! Inode identifiers and arena entries.

/// Identifier of an inode inside a [`crate::Namespace`] arena.
///
/// Stored as a `u32` index — large enough for the multi-million-inode
/// namespaces the paper's workloads build, and half the size of a `usize`
/// key, which matters because the balancer keeps per-inode visit state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub(crate) u32);

impl InodeId {
    /// The root directory of every namespace.
    pub const ROOT: InodeId = InodeId(0);

    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw id as `u64`, used for dentry hashing.
    pub fn raw(self) -> u64 {
        self.0 as u64
    }

    /// Rebuilds an id from a raw index. Only meaningful for indices handed
    /// out by the same namespace.
    pub fn from_index(idx: usize) -> Self {
        InodeId(u32::try_from(idx).expect("namespace exceeds u32 inode space"))
    }
}

impl std::fmt::Debug for InodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

impl std::fmt::Display for InodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Whether an inode is a regular file or a directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file; carries a size used by the data-path model.
    File,
    /// Directory; owns children and a fragment set.
    Dir,
}

/// One arena entry.
///
/// Children are stored as a plain `Vec<InodeId>` in creation order: workload
/// generators address inodes by id (they built the tree), so no per-directory
/// name index is needed on the hot path; names exist for display and
/// debugging only. The name itself lives in the owning namespace's name
/// arena (see [`crate::Namespace::name`]); the entry keeps only its byte
/// range, so a name costs its bytes rather than a heap allocation each.
#[derive(Clone, Debug)]
pub struct Inode {
    pub(crate) parent: Option<InodeId>,
    /// Byte offset of the name in the namespace's name arena.
    pub(crate) name_off: u32,
    /// Byte length of the name.
    pub(crate) name_len: u32,
    pub(crate) ftype: FileType,
    /// File size in bytes (0 for directories); drives the data-path model.
    pub(crate) size: u64,
    /// Children in creation order; empty for files.
    pub(crate) children: Vec<InodeId>,
    /// Depth from the root (root = 0); cached for cheap path length queries.
    pub(crate) depth: u16,
    /// Live inodes strictly below this one (0 for files). Every namespace
    /// mutation keeps it current along the ancestor chain; snapshots do not
    /// carry it, decoding recounts it. It sits in what would be padding.
    pub(crate) below: u32,
    /// False once unlinked/removed. Ids are never reused; dead slots stay
    /// in the arena as tombstones so outstanding references fail loudly
    /// instead of aliasing a new inode.
    pub(crate) alive: bool,
}

impl Inode {
    /// Parent directory, `None` only for the root.
    pub fn parent(&self) -> Option<InodeId> {
        self.parent
    }

    /// File or directory.
    pub fn ftype(&self) -> FileType {
        self.ftype
    }

    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.ftype == FileType::Dir
    }

    /// File size in bytes (0 for directories).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Children in creation order (empty for files).
    pub fn children(&self) -> &[InodeId] {
        &self.children
    }

    /// Depth from the root (root = 0).
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// False once the inode was unlinked/removed.
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_id_roundtrip() {
        let id = InodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(format!("{id:?}"), "ino:42");
    }

    #[test]
    fn inode_entry_stays_small() {
        // One entry per inode, 10^7 of them at megascale: a per-inode `Vec`
        // would add 24 bytes to every one of them, and the `below` count
        // must keep fitting in padding.
        assert!(std::mem::size_of::<Inode>() <= 56);
    }

    #[test]
    fn root_is_index_zero() {
        assert_eq!(InodeId::ROOT.index(), 0);
    }
}
