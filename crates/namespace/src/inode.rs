//! Inode identifiers and arena entries.

use lunule_util::convert::{u32_to_usize, usize_to_u32};

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
/// Children are stored as a gap-buffered `ChildList` in creation order:
/// workload generators address inodes by id (they built the tree), so no
/// per-directory name index is needed on the hot path; names exist for
/// display and debugging only. The name itself lives in the owning
/// namespace's name arena (see [`crate::Namespace::name`]); the entry keeps
/// only its byte range, so a name costs its bytes rather than a heap
/// allocation each.
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
    pub(crate) children: ChildList,
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

/// A directory's children in creation order, kept in a gap buffer.
///
/// The live window is `buf[head..head + len]`; the slots around it are
/// spare. Appending writes past the window, and removing a child shifts
/// whichever side of it is shorter, so a removal costs its distance to the
/// nearer end: constant when children leave in creation order (mdtest's
/// remove phase) or in reverse. The list is 24 bytes, as a `Vec` is, and
/// the buffer never exceeds `max(4, 2 × the most children listed at once)`.
#[derive(Clone, Default)]
pub(crate) struct ChildList {
    buf: Box<[InodeId]>,
    head: u32,
    len: u32,
}

/// The buffer size of a list's first growth, as a `Vec` of 4-byte items
/// would choose.
const MIN_CHILD_SLOTS: usize = 4;

impl ChildList {
    /// Appends `id`, in O(1) amortised: see [`ChildList::make_room`].
    #[inline]
    pub(crate) fn push(&mut self, id: InodeId) {
        let mut end = u32_to_usize(self.head) + u32_to_usize(self.len);
        if end == self.buf.len() {
            end = self.make_room();
        }
        self.buf[end] = id;
        self.len += 1;
    }

    /// Frees a slot past the window of a full buffer and returns its
    /// index: moves the window to the front when the gap before it is at
    /// least as large as the window, and otherwise grows the buffer to
    /// twice the window (at least [`MIN_CHILD_SLOTS`]) through `Vec`, so
    /// the allocator can extend the block in place.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self) -> usize {
        let (head, len) = (u32_to_usize(self.head), u32_to_usize(self.len));
        self.buf.copy_within(head..head + len, 0);
        self.head = 0;
        if head == 0 || head < len {
            let mut slots = std::mem::take(&mut self.buf).into_vec();
            slots.truncate(len);
            slots.reserve_exact((2 * len).max(MIN_CHILD_SLOTS) - len);
            slots.resize(slots.capacity(), InodeId::ROOT);
            self.buf = slots.into_boxed_slice();
        }
        len
    }

    /// Removes `id` and reports whether it was listed. A child is listed
    /// once, so the search runs from both ends at once and stops at the
    /// first hit; the shorter side of the hit then shifts over it.
    pub(crate) fn remove(&mut self, id: InodeId) -> bool {
        let head = u32_to_usize(self.head);
        let live = &mut self.buf[head..head + u32_to_usize(self.len)];
        let n = live.len();
        let Some(pos) = (0..n.div_ceil(2)).find_map(|i| {
            let back = n - 1 - i;
            (live[i] == id)
                .then_some(i)
                .or_else(|| (live[back] == id).then_some(back))
        }) else {
            return false;
        };
        if pos < n - 1 - pos {
            live.copy_within(..pos, 1);
            self.head += 1;
        } else {
            live.copy_within(pos + 1.., pos);
        }
        self.len -= 1;
        if self.len == 0 {
            self.head = 0;
        }
        true
    }
}

impl std::ops::Deref for ChildList {
    type Target = [InodeId];

    /// The live window, in creation order.
    #[inline]
    fn deref(&self) -> &[InodeId] {
        let head = u32_to_usize(self.head);
        &self.buf[head..head + u32_to_usize(self.len)]
    }
}

impl From<Vec<InodeId>> for ChildList {
    /// A list holding exactly `ids`, in their order (snapshot decoding).
    fn from(ids: Vec<InodeId>) -> Self {
        let len = usize_to_u32(ids.len());
        ChildList {
            buf: ids.into_boxed_slice(),
            head: 0,
            len,
        }
    }
}

impl std::fmt::Debug for ChildList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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
    #[inline]
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

    /// Checks `list` against its `Vec` oracle and the buffer bound.
    fn assert_matches(list: &ChildList, oracle: &[InodeId], peak: usize) {
        assert_eq!(&list[..], oracle);
        assert!(
            list.buf.len() <= MIN_CHILD_SLOTS.max(2 * peak),
            "{} slots for a peak of {peak} children",
            list.buf.len()
        );
    }

    #[test]
    fn child_list_matches_a_vec() {
        lunule_util::propcheck::run(64, |rng| {
            let mut list = ChildList::default();
            let mut oracle: Vec<InodeId> = Vec::new();
            let mut next = 0;
            let mut fresh = || {
                next += 1;
                InodeId(next)
            };
            let mut peak = 0;
            for _ in 0..200 {
                match rng.gen_range(0..7) {
                    0..=2 => {
                        let id = fresh();
                        list.push(id);
                        oracle.push(id);
                    }
                    3 if !oracle.is_empty() => assert!(list.remove(oracle.remove(0))),
                    4 if !oracle.is_empty() => {
                        let id = oracle.pop().unwrap();
                        assert!(list.remove(id));
                    }
                    5 if !oracle.is_empty() => {
                        let id = oracle.remove(rng.gen_range(0..oracle.len()));
                        assert!(list.remove(id));
                    }
                    6 => {
                        // A long FIFO churn at the current length.
                        for _ in 0..rng.gen_range(0..300) {
                            let id = fresh();
                            list.push(id);
                            oracle.push(id);
                            peak = peak.max(oracle.len());
                            assert!(list.remove(oracle.remove(0)));
                            assert_matches(&list, &oracle, peak);
                        }
                    }
                    _ => assert!(!list.remove(fresh()), "an absent id was removed"),
                }
                peak = peak.max(oracle.len());
                assert_matches(&list, &oracle, peak);
            }
        });
    }

    #[test]
    fn child_list_removes_from_either_end_in_place() {
        let ids: Vec<InodeId> = (1..=10).map(InodeId).collect();
        let mut list = ChildList::from(ids.clone());
        assert!(list.remove(ids[0]));
        assert_eq!((list.head, list.len), (1, 9));
        assert!(list.remove(ids[9]));
        assert_eq!((list.head, list.len), (1, 8));
        assert!(list.remove(ids[2]));
        assert_eq!((list.head, list.len), (2, 7));
        assert_eq!(
            list[..],
            [ids[1], ids[3], ids[4], ids[5], ids[6], ids[7], ids[8]]
        );
        assert!(!list.remove(ids[0]));
        assert_eq!(list.buf.len(), 10);
    }

    #[test]
    fn child_list_debug_prints_the_live_children() {
        let ids: Vec<InodeId> = (1..=5).map(InodeId).collect();
        let mut list = ChildList::from(ids.clone());
        list.remove(ids[0]);
        list.push(InodeId(9));
        assert_eq!(format!("{list:?}"), "[ino:2, ino:3, ino:4, ino:5, ino:9]");
        assert_eq!(format!("{:?}", ChildList::default()), "[]");
    }
}
