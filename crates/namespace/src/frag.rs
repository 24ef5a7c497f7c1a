//! Ceph-style directory fragments (`frag_t`).
//!
//! A directory's dentries are hashed into a 24-bit hash space. A [`Frag`]
//! denotes the subset of that space whose top `bits` bits equal `value`.
//! `Frag::root()` covers the whole directory; splitting a frag produces
//! children that partition it exactly. CephFS uses the same representation to
//! let a single huge directory be carved up and spread across MDSs; we need
//! it for the MDtest workload, where every client creates 100k files in one
//! directory and balance is only achievable by fragment splitting.

use lunule_util::convert::u32_to_usize;

/// Number of significant bits in the dentry hash space.
pub const HASH_BITS: u8 = 24;

/// Mask covering the whole dentry hash space.
pub const HASH_MASK: u32 = (1 << HASH_BITS) - 1;

/// A fragment of a directory's dentry hash space.
///
/// Invariant: `bits <= HASH_BITS` and `value` has zeros outside its top
/// `bits`-bit prefix (i.e. `value < 2^bits`, stored left-aligned at bit 0 of
/// a `bits`-wide prefix, matching Ceph's `frag_t`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Frag {
    /// Prefix value occupying the low `bits` bits.
    value: u32,
    /// Number of prefix bits that are significant.
    bits: u8,
}

impl Frag {
    /// The root fragment covering the entire hash space of a directory.
    pub const fn root() -> Self {
        Frag { value: 0, bits: 0 }
    }

    /// Builds a fragment from a prefix `value` of `bits` significant bits.
    ///
    /// # Panics
    /// Panics if `bits > HASH_BITS` or `value` does not fit in `bits` bits.
    pub fn new(value: u32, bits: u8) -> Self {
        assert!(bits <= HASH_BITS, "frag bits {bits} exceed hash width");
        assert!(
            bits == HASH_BITS || value < (1u32 << bits),
            "frag value {value:#x} does not fit in {bits} bits"
        );
        Frag { value, bits }
    }

    /// Prefix value (low `self.bits()` bits significant).
    pub const fn value(&self) -> u32 {
        self.value
    }

    /// Number of significant prefix bits. 0 means the whole directory.
    pub const fn bits(&self) -> u8 {
        self.bits
    }

    /// True if this is the root fragment (the undivided directory).
    pub const fn is_root(&self) -> bool {
        self.bits == 0
    }

    /// True if `hash` (a dentry hash, only the low [`HASH_BITS`] bits are
    /// used) falls inside this fragment.
    pub fn contains_hash(&self, hash: u32) -> bool {
        if self.bits == 0 {
            return true;
        }
        let h = hash & HASH_MASK;
        (h >> (HASH_BITS - self.bits)) == self.value
    }

    /// True if `other` is this fragment or lies strictly inside it.
    pub fn contains_frag(&self, other: &Frag) -> bool {
        if other.bits < self.bits {
            return false;
        }
        (other.value >> (other.bits - self.bits)) == self.value
    }

    /// Splits this fragment into `2^by` equal children, in hash order.
    ///
    /// # Panics
    /// Panics if the split would exceed [`HASH_BITS`] total bits or `by == 0`.
    pub fn split(&self, by: u8) -> Vec<Frag> {
        assert!(by > 0, "split(0) is a no-op; refuse it to catch bugs");
        let nbits = self.bits + by;
        assert!(nbits <= HASH_BITS, "cannot split past hash width");
        (0..(1u32 << by))
            .map(|i| Frag {
                value: (self.value << by) | i,
                bits: nbits,
            })
            .collect()
    }

    /// Splits into exactly two halves. Convenience for the subtree selector's
    /// "divide it into two subtrees" path.
    pub fn split_in_two(&self) -> (Frag, Frag) {
        let kids = self.split(1);
        (kids[0], kids[1])
    }

    /// True if the two fragments cover disjoint hash ranges.
    pub fn disjoint(&self, other: &Frag) -> bool {
        !self.contains_frag(other) && !other.contains_frag(self)
    }

    /// First hash value covered by this fragment.
    pub fn range_start(&self) -> u32 {
        if self.bits == 0 {
            0
        } else {
            self.value << (HASH_BITS - self.bits)
        }
    }

    /// One past the last hash value covered by this fragment.
    pub fn range_end(&self) -> u32 {
        if self.bits == 0 {
            HASH_MASK + 1
        } else {
            (self.value + 1) << (HASH_BITS - self.bits)
        }
    }
}

impl Frag {
    /// Writes the fragment to a snapshot section.
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_u32(self.value);
        e.put_u8(self.bits);
    }

    /// Reads a fragment back, rejecting values that violate the `Frag`
    /// invariant (so a corrupted snapshot cannot smuggle in a frag that
    /// [`Frag::new`] would panic on).
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<Frag, lunule_util::codec::CodecError> {
        let value = d.get_u32("frag value")?;
        let bits = d.get_u8("frag bits")?;
        if bits > HASH_BITS || (bits < HASH_BITS && value >= (1u32 << bits)) {
            return Err(lunule_util::codec::CodecError::Invalid { what: "frag" });
        }
        Ok(Frag { value, bits })
    }
}

impl Default for Frag {
    fn default() -> Self {
        Frag::root()
    }
}

impl std::fmt::Debug for Frag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:x}*{}", self.value, self.bits)
    }
}

impl std::fmt::Display for Frag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Hashes a dentry (identified by the child inode's raw id) into the
/// [`HASH_BITS`]-wide dentry hash space.
///
/// A Fibonacci-style multiplicative hash: cheap, deterministic, and spreads
/// consecutive ids uniformly, which is what we need to make frag splitting
/// behave like Ceph's dentry-name hashing on our integer-keyed namespace.
pub fn dentry_hash(raw_id: u64) -> u32 {
    let h = raw_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // as-ok: h >> 40 leaves 24 bits, which fit u32 exactly
    ((h >> 40) as u32) & HASH_MASK
}

/// A set of fragments that must always partition a directory's hash space.
///
/// Directories start with `[Frag::root()]`; a split replaces one member by
/// its children, and fragments never merge back. The partition invariant is
/// checked in debug builds after every split.
///
/// Beside each live fragment sits its child count: how many of the
/// directory's children have a dentry hash inside it. Beside the whole set
/// sits a histogram of the children's top [`HIST_BITS`] hash bits, so the
/// child count of any fragment no deeper than that, live or not, is a sum
/// over at most `2^HIST_BITS` buckets: a split and the selector's
/// hypothetical splits count without visiting a child. Only
/// [`crate::Namespace`] keeps the counts (a child joining or leaving, a
/// split, a snapshot decode), and they are not serialised; a set used on
/// its own reads zero for every fragment a split creates.
#[derive(Clone, Debug)]
pub struct FragSet {
    frags: Vec<Frag>,
    /// Per fragment, in the order of `frags`: children hashing into it.
    counts: Vec<usize>,
    /// Children per value of their top [`HIST_BITS`] hash bits.
    hist: Box<[u32]>,
}

/// Hash bits the histogram of a [`FragSet`] resolves: 256 buckets, 1 KiB
/// per fragmented directory.
pub const HIST_BITS: u8 = 8;

/// The histogram bucket of a dentry hash.
fn bucket(hash: u32) -> usize {
    u32_to_usize((hash & HASH_MASK) >> (HASH_BITS - HIST_BITS))
}

impl FragSet {
    /// A fresh, undivided directory: the single root fragment.
    pub fn new_root() -> Self {
        Self::new_root_counting(std::iter::empty())
    }

    /// The single root fragment of a directory whose children have the
    /// dentry `hashes`.
    pub(crate) fn new_root_counting(hashes: impl Iterator<Item = u32>) -> Self {
        let mut set = FragSet {
            frags: vec![Frag::root()],
            counts: vec![0],
            hist: vec![0; 1 << HIST_BITS].into_boxed_slice(),
        };
        set.recount(hashes);
        set
    }

    /// The current fragments, in ascending hash order.
    pub fn frags(&self) -> &[Frag] {
        &self.frags
    }

    /// Per fragment of [`FragSet::frags`], in the same order: the number
    /// of the directory's children whose dentry hash it contains.
    pub fn child_counts(&self) -> &[usize] {
        &self.counts
    }

    /// The number of children whose dentry hash `frag` contains, when the
    /// set can tell without them: `frag` is no deeper than [`HIST_BITS`]
    /// (a sum over its histogram buckets) or is live (its child count).
    pub fn child_count(&self, frag: &Frag) -> Option<usize> {
        if frag.bits() <= HIST_BITS {
            let lo = bucket(frag.range_start());
            let hi = lo + (1usize << (HIST_BITS - frag.bits()));
            let sum: u64 = self.hist[lo..hi].iter().map(|&n| u64::from(n)).sum();
            return usize::try_from(sum).ok();
        }
        let i = self.frags.iter().position(|f| f == frag)?;
        Some(self.counts[i])
    }

    /// Moves the child count of the fragment containing `hash`, and the
    /// histogram bucket of `hash`, one up (`joined`) or one down: a child
    /// with that dentry hash joined or left the directory.
    pub(crate) fn count_child(&mut self, hash: u32, joined: bool) {
        if let Some(n) = self
            .index_for_hash(hash)
            .and_then(|i| self.counts.get_mut(i))
        {
            *n = if joined { *n + 1 } else { n.saturating_sub(1) };
        }
        let b = &mut self.hist[bucket(hash)];
        *b = if joined {
            b.saturating_add(1)
        } else {
            b.saturating_sub(1)
        };
    }

    /// The child counts, for tests that make them stale.
    #[cfg(test)]
    pub(crate) fn counts_mut(&mut self) -> &mut [usize] {
        &mut self.counts
    }

    /// Sets every fragment's child count and the histogram from the
    /// dentry hashes of the directory's children (snapshot decoding).
    pub(crate) fn recount(&mut self, hashes: impl Iterator<Item = u32>) {
        self.counts = vec![0; self.frags.len()];
        self.hist.fill(0);
        for h in hashes {
            self.count_child(h, true);
        }
    }

    /// The histogram, for the namespace check that compares it with a
    /// recount.
    pub(crate) fn histogram(&self) -> &[u32] {
        &self.hist
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.frags.len()
    }

    /// True when the directory is undivided.
    pub fn is_empty(&self) -> bool {
        self.frags.is_empty()
    }

    /// The fragment containing `hash`.
    pub fn frag_for_hash(&self, hash: u32) -> Frag {
        self.index_for_hash(hash)
            .map(|i| self.frags[i])
            .unwrap_or_else(|| {
                // The partition invariant guarantees a hit; a miss means the
                // set was corrupted. Flag it in debug builds but stay total.
                debug_assert!(false, "FragSet invariant: frags partition the hash space");
                Frag::root()
            })
    }

    /// Position in [`FragSet::frags`] of the fragment containing `hash`
    /// (`None` only for a set that no longer partitions the hash space).
    /// A linear scan: on the 4- and 16-fragment sets of the perf basket it
    /// runs twice as fast as a binary search, whose branches a dentry hash
    /// makes unpredictable.
    pub fn index_for_hash(&self, hash: u32) -> Option<usize> {
        self.frags.iter().position(|f| f.contains_hash(hash))
    }

    /// True if `frag` is currently one of the live fragments.
    pub fn contains(&self, frag: &Frag) -> bool {
        self.frags.contains(frag)
    }

    /// Splits `frag` into `2^by` children and returns them, or `None` when
    /// `frag` is not a live fragment of this set (e.g. it was already split
    /// by a concurrent actor — callers treat that as a stale request).
    /// The children's counts start at zero.
    pub fn split(&mut self, frag: &Frag, by: u8) -> Option<Vec<Frag>> {
        self.split_counting(frag, by, std::iter::empty())
    }

    /// [`FragSet::split`], counting into the new fragments those of the
    /// directory's child dentry `hashes` that fall inside `frag`. A split
    /// no deeper than [`HIST_BITS`] reads its counts from the histogram
    /// and leaves `hashes` unread.
    pub(crate) fn split_counting(
        &mut self,
        frag: &Frag,
        by: u8,
        hashes: impl Iterator<Item = u32>,
    ) -> Option<Vec<Frag>> {
        let idx = self.frags.iter().position(|f| f == frag)?;
        let children = frag.split(by);
        let counts: Vec<usize> = if frag.bits() + by <= HIST_BITS {
            children
                .iter()
                .map(|c| self.child_count(c).unwrap_or(0))
                .collect()
        } else {
            let mut counts = vec![0; children.len()];
            for h in hashes.filter(|h| frag.contains_hash(*h)) {
                // The `by` bits below `frag`'s prefix select the child.
                let i = u32_to_usize((h & HASH_MASK) >> (HASH_BITS - frag.bits() - by));
                counts[i & ((1 << by) - 1)] += 1;
            }
            counts
        };
        self.frags.splice(idx..=idx, children.iter().copied());
        self.counts.splice(idx..=idx, counts);
        self.debug_check();
        Some(children)
    }

    fn debug_check(&self) {
        debug_assert!(self.partition_holds(), "FragSet no longer partitions");
        debug_assert_eq!(self.counts.len(), self.frags.len());
    }

    /// Writes the fragment set to a snapshot section.
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_seq(&self.frags, |e, f| f.encode(e));
    }

    /// Reads a fragment set back, rejecting one that no longer partitions
    /// the hash space (corruption surfaced as a typed error, not a
    /// debug-assert later). Every child count reads zero until
    /// [`crate::Namespace`] recounts it.
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<FragSet, lunule_util::codec::CodecError> {
        let frags = d.get_seq("fragset", Frag::decode)?;
        let set = FragSet {
            counts: vec![0; frags.len()],
            frags,
            ..FragSet::new_root()
        };
        if !set.partition_holds() {
            return Err(lunule_util::codec::CodecError::Invalid { what: "fragset" });
        }
        Ok(set)
    }

    /// Checks the partition invariant: fragments are disjoint and cover the
    /// whole hash space. Exposed for tests.
    pub fn partition_holds(&self) -> bool {
        let mut sorted = self.frags.clone();
        sorted.sort_by_key(|f| f.range_start());
        let mut cursor = 0u64;
        for f in &sorted {
            if u64::from(f.range_start()) != cursor {
                return false;
            }
            cursor = u64::from(f.range_end());
        }
        cursor == (u64::from(HASH_MASK) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_covers_everything() {
        let r = Frag::root();
        assert!(r.contains_hash(0));
        assert!(r.contains_hash(HASH_MASK));
        assert!(r.is_root());
    }

    #[test]
    fn split_partitions_parent() {
        let r = Frag::root();
        let kids = r.split(2);
        assert_eq!(kids.len(), 4);
        for h in [0u32, 1, 12345, HASH_MASK, HASH_MASK / 2] {
            let owners: Vec<_> = kids.iter().filter(|k| k.contains_hash(h)).collect();
            assert_eq!(owners.len(), 1, "hash {h} must land in exactly one child");
        }
        for k in &kids {
            assert!(r.contains_frag(k));
            assert!(!k.contains_frag(&r));
        }
    }

    #[test]
    fn halves_sit_one_level_below_the_root() {
        let r = Frag::root();
        let (a, b) = r.split_in_two();
        for half in [a, b] {
            assert_eq!(half.bits(), r.bits() + 1);
            assert!(r.contains_frag(&half));
        }
        assert!(r.is_root());
        assert!(a.disjoint(&b));
    }

    #[test]
    fn contains_frag_is_reflexive_and_ordered() {
        let f = Frag::new(0b101, 3);
        assert!(f.contains_frag(&f));
        let deep = Frag::new(0b1011, 4);
        assert!(f.contains_frag(&deep));
        assert!(!deep.contains_frag(&f));
        let other = Frag::new(0b100, 3);
        assert!(f.disjoint(&other));
    }

    #[test]
    fn ranges_are_contiguous() {
        let kids = Frag::root().split(3);
        let mut cursor = 0;
        for k in kids {
            assert_eq!(k.range_start(), cursor);
            cursor = k.range_end();
        }
        assert_eq!(cursor, HASH_MASK + 1);
    }

    #[test]
    #[should_panic]
    fn split_past_width_panics() {
        Frag::new(0, HASH_BITS).split(1);
    }

    #[test]
    #[should_panic]
    fn oversized_value_panics() {
        Frag::new(0b100, 2);
    }

    #[test]
    fn fragset_split_and_lookup() {
        let mut set = FragSet::new_root();
        assert_eq!(set.len(), 1);
        let kids = set.split(&Frag::root(), 1).unwrap();
        assert_eq!(set.len(), 2);
        let h = 5u32;
        let owner = set.frag_for_hash(h);
        assert!(kids.contains(&owner));
        assert!(set.partition_holds());
    }

    #[test]
    fn index_for_hash_finds_the_one_containing_frag() {
        // Uneven widths: 3-bit frags at the front, a 1-bit frag at the back.
        let mut set = FragSet::new_root();
        set.split(&Frag::root(), 1).unwrap();
        set.split(&Frag::new(0, 1), 2).unwrap();
        set.split(&Frag::new(1, 3), 3).unwrap();
        for raw in 0..2_000u64 {
            let h = dentry_hash(raw);
            let linear = set.frags().iter().position(|f| f.contains_hash(h));
            assert_eq!(set.index_for_hash(h), linear);
        }
        for h in [0, HASH_MASK, HASH_MASK + 1, u32::MAX] {
            let i = set.index_for_hash(h).unwrap();
            assert!(set.frags()[i].contains_hash(h));
        }
        // A set that no longer partitions has gaps, which find nothing.
        let gappy = FragSet {
            frags: vec![Frag::new(1, 1)],
            counts: vec![0],
            ..FragSet::new_root()
        };
        assert_eq!(gappy.index_for_hash(0), None);
        assert_eq!(gappy.index_for_hash(HASH_MASK), Some(0));
    }

    #[test]
    fn fragset_counts_follow_splits() {
        let hashes: Vec<u32> = (0..500u64).map(dentry_hash).collect();
        let mut set = FragSet::new_root_counting(hashes.iter().copied());
        set.split_counting(&Frag::root(), 1, hashes.iter().copied())
            .unwrap();
        let (_, right) = Frag::root().split_in_two();
        set.split_counting(&right, 2, hashes.iter().copied())
            .unwrap();
        // Past the histogram's resolution the split counts the hashes.
        let deep = Frag::new(0b1, 1).split(2)[0].split(HIST_BITS - 3)[0];
        let mut at = set.frags()[1];
        while at != deep {
            let next = at.split_in_two().0;
            set.split_counting(&at, 1, hashes.iter().copied()).unwrap();
            at = next;
        }
        set.split_counting(&deep, 3, hashes.iter().copied())
            .unwrap();
        let counted = |f: &Frag| hashes.iter().filter(|h| f.contains_hash(**h)).count();
        let want: Vec<usize> = set.frags().iter().map(counted).collect();
        assert_eq!(set.child_counts(), want.as_slice());
        for f in set.frags() {
            assert_eq!(set.child_count(f), Some(counted(f)), "{f:?}");
        }
        // A set used on its own counts nothing into a split's fragments.
        let mut alone = FragSet::new_root();
        alone.split(&Frag::root(), 1).unwrap();
        assert_eq!(alone.child_counts(), &[0, 0]);
    }

    #[test]
    fn dentry_hash_spreads() {
        // Consecutive ids should not all land in the same half-space.
        let (a, _b) = Frag::root().split_in_two();
        let in_a = (0..1000u64)
            .filter(|i| a.contains_hash(dentry_hash(*i)))
            .count();
        assert!(in_a > 300 && in_a < 700, "half-space share was {in_a}/1000");
    }
}
