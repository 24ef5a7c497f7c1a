//! Property-based tests for the namespace substrate.

use lunule_namespace::{
    dentry_hash, Frag, FragKey, FragSet, InodeId, MdsRank, Namespace, SubtreeMap, HASH_BITS,
    HASH_MASK,
};
use lunule_util::{propcheck, DetRng};

/// Samples an arbitrary well-formed fragment.
fn arb_frag(rng: &mut DetRng) -> Frag {
    let bits = rng.gen_range(0..HASH_BITS as usize + 1) as u8;
    let max = if bits == 0 { 1usize } else { 1usize << bits };
    Frag::new(rng.gen_range(0..max) as u32, bits)
}

/// Samples a hash in `[0, HASH_MASK]`.
fn arb_hash(rng: &mut DetRng) -> u32 {
    rng.gen_range(0..HASH_MASK as usize + 1) as u32
}

/// Every hash lands in exactly one child of any split.
#[test]
fn split_partitions() {
    propcheck::run(256, |rng| {
        let frag = arb_frag(rng);
        let hash = arb_hash(rng);
        let by = rng.gen_range(1..4) as u8;
        if frag.bits() + by > HASH_BITS {
            return;
        }
        let kids = frag.split(by);
        let owners = kids.iter().filter(|k| k.contains_hash(hash)).count();
        if frag.contains_hash(hash) {
            assert_eq!(owners, 1);
        } else {
            assert_eq!(owners, 0);
        }
    });
}

/// Containment agrees with range containment.
#[test]
fn contains_matches_ranges() {
    propcheck::run(256, |rng| {
        let a = arb_frag(rng);
        let b = arb_frag(rng);
        let range_contains = a.range_start() <= b.range_start() && b.range_end() <= a.range_end();
        assert_eq!(a.contains_frag(&b), range_contains);
    });
}

/// Each half of a split lies one level below the fragment it came from:
/// one more bit, with the fragment's value as its prefix.
#[test]
fn halves_sit_one_level_below_their_split() {
    propcheck::run(256, |rng| {
        let frag = arb_frag(rng);
        if frag.bits() >= HASH_BITS {
            return;
        }
        let (l, r) = frag.split_in_two();
        for half in [l, r] {
            assert_eq!(half.bits(), frag.bits() + 1);
            assert!(frag.contains_frag(&half));
        }
        assert_ne!(l, r);
    });
}

/// A FragSet subjected to a random split sequence always partitions the
/// hash space and routes every hash to exactly one live frag.
#[test]
fn fragset_partition_under_splits() {
    propcheck::run(128, |rng| {
        let mut set = FragSet::new_root();
        for _ in 0..rng.gen_range(0..12) {
            let target = set.frag_for_hash(arb_hash(rng));
            if target.bits() < HASH_BITS {
                set.split(&target, 1).unwrap();
            }
        }
        assert!(set.partition_holds());
        let probe = arb_hash(rng);
        let owner = set.frag_for_hash(probe);
        assert!(owner.contains_hash(probe));
        let owners = set
            .frags()
            .iter()
            .filter(|f| f.contains_hash(probe))
            .count();
        assert_eq!(owners, 1);
    });
}

/// Arena invariants hold under random construction sequences, and the path
/// chain of every inode starts at the root and descends by one depth level
/// per hop.
#[test]
fn namespace_invariants_under_random_builds() {
    propcheck::run(64, |rng| {
        let mut ns = Namespace::new();
        let mut dirs = vec![InodeId::ROOT];
        for _ in 0..rng.gen_range(1..120) {
            let parent = dirs[rng.gen_range(0..dirs.len())];
            if rng.gen_bool() {
                let d = ns.mkdir(parent, "d").unwrap();
                dirs.push(d);
            } else {
                ns.create_file(parent, "f", 1).unwrap();
            }
        }
        assert!(ns.invariants_hold());
        for idx in 0..ns.len() {
            let id = InodeId::from_index(idx);
            let chain = ns.path_chain(id);
            assert_eq!(chain[0], InodeId::ROOT);
            assert_eq!(*chain.last().unwrap(), id);
            for (i, link) in chain.iter().enumerate() {
                assert_eq!(ns.inode(*link).depth() as usize, i);
            }
        }
    });
}

/// Authorities assigned through a SubtreeMap always resolve to a rank that
/// was actually assigned (or the root rank), and inode counts over ranks
/// always sum to the namespace size.
#[test]
fn subtree_map_total_coverage() {
    propcheck::run(96, |rng| {
        let mut ns = Namespace::new();
        let mut dirs = Vec::new();
        for i in 0..8 {
            let d = ns.mkdir(InodeId::ROOT, &format!("d{i}")).unwrap();
            dirs.push(d);
            for j in 0..4 {
                let s = ns.mkdir(d, &format!("s{j}")).unwrap();
                dirs.push(s);
                ns.create_file(s, "f", 1).unwrap();
            }
        }
        let mut map = SubtreeMap::new(MdsRank(0));
        for _ in 0..rng.gen_range(0..10) {
            let dir = dirs[rng.gen_range(0..dirs.len())];
            let rank = MdsRank(rng.gen_range(0..4) as u16);
            map.set_authority(FragKey::whole(dir), rank);
        }
        assert!(map.invariants_hold());
        let counts = map.inode_counts(&ns, 4);
        assert_eq!(counts.iter().sum::<usize>(), ns.len());
    });
}

/// dentry_hash stays within the hash space.
#[test]
fn dentry_hash_in_range() {
    propcheck::run(256, |rng| {
        assert!(dentry_hash(rng.next_u64()) <= HASH_MASK);
    });
}
