//! # lunule-namespace
//!
//! Filesystem namespace substrate for the Lunule reproduction: an in-memory
//! hierarchical namespace (inode arena), Ceph-style directory fragments
//! (`frag_t`), and the cluster-wide subtree partition map that records which
//! MDS rank is authoritative for which dirfrag subtree.
//!
//! The paper's balancers operate entirely in terms of these concepts:
//! subtrees and dirfrags are the units of delegation and migration, and the
//! partition map is what migration mutates. This crate has no knowledge of
//! time, load, or balancing policy — those live in `lunule-core` and
//! `lunule-sim`.
//!
//! ```
//! use lunule_namespace::{Namespace, InodeId, SubtreeMap, MdsRank, FragKey};
//!
//! let mut ns = Namespace::new();
//! let photos = ns.mkdir(InodeId::ROOT, "photos").unwrap();
//! let cat = ns.create_file(photos, "cat.jpg", 4096).unwrap();
//!
//! let mut map = SubtreeMap::new(MdsRank(0));
//! map.set_authority(FragKey::whole(photos), MdsRank(1));
//! assert_eq!(map.authority(&ns, cat), MdsRank(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authcache;
pub mod builder;
pub mod error;
pub mod frag;
pub mod inode;
pub mod stats;
pub mod subtree;
pub mod tree;

pub use authcache::AuthorityCache;
pub use builder::{
    build_deep_tree, build_flat_dataset, build_private_dirs, BuiltDataset, FlatDataset,
};
pub use error::{NsError, NsResult};
pub use frag::{dentry_hash, Frag, FragSet, HASH_BITS, HASH_MASK, HIST_BITS};
pub use inode::{FileType, Inode, InodeId};
pub use stats::NamespaceStats;
pub use subtree::{DirEntries, FragKey, MdsRank, SubtreeMap};
pub use tree::Namespace;
