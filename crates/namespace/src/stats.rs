//! Namespace shape statistics: the structural facts (depths, fan-outs,
//! directory populations) that determine how well a namespace can be
//! partitioned, reported by the experiment harness next to each workload.

use crate::inode::InodeId;
use crate::tree::Namespace;
use lunule_util::convert::{u64_to_f64, usize_to_f64, usize_to_u64};

/// Structural summary of a namespace.
#[derive(Clone, Debug, PartialEq)]
pub struct NamespaceStats {
    /// Live files.
    pub files: usize,
    /// Live directories (including the root).
    pub dirs: usize,
    /// Deepest live inode's depth (root = 0).
    pub max_depth: u16,
    /// Largest directory's direct-children count.
    pub max_fanout: usize,
    /// Mean direct-children count over live directories.
    pub mean_fanout: f64,
    /// Total bytes across live files.
    pub total_bytes: u64,
}

impl NamespaceStats {
    /// Computes the summary in one pass over the arena.
    pub fn of(ns: &Namespace) -> Self {
        let mut files = 0usize;
        let mut dirs = 0usize;
        let mut max_depth = 0u16;
        let mut max_fanout = 0usize;
        let mut fanout_sum = 0u64;
        let mut total_bytes = 0u64;
        for idx in 0..ns.len() {
            let ino = ns.inode(InodeId::from_index(idx));
            if !ino.is_alive() {
                continue;
            }
            max_depth = max_depth.max(ino.depth());
            if ino.is_dir() {
                dirs += 1;
                let fanout = ino.children().len();
                max_fanout = max_fanout.max(fanout);
                fanout_sum += usize_to_u64(fanout);
            } else {
                files += 1;
                total_bytes += ino.size();
            }
        }
        NamespaceStats {
            files,
            dirs,
            max_depth,
            max_fanout,
            mean_fanout: if dirs == 0 {
                0.0
            } else {
                u64_to_f64(fanout_sum) / usize_to_f64(dirs)
            },
            total_bytes,
        }
    }
}

impl std::fmt::Display for NamespaceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} files / {} dirs, depth ≤ {}, fan-out ≤ {} (mean {:.1}), {:.1} MB",
            self.files,
            self.dirs,
            self.max_depth,
            self.max_fanout,
            self.mean_fanout,
            u64_to_f64(self.total_bytes) / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarises_a_small_tree() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let b = ns.mkdir(a, "b").unwrap();
        ns.create_file(b, "f1", 100).unwrap();
        ns.create_file(b, "f2", 200).unwrap();
        ns.create_file(InodeId::ROOT, "top", 50).unwrap();
        let s = NamespaceStats::of(&ns);
        assert_eq!(s.files, 3);
        assert_eq!(s.dirs, 3);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.max_fanout, 2);
        assert_eq!(s.total_bytes, 350);
    }

    #[test]
    fn skips_tombstones() {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let f = ns.create_file(a, "f", 10).unwrap();
        ns.unlink(f).unwrap();
        let s = NamespaceStats::of(&ns);
        assert_eq!(s.files, 0);
        assert_eq!(s.total_bytes, 0);
    }

    #[test]
    fn empty_namespace() {
        let s = NamespaceStats::of(&Namespace::new());
        assert_eq!(s.files, 0);
        assert_eq!(s.dirs, 1);
        let rendered = s.to_string();
        assert!(rendered.contains("0 files"));
    }
}
