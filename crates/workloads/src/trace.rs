//! Trace-file workloads: replay a recorded access sequence.
//!
//! The paper's Web workload replays a real Apache access log; when users
//! have such a trace, this module maps it onto a namespace. The format is
//! deliberately plain — one path per line, `#` comments allowed — so logs
//! can be converted with standard tools. Paths that name directories that
//! do not exist yet are created on load; repeated lines become repeated
//! accesses (the temporal-locality signal).

use crate::streams::ReplayStream;
use lunule_namespace::{InodeId, Namespace};
use lunule_sim::OpStream;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A parsed trace: the namespace it references and the access sequence.
#[derive(Debug)]
pub struct LoadedTrace {
    /// Inode ids in access order (repeats preserved).
    pub accesses: Vec<InodeId>,
    /// How many distinct files the trace touches.
    pub distinct_files: usize,
}

/// Parses a path-per-line trace into `ns`, creating every referenced file
/// (with `file_size` bytes) and its ancestor directories on first sight.
///
/// Lines are `/`-separated absolute paths; empty lines and lines starting
/// with `#` are skipped. Returns the access sequence over the materialised
/// inodes.
pub fn load_trace(ns: &mut Namespace, text: &str, file_size: u64) -> LoadedTrace {
    let mut by_path: BTreeMap<String, InodeId> = BTreeMap::new();
    let mut accesses = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let id = *by_path
            .entry(line.to_string())
            .or_insert_with(|| materialise(ns, line, file_size));
        accesses.push(id);
    }
    LoadedTrace {
        distinct_files: by_path.len(),
        accesses,
    }
}

/// Ensures `path` exists in `ns` (creating directories and the final file
/// as needed) and returns the file's inode.
fn materialise(ns: &mut Namespace, path: &str, file_size: u64) -> InodeId {
    let mut cur = InodeId::ROOT;
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    assert!(!parts.is_empty(), "trace lines must name a file");
    for dir in &parts[..parts.len() - 1] {
        cur = match ns.child_by_name(cur, dir) {
            Some(existing) => existing,
            None => ns.mkdir_total(cur, dir),
        };
    }
    let leaf = parts[parts.len() - 1];
    match ns.child_by_name(cur, leaf) {
        Some(existing) => existing,
        None => ns.create_file_total(cur, leaf, file_size),
    }
}

/// Builds one replay stream per client over a shared loaded trace (every
/// client replays the same sequence, like the paper's Web clients).
pub fn trace_streams(trace: &LoadedTrace, clients: usize) -> Vec<Box<dyn OpStream>> {
    let shared = Arc::new(trace.accesses.clone());
    (0..clients)
        .map(|_| Box::new(ReplayStream::new(Arc::clone(&shared))) as Box<dyn OpStream>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_sim::MetaOp;

    const SAMPLE: &str = "\
# departmental web server, excerpt
/www/index.html
/www/docs/guide.pdf
/www/index.html
/www/img/logo.png

/www/index.html
";

    #[test]
    fn load_creates_namespace_and_preserves_repeats() {
        let mut ns = Namespace::new();
        let trace = load_trace(&mut ns, SAMPLE, 1000);
        assert_eq!(trace.accesses.len(), 5);
        assert_eq!(trace.distinct_files, 3);
        assert_eq!(ns.file_count(), 3);
        // /www, /www/docs, /www/img + root
        assert_eq!(ns.dir_count(), 4);
        // Repeats hit the same inode.
        assert_eq!(trace.accesses[0], trace.accesses[2]);
        assert_eq!(trace.accesses[0], trace.accesses[4]);
        assert!(ns.invariants_hold());
    }

    #[test]
    fn streams_replay_in_order() {
        let mut ns = Namespace::new();
        let trace = load_trace(&mut ns, SAMPLE, 1);
        let mut streams = trace_streams(&trace, 2);
        for expected in &trace.accesses {
            assert_eq!(streams[0].next_op(&ns), Some(MetaOp::Read(*expected)));
        }
        assert_eq!(streams[0].next_op(&ns), None);
        // Second client replays the same first access.
        assert_eq!(
            streams[1].next_op(&ns),
            Some(MetaOp::Read(trace.accesses[0]))
        );
    }

    #[test]
    #[should_panic]
    fn bare_root_line_rejected() {
        let mut ns = Namespace::new();
        load_trace(&mut ns, "/", 1);
    }
}
