//! The Filebench-Zipfian read workload.
//!
//! Each client owns a private, non-shared directory of 10k files and reads
//! them at random under the 80/20 rule (80% of requests touch 20% of the
//! files). This is the canonical temporal-locality benchmark: the hot sets
//! are stable, so hotness-based balancing is *supposed* to work here — the
//! paper uses it to show that even the favourable case suffers from the
//! stock balancer's trigger and over-migration problems (Fig. 3a/4a).

use crate::spec::WorkloadSpec;
use crate::streams::{client_seed, HotSetStream};
use lunule_namespace::{build_private_dirs, Namespace};
use lunule_sim::OpStream;

/// Per-file size used by the data-path model, bytes.
pub const ZIPF_FILE_SIZE: u64 = 16_384;

/// Builder for the Filebench-Zipfian workload.
#[derive(Clone, Copy, Debug)]
pub struct ZipfReadWorkload {
    /// Files in each client's private directory (paper: 10_000).
    pub files_per_client: usize,
    /// Random reads each client performs.
    pub ops_per_client: u64,
    /// Concurrent clients.
    pub clients: usize,
    /// Master seed.
    pub seed: u64,
}

impl ZipfReadWorkload {
    /// Derives scaled parameters from a spec.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        ZipfReadWorkload {
            files_per_client: ((10_000.0 * spec.scale) as usize).max(50),
            ops_per_client: ((120_000.0 * spec.scale) as u64).max(500),
            clients: spec.clients,
            seed: spec.seed,
        }
    }

    /// Builds the private directories and returns per-client streams.
    ///
    /// # Panics
    /// Panics when a client's files are not consecutive ids, which only a
    /// failed dataset create can cause (see [`HotSetStream::new`]).
    pub fn build(&self, ns: &mut Namespace) -> Vec<Box<dyn OpStream>> {
        let dataset = build_private_dirs(
            ns,
            "filebench",
            self.clients,
            self.files_per_client,
            ZIPF_FILE_SIZE,
        );
        dataset
            .dirs
            .iter()
            .enumerate()
            .filter_map(|(c, (_dir, files))| {
                let stream =
                    HotSetStream::new(files, self.ops_per_client, client_seed(self.seed, c as u64));
                assert!(
                    stream.is_some(),
                    "a private directory's files are consecutive ids"
                );
                stream.map(|s| Box::new(s) as Box<dyn OpStream>)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{WorkloadKind, WorkloadSpec};
    use lunule_sim::MetaOp;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            kind: WorkloadKind::ZipfRead,
            clients: 3,
            scale: 0.01,
            seed: 5,
        }
    }

    #[test]
    fn private_dirs_are_disjoint() {
        let w = ZipfReadWorkload::from_spec(&spec());
        let mut ns = Namespace::new();
        let mut streams = w.build(&mut ns);
        // Collect the set of parents each client touches; they must differ.
        let mut parents = Vec::new();
        for s in &mut streams {
            let Some(MetaOp::Read(ino)) = s.next_op(&ns) else {
                panic!("stream must produce reads");
            };
            parents.push(ns.inode(ino).parent().unwrap());
        }
        parents.dedup();
        assert_eq!(parents.len(), 3, "clients must not share directories");
    }

    #[test]
    fn op_budget_respected() {
        let w = ZipfReadWorkload::from_spec(&spec());
        let mut ns = Namespace::new();
        let mut streams = w.build(&mut ns);
        let mut n = 0u64;
        while streams[0].next_op(&ns).is_some() {
            n += 1;
        }
        assert_eq!(n, w.ops_per_client);
    }

    #[test]
    fn different_clients_draw_differently() {
        let w = ZipfReadWorkload::from_spec(&spec());
        let mut ns = Namespace::new();
        let mut streams = w.build(&mut ns);
        let seq = |s: &mut Box<dyn OpStream>, ns: &Namespace| {
            (0..20)
                .filter_map(|_| match s.next_op(ns) {
                    Some(MetaOp::Read(i)) => Some(i.index() % w.files_per_client),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = {
            let mut it = streams.iter_mut();
            (seq(it.next().unwrap(), &ns), seq(it.next().unwrap(), &ns))
        };
        assert_ne!(a, b, "per-client seeds must differ");
    }
}
