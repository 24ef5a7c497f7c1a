//! # lunule-verify
//!
//! Cross-layer invariant checker for the Lunule reproduction. The balancing
//! stack maintains several properties that no single crate can see on its
//! own — they span the namespace, the subtree partition map, the migration
//! protocol, and the analytical IF model:
//!
//! * **Subtree-map well-formedness** — per-directory fragment entries are
//!   never duplicated, every entry's fragment encoding is valid, entries
//!   point at live directories, every directory's live fragment set
//!   partitions the dentry-hash space, and the map generation only moves
//!   forward.
//! * **Migration conservation** — every authority entry targets a rank
//!   inside the cluster, and the per-rank inode counts sum to the
//!   namespace's live inode count before, during, and after every
//!   migration step (a "lossy" plan that strands inodes on a rank outside
//!   the cluster breaks this immediately).
//! * **Frozen-subtree stability** — a subtree in its commit window is
//!   frozen: its authority must keep resolving to the exporter until the
//!   commit flips it.
//! * **IF-model laws** — Equations 1–3 of the paper imply `IF ∈ [0, 1]`,
//!   permutation invariance of the load vector, and agreement between the
//!   heterogeneous and homogeneous variants when all capacities equal `C`.
//!
//! [`InvariantChecker`] audits all of these on demand, on plain namespaces
//! and maps or on a whole running simulation:
//! [`InvariantChecker::audit_simulation`] reads a
//! [`lunule_sim::Simulation`]'s public state after a step, so the
//! simulator carries no audit code of its own and tests audit every tick
//! with `while sim.step() { checker.audit_simulation(&sim) }`.
//!
//! ```
//! use lunule_namespace::{FragKey, InodeId, MdsRank, Namespace, SubtreeMap};
//! use lunule_verify::InvariantChecker;
//!
//! let mut ns = Namespace::new();
//! let dir = ns.mkdir(InodeId::ROOT, "d").unwrap();
//! let mut map = SubtreeMap::new(MdsRank(0));
//! map.set_authority(FragKey::whole(dir), MdsRank(1));
//!
//! let mut checker = InvariantChecker::default();
//! checker.audit(&ns, &map, 2, &[]);
//! checker.assert_clean();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp
    )
)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

mod checker;
mod violation;

pub use checker::InvariantChecker;
pub use violation::{InvariantKind, Violation};
