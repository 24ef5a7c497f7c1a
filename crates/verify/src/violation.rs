//! Violation records produced by the checker.

/// The invariant class a [`Violation`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A directory carries duplicate entries for the same fragment.
    FragOverlap,
    /// A fragment whose `(value, bits)` encoding is out of range.
    MalformedFrag,
    /// A directory's live fragment set fails to partition the hash space.
    FragPartition,
    /// An authority entry points at a dead or non-directory inode.
    DanglingEntry,
    /// The subtree-map generation counter moved backwards.
    GenerationRegressed,
    /// An authority entry targets a rank outside the cluster.
    RankOutOfRange,
    /// Per-rank inode counts do not sum to the namespace's live count.
    InodeConservation,
    /// A frozen (committing) subtree no longer resolves to its exporter.
    FrozenAuthorityChanged,
    /// An IF-model output escaped `[0, 1]` or violated a model law.
    IfModel,
    /// The migration lifecycle ledger failed to reconcile: started jobs
    /// must equal committed + abandoned + in-flight, and the telemetry
    /// journal (when kept) must agree with the counters.
    MigrationLedger,
    /// An authority entry (or the root default) targets a rank that is
    /// currently crashed — clients would route metadata ops into a void.
    AuthorityOnDownRank,
    /// Cohort member counts failed to conserve: the live cohorts' counts
    /// (or a group's member total) drifted from the attached client count.
    CohortConservation,
    /// The cohort id-interval partition has a gap, overlap, or a cohort
    /// whose canonical id is not its lowest member.
    CohortPartition,
}

/// One observed violation: the invariant that broke plus the offending
/// values, rendered for humans.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable description carrying the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}] {}", self.kind, self.detail)
    }
}
