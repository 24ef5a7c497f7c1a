//! The invariant checker proper.

use crate::violation::{InvariantKind, Violation};
use lunule_core::{IfModelConfig, ImbalanceFactorModel};
use lunule_namespace::{
    Frag, FragKey, InodeId, MdsRank, Namespace, SubtreeMap, HASH_BITS, HASH_MASK,
};
use lunule_sim::Simulation;
use lunule_util::convert::usize_to_u64;

/// Audits the cross-layer invariants of the balancing stack.
///
/// The checker is an accumulator: each `check_*` method appends any
/// violations it finds and returns how many it added, so callers can run a
/// subset of checks per tick and the full battery per epoch. Collected
/// violations stay until [`InvariantChecker::take_violations`] drains them.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    model: ImbalanceFactorModel,
    last_generation: Option<u64>,
    /// Committed migrations as of the last audited tick.
    last_completed_jobs: u64,
    violations: Vec<Violation>,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        InvariantChecker::new(IfModelConfig::default())
    }
}

impl InvariantChecker {
    /// Builds a checker whose IF-model checks use `if_cfg`.
    pub fn new(if_cfg: IfModelConfig) -> Self {
        InvariantChecker {
            model: ImbalanceFactorModel::new(if_cfg),
            last_generation: None,
            last_completed_jobs: 0,
            violations: Vec::new(),
        }
    }

    fn record(&mut self, kind: InvariantKind, detail: String) {
        self.violations.push(Violation { kind, detail });
    }

    /// Violations observed so far, oldest first.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no violation has been observed (or all were drained).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Drains and returns the accumulated violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Panics with a readable report if any violation was observed.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "invariant violations detected:\n{}",
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Subtree-map well-formedness (cheap, O(entries)): no duplicate
    /// per-directory fragments, valid fragment encodings, entries only on
    /// live directories, and a generation counter that never rewinds.
    /// Suitable for running after every simulator tick.
    pub fn check_subtree_map(&mut self, ns: &Namespace, map: &SubtreeMap) -> usize {
        let before = self.violations.len();
        let entries = map.all_entries();
        for pair in entries.windows(2) {
            if pair[0].0 == pair[1].0 {
                self.record(
                    InvariantKind::FragOverlap,
                    format!(
                        "directory {:?} carries duplicate entries for frag {:?}",
                        pair[0].0.dir, pair[0].0.frag
                    ),
                );
            }
        }
        for (key, rank) in &entries {
            if !frag_well_formed(&key.frag) {
                self.record(
                    InvariantKind::MalformedFrag,
                    format!(
                        "entry ({:?}, {:?}) -> {rank:?} has an invalid fragment",
                        key.dir, key.frag
                    ),
                );
            }
            if key.dir.index() >= ns.len() {
                self.record(
                    InvariantKind::DanglingEntry,
                    format!("entry on {:?} points outside the inode arena", key.dir),
                );
                continue;
            }
            let inode = ns.inode(key.dir);
            if !inode.is_alive() || !inode.is_dir() {
                self.record(
                    InvariantKind::DanglingEntry,
                    format!(
                        "entry on {:?} points at a dead or non-directory inode",
                        key.dir
                    ),
                );
            }
        }
        let gen = map.generation();
        if let Some(last) = self.last_generation {
            if gen < last {
                self.record(
                    InvariantKind::GenerationRegressed,
                    format!("subtree-map generation went from {last} back to {gen}"),
                );
            }
        }
        self.last_generation = Some(gen);
        self.violations.len() - before
    }

    /// Fragment-partition coverage (O(directories)): every live directory's
    /// fragment set must tile the full dentry-hash space with no gap and no
    /// overlap, so authority resolution is total. Run per epoch.
    pub fn check_frag_partitions(&mut self, ns: &Namespace) -> usize {
        let before = self.violations.len();
        for idx in 0..ns.len() {
            let ino = InodeId::from_index(idx);
            let inode = ns.inode(ino);
            if !inode.is_alive() || !inode.is_dir() {
                continue;
            }
            let frags = ns.frags_of(ino);
            if !frags_partition(&frags) {
                self.record(
                    InvariantKind::FragPartition,
                    format!(
                        "directory {ino:?} frag set {frags:?} does not partition the hash space"
                    ),
                );
            }
        }
        self.violations.len() - before
    }

    /// Migration conservation (O(inodes × depth)): every entry's rank lies
    /// inside the cluster and the per-rank inode counts sum to the
    /// namespace's live count — no inode is lost or double-counted by the
    /// partition, whatever migrations are in flight. Run per epoch and
    /// around migration steps in tests.
    pub fn check_conservation(&mut self, ns: &Namespace, map: &SubtreeMap, n_mds: usize) -> usize {
        let before = self.violations.len();
        if map.root_rank().index() >= n_mds {
            self.record(
                InvariantKind::RankOutOfRange,
                format!("root rank {:?} outside cluster of {n_mds}", map.root_rank()),
            );
        }
        for (key, rank) in map.all_entries() {
            if rank.index() >= n_mds {
                self.record(
                    InvariantKind::RankOutOfRange,
                    format!(
                        "entry ({:?}, {:?}) assigned to {rank:?} outside cluster of {n_mds}",
                        key.dir, key.frag
                    ),
                );
            }
        }
        let counts = map.inode_counts(ns, n_mds);
        let total: usize = counts.iter().sum();
        let live = ns.live_count();
        if total != live {
            self.record(
                InvariantKind::InodeConservation,
                format!("per-rank inode counts {counts:?} sum to {total}, namespace holds {live} live inodes"),
            );
        }
        self.violations.len() - before
    }

    /// Frozen-subtree stability: each `(subtree, exporter)` pair in
    /// `frozen` is a migration in its commit window; its authority must
    /// still resolve to the exporter (the flip happens only at commit).
    pub fn check_frozen_subtrees(
        &mut self,
        ns: &Namespace,
        map: &SubtreeMap,
        frozen: &[(FragKey, MdsRank)],
    ) -> usize {
        let before = self.violations.len();
        for (key, exporter) in frozen {
            let auth = map.frag_authority(ns, key.dir, &key.frag);
            if auth != *exporter {
                self.record(
                    InvariantKind::FrozenAuthorityChanged,
                    format!(
                        "frozen subtree ({:?}, {:?}) resolves to {auth:?} but its exporter is {exporter:?}",
                        key.dir, key.frag
                    ),
                );
            }
        }
        self.violations.len() - before
    }

    /// IF-model laws on a concrete load vector: the factor is finite and in
    /// `[0, 1]`, invariant under permutations of the loads, and — when every
    /// capacity equals the configured `C` — the heterogeneous variant agrees
    /// with the homogeneous one.
    pub fn check_if_model(&mut self, loads: &[f64], capacities: &[f64]) -> usize {
        let model = self.model;
        self.check_if_laws(&model, loads, capacities)
    }

    /// [`InvariantChecker::check_if_model`] under an explicit model.
    fn check_if_laws(
        &mut self,
        model: &ImbalanceFactorModel,
        loads: &[f64],
        capacities: &[f64],
    ) -> usize {
        let before = self.violations.len();
        let base = model.imbalance_factor(loads);
        if !base.is_finite() || !(0.0..=1.0).contains(&base) {
            self.record(
                InvariantKind::IfModel,
                format!("IF({loads:?}) = {base} escapes [0, 1]"),
            );
            return self.violations.len() - before;
        }
        let mut reversed: Vec<f64> = loads.to_vec();
        reversed.reverse();
        let mut rotated: Vec<f64> = loads.to_vec();
        rotated.rotate_left(loads.len().min(1));
        for (label, perm) in [("reversed", reversed), ("rotated", rotated)] {
            let v = model.imbalance_factor(&perm);
            if (v - base).abs() > 1e-9 {
                self.record(
                    InvariantKind::IfModel,
                    format!("IF is not permutation-invariant: {base} vs {v} ({label})"),
                );
            }
        }
        let hetero = model.imbalance_factor_hetero(loads, capacities);
        if !hetero.is_finite() || !(0.0..=1.0).contains(&hetero) {
            self.record(
                InvariantKind::IfModel,
                format!("hetero IF({loads:?}, {capacities:?}) = {hetero} escapes [0, 1]"),
            );
        }
        let c = model.config().mds_capacity;
        let homogeneous = capacities.len() >= loads.len()
            && capacities.iter().all(|cap| cap.to_bits() == c.to_bits());
        if homogeneous && (hetero - base).abs() > 1e-9 {
            self.record(
                InvariantKind::IfModel,
                format!(
                    "hetero IF {hetero} disagrees with homogeneous IF {base} on equal capacities"
                ),
            );
        }
        self.violations.len() - before
    }

    /// Migration-lifecycle ledger: every job the migrator ever accepted is
    /// accounted for exactly once — `started == committed + abandoned +
    /// in_flight`. When an event journal is kept, its per-kind counts
    /// (`start`, `commit`, `abandon`) must agree with the counters, so the
    /// telemetry stream cannot silently drift from the engine it narrates.
    /// Run per epoch by [`InvariantChecker::audit_simulation`].
    pub fn check_migration_ledger(
        &mut self,
        started: u64,
        committed: u64,
        abandoned: u64,
        in_flight: u64,
        journal: Option<(u64, u64, u64)>,
    ) -> usize {
        let before = self.violations.len();
        if started != committed + abandoned + in_flight {
            self.record(
                InvariantKind::MigrationLedger,
                format!(
                    "started {started} != committed {committed} + abandoned {abandoned} + in-flight {in_flight}"
                ),
            );
        }
        if let Some((ev_start, ev_commit, ev_abandon)) = journal {
            if ev_start != started || ev_commit != committed || ev_abandon != abandoned {
                self.record(
                    InvariantKind::MigrationLedger,
                    format!(
                        "event journal (start {ev_start}, commit {ev_commit}, abandon {ev_abandon}) \
                         disagrees with counters (started {started}, committed {committed}, abandoned {abandoned})"
                    ),
                );
            }
        }
        self.violations.len() - before
    }

    /// No redundant entry: the global [`SubtreeMap::simplify`] removes
    /// nothing from (a clone of) `map`. A commit step only re-checks the
    /// entries on its importers ([`SubtreeMap::simplify_after`]), which is
    /// exact only on a map with no redundant entry; this is that
    /// precondition, checked by [`InvariantChecker::audit_simulation`] on
    /// every tick that committed a migration.
    pub fn check_simplified(&mut self, ns: &Namespace, map: &SubtreeMap) -> usize {
        let mut simplified = map.clone();
        if simplified.simplify(ns) == 0 {
            return 0;
        }
        let kept = simplified.all_entries();
        let before = self.violations.len();
        for (key, rank) in map.all_entries() {
            if !kept.contains(&(key, rank)) {
                self.record(
                    InvariantKind::RedundantEntry,
                    format!(
                        "entry ({:?}, {:?}) -> {rank:?} repeats the rank it inherits",
                        key.dir, key.frag
                    ),
                );
            }
        }
        self.violations.len() - before
    }

    /// No authority on a crashed rank: `down[r]` marks rank `r` as
    /// currently down; neither the root default nor any subtree entry may
    /// target such a rank. Fault injection must fail subtrees over *before*
    /// the crash takes effect, so this holds at every tick of every fault
    /// schedule.
    pub fn check_down_ranks(&mut self, map: &SubtreeMap, down: &[bool]) -> usize {
        let before = self.violations.len();
        let is_down = |rank: MdsRank| down.get(rank.index()).copied().unwrap_or(false);
        if is_down(map.root_rank()) {
            self.record(
                InvariantKind::AuthorityOnDownRank,
                format!("root default targets crashed rank {:?}", map.root_rank()),
            );
        }
        for (key, rank) in map.all_entries() {
            if is_down(rank) {
                self.record(
                    InvariantKind::AuthorityOnDownRank,
                    format!(
                        "entry ({:?}, {:?}) targets crashed rank {rank:?}",
                        key.dir, key.frag
                    ),
                );
            }
        }
        self.violations.len() - before
    }

    /// Cohort member conservation: the live cohorts' member counts must
    /// sum to the attached client total, every live cohort must hold at
    /// least one member, and — when per-origin totals are supplied — each
    /// origin's members must sum to its configured group size. Splits and
    /// merges move members between cohorts; none may mint or drop one.
    ///
    /// Takes plain data (counts, not the cohort set itself) so the checker
    /// stays independent of the simulator's types — the same reason the
    /// other checks take namespaces and maps rather than simulations.
    pub fn check_cohort_conservation(
        &mut self,
        cohort_counts: &[u64],
        origin_totals: Option<(&[u64], &[u64])>,
        n_clients: u64,
    ) -> usize {
        let before = self.violations.len();
        let total: u64 = cohort_counts.iter().sum();
        if total != n_clients {
            self.record(
                InvariantKind::CohortConservation,
                format!("cohorts hold {total} members, expected {n_clients}"),
            );
        }
        for (i, c) in cohort_counts.iter().enumerate() {
            if *c == 0 {
                self.record(
                    InvariantKind::CohortConservation,
                    format!("cohort {i} is live but holds no members"),
                );
            }
        }
        if let Some((observed, expected)) = origin_totals {
            if observed.len() != expected.len() {
                self.record(
                    InvariantKind::CohortConservation,
                    format!(
                        "{} origin totals reported, {} groups configured",
                        observed.len(),
                        expected.len()
                    ),
                );
            }
            for (g, (o, e)) in observed.iter().zip(expected).enumerate() {
                if o != e {
                    self.record(
                        InvariantKind::CohortConservation,
                        format!("origin {g} holds {o} members, expected {e}"),
                    );
                }
            }
        }
        self.violations.len() - before
    }

    /// Cohort id-interval partition: `intervals` are `(start, len,
    /// cohort)` triples which must be sorted, non-empty, and tile
    /// `[0, n_clients)` exactly; each cohort's interval lengths must sum
    /// to its count in `cohort_counts`; and each live cohort's canonical
    /// id (`canonical_ids`, indexed like the counts) must equal its lowest
    /// member id.
    pub fn check_cohort_partition(
        &mut self,
        intervals: &[(usize, usize, usize)],
        cohort_counts: &[u64],
        canonical_ids: &[usize],
        n_clients: usize,
    ) -> usize {
        let before = self.violations.len();
        let mut at = 0usize;
        let mut counted = vec![0u64; cohort_counts.len()];
        let mut lowest = vec![usize::MAX; cohort_counts.len()];
        for &(start, len, cohort) in intervals {
            if len == 0 {
                self.record(
                    InvariantKind::CohortPartition,
                    format!("empty interval at member {start}"),
                );
            }
            if start != at {
                self.record(
                    InvariantKind::CohortPartition,
                    format!("gap/overlap at member {at}: next interval starts at {start}"),
                );
            }
            at = start + len;
            if cohort >= cohort_counts.len() {
                self.record(
                    InvariantKind::CohortPartition,
                    format!("interval [{start}, {at}) points at unknown cohort {cohort}"),
                );
                continue;
            }
            counted[cohort] += usize_to_u64(len);
            lowest[cohort] = lowest[cohort].min(start);
        }
        if at != n_clients {
            self.record(
                InvariantKind::CohortPartition,
                format!("partition covers {at} members, expected {n_clients}"),
            );
        }
        for (i, (have, want)) in counted.iter().zip(cohort_counts).enumerate() {
            if have != want {
                self.record(
                    InvariantKind::CohortPartition,
                    format!("cohort {i}: intervals hold {have} members, count says {want}"),
                );
            }
        }
        for (i, (&low, &id)) in lowest.iter().zip(canonical_ids).enumerate() {
            if cohort_counts.get(i).copied().unwrap_or(0) > 0 && low != id {
                self.record(
                    InvariantKind::CohortPartition,
                    format!("cohort {i}: canonical id {id} but lowest member {low}"),
                );
            }
        }
        self.violations.len() - before
    }

    /// The full battery: map well-formedness, fragment partitions,
    /// conservation, and frozen-subtree stability in one call.
    pub fn audit(
        &mut self,
        ns: &Namespace,
        map: &SubtreeMap,
        n_mds: usize,
        frozen: &[(FragKey, MdsRank)],
    ) -> usize {
        self.check_subtree_map(ns, map)
            + self.check_frag_partitions(ns)
            + self.check_conservation(ns, map, n_mds)
            + self.check_frozen_subtrees(ns, map, frozen)
    }

    /// Audits a simulation through its public state; call it after every
    /// [`Simulation::step`]. Each call checks the subtree map's
    /// well-formedness, that subtrees in their commit window still resolve
    /// to their exporters, that no authority sits on a crashed rank, and
    /// that every memo keyed on a client's change stamp agrees with a
    /// fresh computation ([`Simulation::check_change_stamps`]).
    /// When the last step committed a migration, it also checks that the
    /// map holds no redundant entry ([`InvariantChecker::check_simplified`]).
    /// When the last step closed an epoch, it also checks fragment
    /// partitions, inode conservation, the IF-model laws on the epoch's
    /// per-rank IOPS (with the simulation's capacity as `C`), the
    /// migration ledger (against the event journal when telemetry is on),
    /// and cohort member conservation and id partition. Panics with a
    /// readable report on any violation.
    pub fn audit_simulation(&mut self, sim: &Simulation) {
        let (ns, map) = (sim.namespace(), sim.subtree_map());
        let frozen: Vec<(FragKey, MdsRank)> = sim
            .migration_jobs()
            .iter()
            .filter(|j| j.is_committing())
            .map(|j| (j.subtree, j.from))
            .collect();
        self.check_subtree_map(ns, map);
        self.check_frozen_subtrees(ns, map, &frozen);
        self.check_down_ranks(map, &sim.down_ranks());
        if let Err(detail) = sim.check_change_stamps() {
            self.record(InvariantKind::StaleChangeStamp, detail);
        }
        let c = sim.migration_counters();
        if c.completed_jobs > self.last_completed_jobs {
            self.check_simplified(ns, map);
        }
        self.last_completed_jobs = c.completed_jobs;
        let closed = sim.epochs().last().filter(|e| e.time_secs == sim.now());
        if let Some(epoch) = closed {
            let cfg = sim.config();
            self.check_frag_partitions(ns);
            self.check_conservation(ns, map, sim.n_mds());
            let model = ImbalanceFactorModel::new(IfModelConfig {
                mds_capacity: cfg.mds_capacity,
                ..IfModelConfig::default()
            });
            self.check_if_laws(&model, &epoch.per_mds_iops, &cfg.mds_capacities);
            let journal = sim
                .telemetry()
                .is_enabled()
                .then(|| sim.migration_journal_counts());
            self.check_migration_ledger(
                c.started_jobs,
                c.completed_jobs,
                c.abandoned_jobs,
                sim.inflight_migrations(),
                journal,
            );
            // Re-derived from plain data rather than trusting
            // `CohortSet::check_invariants`: an independent implementation
            // is the point of the audit.
            let set = sim.cohorts();
            let counts: Vec<u64> = set.slots().iter().map(|c| c.count).collect();
            let ids: Vec<usize> = set.slots().iter().map(|c| c.state.id).collect();
            let intervals: Vec<(usize, usize, usize)> = set
                .intervals()
                .iter()
                .map(|iv| (iv.start, iv.len, iv.cohort))
                .collect();
            self.check_cohort_conservation(&counts, None, usize_to_u64(set.n_clients()));
            self.check_cohort_partition(&intervals, &counts, &ids, set.n_clients());
        }
        self.assert_clean();
    }
}

/// True when `frag`'s `(value, bits)` encoding is inside the hash space.
fn frag_well_formed(frag: &Frag) -> bool {
    if frag.bits() > HASH_BITS {
        return false;
    }
    if frag.bits() == 0 {
        frag.value() == 0
    } else {
        frag.value() < (1u32 << frag.bits())
    }
}

/// True when `frags` tiles `[0, HASH_MASK]` exactly once.
fn frags_partition(frags: &[Frag]) -> bool {
    if frags.is_empty() {
        return false;
    }
    let mut sorted: Vec<&Frag> = frags.iter().collect();
    sorted.sort_by_key(|f| f.range_start());
    let mut next = 0u32;
    for f in sorted {
        if f.range_start() != next {
            return false;
        }
        next = f.range_end();
    }
    next == HASH_MASK + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(checker: &InvariantChecker) -> Vec<InvariantKind> {
        checker.violations().iter().map(|v| v.kind).collect()
    }

    /// /a/a1/f plus /b, with a delegated to mds.1 and a1 nested on mds.2.
    fn fixture() -> (Namespace, SubtreeMap, InodeId, InodeId) {
        let mut ns = Namespace::new();
        let a = ns.mkdir(InodeId::ROOT, "a").unwrap();
        let a1 = ns.mkdir(a, "a1").unwrap();
        ns.create_file(a1, "f", 10).unwrap();
        ns.mkdir(InodeId::ROOT, "b").unwrap();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(a), MdsRank(1));
        map.set_authority(FragKey::whole(a1), MdsRank(2));
        (ns, map, a, a1)
    }

    #[test]
    fn clean_stack_passes_every_check() {
        let (ns, map, a, _) = fixture();
        let mut checker = InvariantChecker::default();
        let frozen = [(FragKey::whole(a), MdsRank(1))];
        assert_eq!(checker.audit(&ns, &map, 3, &frozen), 0);
        assert_eq!(checker.check_if_model(&[100.0, 5.0, 5.0], &[]), 0);
        checker.assert_clean();
        assert!(checker.is_clean());
    }

    #[test]
    fn duplicate_frag_entry_detected() {
        let (ns, mut map, a, _) = fixture();
        // Bypass set_authority's dedup: two entries for the same (dir, frag).
        map.fault_inject_entry(FragKey::whole(a), MdsRank(2));
        assert!(!map.invariants_hold());
        let mut checker = InvariantChecker::default();
        assert!(checker.check_subtree_map(&ns, &map) >= 1);
        assert!(kinds(&checker).contains(&InvariantKind::FragOverlap));
    }

    #[test]
    fn entry_on_non_directory_detected() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let f = ns.create_file(d, "f", 0).unwrap();
        let mut map = SubtreeMap::new(MdsRank(0));
        map.set_authority(FragKey::whole(f), MdsRank(1));
        let mut checker = InvariantChecker::default();
        assert_eq!(checker.check_subtree_map(&ns, &map), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::DanglingEntry]);
    }

    #[test]
    fn entry_outside_arena_detected() {
        let (ns, mut map, _, _) = fixture();
        map.fault_inject_entry(FragKey::whole(InodeId::from_index(9_999)), MdsRank(1));
        let mut checker = InvariantChecker::default();
        assert_eq!(checker.check_subtree_map(&ns, &map), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::DanglingEntry]);
    }

    #[test]
    fn generation_regression_detected() {
        let (ns, mut map, _, _) = fixture();
        let mut checker = InvariantChecker::default();
        assert_eq!(checker.check_subtree_map(&ns, &map), 0);
        map.fault_set_generation(0);
        assert_eq!(checker.check_subtree_map(&ns, &map), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::GenerationRegressed]);
        // Forward progress from the rewound value is accepted again.
        let mut checker2 = InvariantChecker::default();
        assert_eq!(checker2.check_subtree_map(&ns, &map), 0);
    }

    #[test]
    fn redundant_entry_detected() {
        let (ns, mut map, _, a1) = fixture();
        let mut checker = InvariantChecker::default();
        assert_eq!(checker.check_simplified(&ns, &map), 0);
        // a1 sits inside a's subtree on mds.1; pinning it to mds.1 too
        // repeats the rank it inherits.
        map.set_authority(FragKey::whole(a1), MdsRank(1));
        assert_eq!(checker.check_simplified(&ns, &map), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::RedundantEntry]);
        // The check audits a clone: the map keeps its entry.
        assert_eq!(map.explicit_entry_rank(a1, &Frag::root()), Some(MdsRank(1)));
    }

    #[test]
    fn lossy_plan_breaks_conservation() {
        // A migration plan that ships a subtree to rank 7 in a 2-rank
        // cluster strands its inodes outside the partition: both the rank
        // range check and the conservation sum must fire.
        let (ns, mut map, _, a1) = fixture();
        map.set_authority(FragKey::whole(a1), MdsRank(7));
        let mut checker = InvariantChecker::default();
        assert!(checker.check_conservation(&ns, &map, 2) >= 2);
        let ks = kinds(&checker);
        assert!(ks.contains(&InvariantKind::RankOutOfRange));
        assert!(ks.contains(&InvariantKind::InodeConservation));
    }

    #[test]
    fn conservation_holds_for_clean_plans() {
        let (ns, map, _, _) = fixture();
        let mut checker = InvariantChecker::default();
        assert_eq!(checker.check_conservation(&ns, &map, 3), 0);
    }

    #[test]
    fn frozen_subtree_flip_detected() {
        let (ns, map, a, _) = fixture();
        // The migrator froze (a, root) while mds.0 was its exporter, but
        // the map already says mds.1 — an early authority flip.
        let mut checker = InvariantChecker::default();
        let frozen = [(FragKey::whole(a), MdsRank(0))];
        assert_eq!(checker.check_frozen_subtrees(&ns, &map, &frozen), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::FrozenAuthorityChanged]);
    }

    #[test]
    fn if_model_laws_hold_on_ordinary_vectors() {
        let mut checker = InvariantChecker::default();
        for loads in [
            vec![0.0; 5],
            vec![5_000.0, 0.0, 0.0, 0.0],
            vec![1.0, 2.0, 3.0],
            vec![4_000.0; 4],
        ] {
            let caps = vec![5_000.0; loads.len()];
            assert_eq!(checker.check_if_model(&loads, &caps), 0, "{loads:?}");
        }
    }

    #[test]
    fn if_model_flags_non_finite_output() {
        let mut checker = InvariantChecker::default();
        assert_eq!(checker.check_if_model(&[f64::NAN, 1.0, 2.0], &[]), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::IfModel]);
    }

    #[test]
    fn migration_ledger_reconciles() {
        let mut checker = InvariantChecker::default();
        // 5 started = 3 committed + 1 abandoned + 1 in flight; journal agrees.
        assert_eq!(
            checker.check_migration_ledger(5, 3, 1, 1, Some((5, 3, 1))),
            0
        );
        // Journal is optional.
        assert_eq!(checker.check_migration_ledger(5, 3, 1, 1, None), 0);
        checker.assert_clean();
    }

    #[test]
    fn migration_ledger_leak_detected() {
        let mut checker = InvariantChecker::default();
        // A job vanished: started 5, but only 4 accounted for.
        assert_eq!(checker.check_migration_ledger(5, 3, 1, 0, None), 1);
        assert_eq!(kinds(&checker), vec![InvariantKind::MigrationLedger]);
    }

    #[test]
    fn migration_journal_drift_detected() {
        let mut checker = InvariantChecker::default();
        // Counters balance, but the event journal missed a commit.
        assert_eq!(
            checker.check_migration_ledger(5, 3, 1, 1, Some((5, 2, 1))),
            1
        );
        assert_eq!(kinds(&checker), vec![InvariantKind::MigrationLedger]);
    }

    #[test]
    fn authority_on_down_rank_detected() {
        let (_, map, _, _) = fixture();
        let mut checker = InvariantChecker::default();
        // Nobody down: clean. (An empty/short mask treats ranks as up.)
        assert_eq!(checker.check_down_ranks(&map, &[false; 3]), 0);
        assert_eq!(checker.check_down_ranks(&map, &[]), 0);
        // a1's authority (mds.2) crashes without fail-over: one violation.
        assert_eq!(checker.check_down_ranks(&map, &[false, false, true]), 1);
        assert_eq!(
            checker.take_violations()[0].kind,
            InvariantKind::AuthorityOnDownRank
        );
        // The root default rank going down is also caught.
        assert_eq!(checker.check_down_ranks(&map, &[true, false, false]), 1);
        assert!(kinds(&checker).contains(&InvariantKind::AuthorityOnDownRank));
    }

    #[test]
    fn take_violations_drains() {
        let (ns, mut map, a, _) = fixture();
        map.fault_inject_entry(FragKey::whole(a), MdsRank(2));
        let mut checker = InvariantChecker::default();
        checker.check_subtree_map(&ns, &map);
        assert!(!checker.is_clean());
        let drained = checker.take_violations();
        assert!(!drained.is_empty());
        assert!(checker.is_clean());
        checker.assert_clean();
    }

    #[test]
    #[should_panic(expected = "invariant violations detected")]
    fn assert_clean_panics_with_report() {
        let (ns, map, a, _) = fixture();
        let mut checker = InvariantChecker::default();
        checker.check_frozen_subtrees(&ns, &map, &[(FragKey::whole(a), MdsRank(0))]);
        checker.assert_clean();
    }

    #[test]
    fn frag_partition_helper() {
        let (l, r) = Frag::root().split_in_two();
        let (ll, lr) = l.split_in_two();
        assert!(frags_partition(&[Frag::root()]));
        assert!(frags_partition(&[l, r]));
        assert!(frags_partition(&[ll, lr, r]));
        assert!(!frags_partition(&[l]));
        assert!(!frags_partition(&[l, l]));
        assert!(!frags_partition(&[ll, r]));
        assert!(!frags_partition(&[]));
    }

    #[test]
    fn cohort_conservation_accepts_matching_totals() {
        let mut checker = InvariantChecker::default();
        let added = checker.check_cohort_conservation(&[3, 1, 4], Some((&[4, 4], &[4, 4])), 8);
        assert_eq!(added, 0);
        checker.assert_clean();
    }

    #[test]
    fn cohort_conservation_flags_drift_and_empty_cohorts() {
        let mut checker = InvariantChecker::default();
        // Sum is 7, not 8; cohort 1 is empty; origin 0 holds 3 not 4.
        let added = checker.check_cohort_conservation(&[3, 0, 4], Some((&[3, 4], &[4, 4])), 8);
        assert_eq!(added, 3);
        assert!(kinds(&checker)
            .iter()
            .all(|k| *k == InvariantKind::CohortConservation));
    }

    #[test]
    fn cohort_conservation_flags_origin_arity_mismatch() {
        let mut checker = InvariantChecker::default();
        let added = checker.check_cohort_conservation(&[8], Some((&[8], &[4, 4])), 8);
        assert_eq!(added, 2, "arity mismatch plus the 8-vs-4 drift on origin 0");
    }

    #[test]
    fn cohort_partition_accepts_exact_tiling() {
        let mut checker = InvariantChecker::default();
        // Cohort 1 owns [0,2) and [5,8); cohort 0 owns [2,5).
        let added =
            checker.check_cohort_partition(&[(0, 2, 1), (2, 3, 0), (5, 3, 1)], &[3, 5], &[2, 0], 8);
        assert_eq!(added, 0);
        checker.assert_clean();
    }

    #[test]
    fn cohort_partition_flags_gap_overlap_and_bad_canonical_id() {
        let mut checker = InvariantChecker::default();
        // Gap at member 2 (next interval starts at 3), cohort 0's
        // intervals hold 2 members but its count says 3, and cohort 1's
        // canonical id is 0 while its lowest member is 3.
        let added = checker.check_cohort_partition(&[(0, 2, 0), (3, 5, 1)], &[3, 5], &[0, 0], 8);
        assert_eq!(added, 3, "expected gap+count+id");
        assert!(kinds(&checker)
            .iter()
            .all(|k| *k == InvariantKind::CohortPartition));
    }

    #[test]
    fn cohort_partition_flags_unknown_cohort_and_empty_interval() {
        let mut checker = InvariantChecker::default();
        let added = checker.check_cohort_partition(&[(0, 0, 0), (0, 4, 7)], &[4], &[0], 4);
        // Empty interval, unknown cohort 7, and cohort 0's count unmet.
        assert_eq!(added, 3);
    }
}
