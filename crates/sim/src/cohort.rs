//! Cohort-aggregated client population.
//!
//! A *cohort* is a set of clients whose entire dynamic state — op-stream
//! position, buffered retry op, authority cache, counters — is identical,
//! represented once (a shared [`Client`]) together with a member count.
//! Identical clients advance in lock-step, so a cohort of a million zipf
//! readers costs the same per tick as one client; cohorts split lazily the
//! moment members diverge (a partial budget stall, a data-path remainder,
//! a per-member create) and re-merge at epoch close when their states
//! re-converge byte-for-byte.
//!
//! Membership is tracked as a sorted list of disjoint client-id intervals
//! that exactly partitions `0..n_clients`. The issue engine visits
//! members in rotated id order (`tick % n_clients` first), which becomes
//! a rotated walk over these intervals: every member keeps its place in
//! the effect order although its cohort is stepped once (see
//! `cohort_engine`, whose golden-digest battery pins that order).
//!
//! Invariants (audited under `strict-invariants`):
//! - intervals are sorted, disjoint, non-empty, and cover `0..n_clients`;
//! - every cohort's `count` equals the total length of its intervals;
//! - every live cohort's `state.id` is its lowest member id (the canonical
//!   id — what a create op's file name derives from);
//! - the per-origin member totals never change (clients are conserved).

use crate::client::Client;
use lunule_util::convert::{u32_to_usize, u64_to_usize, usize_to_u32, usize_to_u64};

/// One contiguous run of client ids belonging to a single cohort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// First client id of the run.
    pub start: usize,
    /// Number of consecutive ids (always >= 1).
    pub len: usize,
    /// Index into `CohortSet::cohorts`.
    pub cohort: usize,
}

impl Interval {
    /// One-past-the-last client id.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A set of identical clients advancing as one.
pub struct Cohort {
    /// The shared per-client state; `state.id` is the canonical (lowest)
    /// member id.
    pub state: Client,
    /// The construction-time group this cohort descends from. Splits and
    /// merges stay within an origin, and snapshot restore rebuilds one op
    /// stream per origin.
    pub origin: u32,
    /// Member count; 0 marks a dead slot awaiting `CohortSet::compact`.
    pub count: u64,
}

/// The whole client population, as cohorts plus an id-interval partition.
/// The default is the empty population.
#[derive(Default)]
pub struct CohortSet {
    pub(crate) cohorts: Vec<Cohort>,
    /// Sorted by `start`; disjoint; exactly covers `0..n_clients`.
    pub(crate) intervals: Vec<Interval>,
    pub(crate) n_clients: usize,
    /// Origin groups ever created (grows with `append_group`).
    pub(crate) n_groups: usize,
}

impl CohortSet {
    /// Builds a population from construction-time groups: group `g` holds
    /// `counts[g]` clients with shared state `states[g]`, occupying the
    /// next contiguous id range. Each group becomes one cohort with origin
    /// `g`; callers must have set `state.id` to the group's first member id
    /// (this constructor enforces it).
    pub fn new(groups: Vec<(Client, u64)>) -> CohortSet {
        let mut cohorts = Vec::with_capacity(groups.len());
        let mut intervals = Vec::with_capacity(groups.len());
        let mut at = 0usize;
        for (g, (state, count)) in groups.into_iter().enumerate() {
            assert!(count >= 1, "empty cohort group");
            assert_eq!(state.id, at, "group state id must be its first member");
            intervals.push(Interval {
                start: at,
                len: u64_to_usize(count),
                cohort: g,
            });
            at += u64_to_usize(count);
            cohorts.push(Cohort {
                state,
                origin: usize_to_u32(g),
                count,
            });
        }
        let n_groups = cohorts.len();
        CohortSet {
            cohorts,
            intervals,
            n_clients: at,
            n_groups,
        }
    }

    /// Appends a new group of `count` clients (ids `n_clients..+count`)
    /// under a fresh origin. Returns the new cohort's index.
    pub fn append_group(&mut self, state: Client, count: u64) -> usize {
        assert!(count >= 1, "empty cohort group");
        assert_eq!(
            state.id, self.n_clients,
            "group state id must be first member"
        );
        let idx = self.cohorts.len();
        self.intervals.push(Interval {
            start: self.n_clients,
            len: u64_to_usize(count),
            cohort: idx,
        });
        self.n_clients += u64_to_usize(count);
        self.cohorts.push(Cohort {
            state,
            origin: usize_to_u32(self.n_groups),
            count,
        });
        self.n_groups += 1;
        idx
    }

    /// Total clients represented.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Live cohorts (count > 0).
    pub fn n_cohorts(&self) -> usize {
        self.cohorts.iter().filter(|c| c.count > 0).count()
    }

    /// Origin groups ever created.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Iterates every live cohort's shared state with its member count.
    pub fn for_each_state(&self, mut f: impl FnMut(&Client, u64)) {
        for c in &self.cohorts {
            if c.count > 0 {
                f(&c.state, c.count);
            }
        }
    }

    /// Mutable variant of [`CohortSet::for_each_state`].
    pub fn for_each_state_mut(&mut self, mut f: impl FnMut(&mut Client, u64)) {
        for c in &mut self.cohorts {
            if c.count > 0 {
                f(&mut c.state, c.count);
            }
        }
    }

    /// Reassigns the id range `[at, at + n)` — which must lie inside a
    /// single existing interval — to cohort `to`, splitting the interval
    /// and moving `n` members between the cohorts' counts. Canonical ids
    /// are *not* refreshed here; callers batch their carves and then call
    /// [`CohortSet::refresh_canonical_id`] on the affected cohorts.
    pub(crate) fn carve(&mut self, at: usize, n: usize, to: usize) {
        assert!(n >= 1, "empty carve");
        let i = self.intervals.binary_search_by(|iv| {
            if at < iv.start {
                std::cmp::Ordering::Greater
            } else if at >= iv.end() {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        });
        assert!(i.is_ok(), "carve range outside the partition");
        let Ok(i) = i else { return };
        let iv = self.intervals[i];
        assert!(at + n <= iv.end(), "carve range spans intervals");
        let from = iv.cohort;
        if from == to {
            return;
        }
        self.cohorts[from].count -= usize_to_u64(n);
        self.cohorts[to].count += usize_to_u64(n);
        // Replace interval i with up to three pieces, in id order.
        let mut pieces = Vec::with_capacity(3);
        if at > iv.start {
            pieces.push(Interval {
                start: iv.start,
                len: at - iv.start,
                cohort: from,
            });
        }
        pieces.push(Interval {
            start: at,
            len: n,
            cohort: to,
        });
        if at + n < iv.end() {
            pieces.push(Interval {
                start: at + n,
                len: iv.end() - (at + n),
                cohort: from,
            });
        }
        self.intervals.splice(i..=i, pieces);
    }

    /// Recomputes `state.id` for cohort `idx` as its lowest member id.
    /// No-op for dead cohorts.
    pub(crate) fn refresh_canonical_id(&mut self, idx: usize) {
        if self.cohorts[idx].count == 0 {
            return;
        }
        let lowest = self
            .intervals
            .iter()
            .filter(|iv| iv.cohort == idx)
            .map(|iv| iv.start)
            .min()
            .unwrap_or_else(|| {
                // A live count with no interval breaks the partition
                // invariant; keep the old id rather than abort.
                debug_assert!(false, "live cohort must own an interval");
                self.cohorts[idx].state.id
            });
        self.cohorts[idx].state.id = lowest;
    }

    /// Splits cohort `idx` into singletons: each member id becomes its own
    /// one-member cohort carrying a deep copy of the shared state with its
    /// true id. The first member keeps slot `idx`; the rest are appended.
    /// Returns the indices of all resulting singletons in member-id order.
    ///
    /// # Panics
    /// Panics when the cohort has more than one member and its op stream is
    /// not cloneable ([`crate::OpStream::try_clone_box`] returned `None`) —
    /// grouped construction asserts clonability up front, so this fires
    /// only on a constructor bypass.
    pub(crate) fn explode(&mut self, idx: usize) -> Vec<usize> {
        let count = u64_to_usize(self.cohorts[idx].count);
        if count <= 1 {
            return vec![idx];
        }
        let origin = self.cohorts[idx].origin;
        let members: Vec<usize> = self
            .intervals
            .iter()
            .filter(|iv| iv.cohort == idx)
            .flat_map(|iv| iv.start..iv.end())
            .collect();
        debug_assert_eq!(members.len(), count);
        let mut result = Vec::with_capacity(count);
        result.push(idx);
        // Clone for members after the first; the original state stays in
        // slot idx for the lowest member.
        for &member in &members[1..] {
            let clone = self.cohorts[idx].state.try_clone();
            assert!(
                clone.is_some(),
                "multi-member cohort stream must be cloneable"
            );
            let Some(mut state) = clone else { continue };
            state.id = member;
            let slot = self.cohorts.len();
            self.cohorts.push(Cohort {
                state,
                origin,
                count: 0, // carve moves the member in below
            });
            result.push(slot);
            self.carve(member, 1, slot);
        }
        self.cohorts[idx].state.id = members[0];
        debug_assert_eq!(self.cohorts[idx].count, 1);
        result
    }

    /// Merges cohorts of the same origin whose states have re-converged
    /// byte-for-byte (ignoring the canonical id), then compacts. Merging
    /// into the lowest-id cohort keeps the result independent of split
    /// history: the merged structure depends only on the member states,
    /// not on the order in which the splits happened.
    pub fn merge_equal_states(&mut self) {
        use std::collections::BTreeMap;
        // Origin → live cohort indices, in canonical-id order (intervals
        // are sorted, so first-seen order by scanning them is id order).
        let mut by_origin: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut seen = vec![false; self.cohorts.len()];
        for iv in &self.intervals {
            if !seen[iv.cohort] {
                seen[iv.cohort] = true;
                by_origin
                    .entry(self.cohorts[iv.cohort].origin)
                    .or_default()
                    .push(iv.cohort);
            }
        }
        for (_, members) in by_origin {
            if members.len() < 2 {
                continue;
            }
            let mut by_state: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
            for idx in members {
                let key = self.cohorts[idx].state.state_bytes_sans_id();
                match by_state.get(&key) {
                    None => {
                        by_state.insert(key, idx);
                    }
                    Some(&survivor) => {
                        // Move every member of `idx` into `survivor`.
                        let ranges: Vec<(usize, usize)> = self
                            .intervals
                            .iter()
                            .filter(|iv| iv.cohort == idx)
                            .map(|iv| (iv.start, iv.len))
                            .collect();
                        for (start, len) in ranges {
                            self.carve(start, len, survivor);
                        }
                        self.refresh_canonical_id(survivor);
                    }
                }
            }
        }
        self.compact();
    }

    /// Drops dead cohorts, remaps interval indices, and coalesces adjacent
    /// intervals of the same cohort. Cohort indices change; callers must
    /// not hold indices across this call.
    pub(crate) fn compact(&mut self) {
        let mut remap = vec![usize::MAX; self.cohorts.len()];
        let mut alive = 0usize;
        for (i, c) in self.cohorts.iter().enumerate() {
            if c.count > 0 {
                remap[i] = alive;
                alive += 1;
            }
        }
        let mut i = 0;
        self.cohorts.retain(|c| c.count > 0);
        for iv in &mut self.intervals {
            iv.cohort = remap[iv.cohort];
            debug_assert_ne!(iv.cohort, usize::MAX, "interval points at dead cohort");
        }
        // Coalesce adjacent same-cohort intervals.
        while i + 1 < self.intervals.len() {
            if self.intervals[i].cohort == self.intervals[i + 1].cohort
                && self.intervals[i].end() == self.intervals[i + 1].start
            {
                self.intervals[i].len += self.intervals[i + 1].len;
                self.intervals.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Clients still active: not finished, or still owing data transfer.
    pub fn active_members(&self) -> usize {
        let mut n = 0u64;
        self.for_each_state(|s, count| {
            if !s.finished || s.data_pending > 0 {
                n += count;
            }
        });
        u64_to_usize(n)
    }

    /// Total metadata ops served across all members.
    pub fn total_ops(&self) -> u64 {
        let mut n = 0u64;
        self.for_each_state(|s, count| n += s.ops_done * count);
        n
    }

    /// Total cache evictions across all members.
    pub fn evictions_total(&self) -> u64 {
        let mut n = 0u64;
        self.for_each_state(|s, count| n += s.cache_evictions * count);
        n
    }

    /// True once every member has drained its stream and data debt.
    pub fn all_done(&self) -> bool {
        self.cohorts
            .iter()
            .filter(|c| c.count > 0)
            .all(|c| c.state.finished && c.state.data_pending == 0)
    }

    /// Per-client completion ticks, expanded to one entry per member id —
    /// the shape [`crate::results::RunResult::client_completion_secs`]
    /// carries.
    pub fn completion_expanded(&self) -> Vec<Option<u64>> {
        let mut out = vec![None; self.n_clients];
        for iv in &self.intervals {
            let s = &self.cohorts[iv.cohort].state;
            let done = if s.finished && s.data_pending == 0 {
                s.finished_at
            } else {
                None
            };
            for slot in &mut out[iv.start..iv.end()] {
                *slot = done;
            }
        }
        out
    }

    /// Checks every structural invariant, returning a readable description
    /// of the first violation. Used by tests and the strict-invariants
    /// auditor.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut at = 0usize;
        let mut counted = vec![0u64; self.cohorts.len()];
        let mut lowest: Vec<Option<usize>> = vec![None; self.cohorts.len()];
        for iv in &self.intervals {
            if iv.len == 0 {
                return Err(format!("empty interval at {}", iv.start));
            }
            if iv.start != at {
                return Err(format!(
                    "gap/overlap: expected start {at}, got {}",
                    iv.start
                ));
            }
            if iv.cohort >= self.cohorts.len() {
                return Err(format!("interval points at cohort {}", iv.cohort));
            }
            counted[iv.cohort] += usize_to_u64(iv.len);
            let slot = &mut lowest[iv.cohort];
            if slot.is_none() {
                *slot = Some(iv.start);
            }
            at = iv.end();
        }
        if at != self.n_clients {
            return Err(format!(
                "partition covers {at}, expected {}",
                self.n_clients
            ));
        }
        for (i, c) in self.cohorts.iter().enumerate() {
            if counted[i] != c.count {
                return Err(format!(
                    "cohort {i}: count {} but intervals hold {}",
                    c.count, counted[i]
                ));
            }
            if c.count > 0 {
                let Some(low) = lowest[i] else {
                    return Err(format!("cohort {i}: live but owns no interval"));
                };
                if c.state.id != low {
                    return Err(format!(
                        "cohort {i}: canonical id {} but lowest member {low}",
                        c.state.id
                    ));
                }
            }
            if u32_to_usize(c.origin) >= self.n_groups {
                return Err(format!("cohort {i}: origin {} out of range", c.origin));
            }
        }
        Ok(())
    }

    /// The id-interval partition (sorted, disjoint, covering).
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Per-origin member totals, indexed by origin.
    pub fn origin_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.n_groups];
        for c in &self.cohorts {
            totals[u32_to_usize(c.origin)] += c.count;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::FixedStream;
    use lunule_namespace::InodeId;

    fn member(id: usize, ops: Vec<InodeId>) -> Client {
        Client::new(id, Box::new(FixedStream::new(ops)), 0)
    }

    fn set_of(counts: &[u64]) -> CohortSet {
        let mut groups = Vec::new();
        let mut at = 0usize;
        for &c in counts {
            groups.push((member(at, vec![InodeId::ROOT]), c));
            at += c as usize;
        }
        CohortSet::new(groups)
    }

    #[test]
    fn construction_partitions_exactly() {
        let s = set_of(&[3, 1, 4]);
        assert_eq!(s.n_clients(), 8);
        assert_eq!(s.n_cohorts(), 3);
        assert_eq!(s.n_groups(), 3);
        s.check_invariants().unwrap();
        assert_eq!(s.origin_totals(), vec![3, 1, 4]);
    }

    #[test]
    fn carve_splits_and_conserves_members() {
        let mut s = set_of(&[10]);
        let stalled = s.cohorts.len();
        let state = s.cohorts[0].state.try_clone().unwrap();
        s.cohorts.push(Cohort {
            state,
            origin: 0,
            count: 0,
        });
        s.carve(4, 3, stalled);
        s.refresh_canonical_id(0);
        s.refresh_canonical_id(stalled);
        s.check_invariants().unwrap();
        assert_eq!(s.cohorts[0].count, 7);
        assert_eq!(s.cohorts[stalled].count, 3);
        assert_eq!(s.cohorts[stalled].state.id, 4);
        assert_eq!(s.cohorts[0].state.id, 0);
        assert_eq!(s.origin_totals(), vec![10], "members conserved");
        // Intervals: [0,4)→0, [4,7)→1, [7,10)→0.
        assert_eq!(s.intervals().len(), 3);
    }

    #[test]
    #[should_panic(expected = "spans intervals")]
    fn carve_across_interval_boundary_rejected() {
        let mut s = set_of(&[5, 5]);
        s.carve(3, 4, 0);
    }

    #[test]
    fn explode_makes_singletons_with_true_ids() {
        let mut s = set_of(&[1, 4]);
        let parts = s.explode(1);
        assert_eq!(parts.len(), 4);
        s.check_invariants().unwrap();
        assert_eq!(s.origin_totals(), vec![1, 4]);
        for (k, &idx) in parts.iter().enumerate() {
            assert_eq!(s.cohorts[idx].count, 1);
            assert_eq!(s.cohorts[idx].state.id, 1 + k);
            assert_eq!(s.cohorts[idx].origin, 1);
        }
        // Exploding a singleton is a no-op.
        assert_eq!(s.explode(0), vec![0]);
    }

    #[test]
    fn merge_requires_equal_state_and_same_origin() {
        let mut s = set_of(&[4, 4]);
        // Split cohort 0; both halves keep identical state → re-merge.
        let clone = s.cohorts[0].state.try_clone().unwrap();
        let idx = s.cohorts.len();
        s.cohorts.push(Cohort {
            state: clone,
            origin: 0,
            count: 0,
        });
        s.carve(2, 2, idx);
        s.refresh_canonical_id(idx);
        s.check_invariants().unwrap();
        assert_eq!(s.n_cohorts(), 3);
        s.merge_equal_states();
        s.check_invariants().unwrap();
        assert_eq!(s.n_cohorts(), 2, "identical halves re-merge");
        // Cohort 1 (different origin) stays separate even though its state
        // bytes match cohort 0's sans id and stream payload position.
        assert_eq!(s.origin_totals(), vec![4, 4]);
    }

    #[test]
    fn merge_skips_diverged_states() {
        let mut s = set_of(&[4]);
        let clone = s.cohorts[0].state.try_clone().unwrap();
        let idx = s.cohorts.len();
        s.cohorts.push(Cohort {
            state: clone,
            origin: 0,
            count: 0,
        });
        s.carve(0, 1, idx);
        s.refresh_canonical_id(0);
        s.refresh_canonical_id(idx);
        // Diverge the split-off singleton.
        s.cohorts[idx].state.ops_done = 99;
        s.merge_equal_states();
        s.check_invariants().unwrap();
        assert_eq!(s.n_cohorts(), 2, "diverged states must not merge");
    }

    #[test]
    fn merge_canonicalises_to_lowest_member() {
        let mut s = set_of(&[6]);
        // Carve the middle out, then re-merge: canonical id returns to 0
        // and the intervals coalesce back to one.
        let clone = s.cohorts[0].state.try_clone().unwrap();
        let idx = s.cohorts.len();
        s.cohorts.push(Cohort {
            state: clone,
            origin: 0,
            count: 0,
        });
        s.carve(2, 2, idx);
        s.refresh_canonical_id(idx);
        s.merge_equal_states();
        s.check_invariants().unwrap();
        assert_eq!(s.n_cohorts(), 1);
        assert_eq!(s.cohorts[0].state.id, 0);
        assert_eq!(s.intervals().len(), 1, "adjacent intervals coalesce");
    }

    #[test]
    fn aggregates_scale_by_count() {
        let mut s = set_of(&[5, 2]);
        s.cohorts[0].state.ops_done = 3;
        s.cohorts[0].state.cache_evictions = 2;
        s.cohorts[1].state.ops_done = 10;
        s.cohorts[1].state.finished = true;
        s.cohorts[1].state.finished_at = Some(7);
        assert_eq!(s.total_ops(), 5 * 3 + 2 * 10);
        assert_eq!(s.evictions_total(), 10);
        assert_eq!(s.active_members(), 5);
        assert!(!s.all_done());
        let done = s.completion_expanded();
        assert_eq!(done.len(), 7);
        assert_eq!(done[0], None);
        assert_eq!(done[5], Some(7));
        assert_eq!(done[6], Some(7));
    }

    #[test]
    fn append_group_gets_fresh_origin() {
        let mut s = set_of(&[3]);
        let c = member(3, vec![InodeId::ROOT]);
        let idx = s.append_group(c, 2);
        s.check_invariants().unwrap();
        assert_eq!(s.n_clients(), 5);
        assert_eq!(s.cohorts[idx].origin, 1);
        assert_eq!(s.origin_totals(), vec![3, 2]);
    }

    /// Randomised battery: arbitrary carve/explode/merge sequences keep
    /// every structural invariant and conserve members per origin.
    #[test]
    fn random_split_merge_conserves_members() {
        let mut rng = 0x1234_5678_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..30 {
            let counts: Vec<u64> = (0..(1 + next() % 4)).map(|_| 1 + next() % 9).collect();
            let mut s = set_of(&counts);
            let totals = s.origin_totals();
            for _ in 0..12 {
                match next() % 3 {
                    0 => {
                        // Carve a random sub-range of a random interval
                        // into a fresh clone cohort.
                        let ivs: Vec<Interval> = s.intervals().to_vec();
                        let iv = ivs[(next() as usize) % ivs.len()];
                        let n = 1 + (next() as usize) % iv.len;
                        let at = iv.start + (next() as usize) % (iv.len - n + 1);
                        let state = s.cohorts[iv.cohort].state.try_clone().unwrap();
                        let origin = s.cohorts[iv.cohort].origin;
                        let slot = s.cohorts.len();
                        s.cohorts.push(Cohort {
                            state,
                            origin,
                            count: 0,
                        });
                        s.carve(at, n, slot);
                        s.refresh_canonical_id(iv.cohort);
                        s.refresh_canonical_id(slot);
                        if s.cohorts[iv.cohort].count == 0 {
                            s.compact();
                        }
                    }
                    1 => {
                        let live: Vec<usize> = (0..s.cohorts.len())
                            .filter(|&i| s.cohorts[i].count > 0)
                            .collect();
                        let idx = live[(next() as usize) % live.len()];
                        s.explode(idx);
                    }
                    _ => s.merge_equal_states(),
                }
                if let Err(e) = s.check_invariants() {
                    panic!("round {round}: {e}");
                }
                assert_eq!(s.origin_totals(), totals, "round {round}: members leaked");
            }
            // Final merge collapses everything back to one cohort per
            // origin: no state ever diverged in this battery.
            s.merge_equal_states();
            assert_eq!(s.n_cohorts(), counts.len());
            s.check_invariants().unwrap();
        }
    }

    /// Live `(origin, state-bytes)` equivalence classes — exactly the
    /// cohorts that must remain after a merge pass.
    fn state_classes(s: &CohortSet) -> usize {
        let mut classes = std::collections::BTreeSet::new();
        for c in &s.cohorts {
            if c.count > 0 {
                classes.insert((c.origin, c.state.state_bytes_sans_id()));
            }
        }
        classes.len()
    }

    /// Propcheck battery with *divergence*: random carve/explode/merge
    /// sequences interleaved with random state mutations. Three laws:
    /// members conserve per origin, every structural invariant holds after
    /// every step, and a merge pass unifies exactly the byte-equal
    /// same-origin classes — diverged states never merge, re-converged
    /// states always do.
    #[test]
    fn propcheck_split_merge_laws() {
        lunule_util::propcheck::run(64, |rng| {
            let counts: Vec<u64> = (0..rng.gen_range(1..5))
                .map(|_| 1 + rng.gen_range(0..9) as u64)
                .collect();
            let mut s = set_of(&counts);
            let totals = s.origin_totals();
            for _ in 0..rng.gen_range(1..16) {
                match rng.gen_range(0..5) {
                    0 | 1 => {
                        // Carve a random sub-range into a fresh clone.
                        let ivs: Vec<Interval> = s.intervals().to_vec();
                        let iv = ivs[rng.gen_range(0..ivs.len())];
                        let n = 1 + rng.gen_range(0..iv.len);
                        let at = iv.start + rng.gen_range(0..iv.len - n + 1);
                        let state = s.cohorts[iv.cohort].state.try_clone().unwrap();
                        let origin = s.cohorts[iv.cohort].origin;
                        let slot = s.cohorts.len();
                        s.cohorts.push(Cohort {
                            state,
                            origin,
                            count: 0,
                        });
                        s.carve(at, n, slot);
                        s.refresh_canonical_id(iv.cohort);
                        s.refresh_canonical_id(slot);
                        if s.cohorts[iv.cohort].count == 0 {
                            s.compact();
                        }
                    }
                    2 => {
                        let live: Vec<usize> = (0..s.cohorts.len())
                            .filter(|&i| s.cohorts[i].count > 0)
                            .collect();
                        s.explode(live[rng.gen_range(0..live.len())]);
                    }
                    3 => {
                        // Diverge one live cohort's state so it becomes
                        // its own equivalence class.
                        let live: Vec<usize> = (0..s.cohorts.len())
                            .filter(|&i| s.cohorts[i].count > 0)
                            .collect();
                        let idx = live[rng.gen_range(0..live.len())];
                        s.cohorts[idx].state.ops_done += 1 + rng.gen_range(0..3) as u64;
                    }
                    _ => {
                        let classes = state_classes(&s);
                        s.merge_equal_states();
                        assert_eq!(
                            s.n_cohorts(),
                            classes,
                            "merge must unify exactly the byte-equal same-origin classes"
                        );
                    }
                }
                s.check_invariants().unwrap();
                assert_eq!(s.origin_totals(), totals, "members leaked");
            }
            // Final law: merging is idempotent and lands on the class count.
            s.merge_equal_states();
            let classes = state_classes(&s);
            assert_eq!(s.n_cohorts(), classes);
            s.merge_equal_states();
            assert_eq!(s.n_cohorts(), classes, "merge must be idempotent");
            s.check_invariants().unwrap();
        });
    }
}
