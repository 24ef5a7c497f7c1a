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
//! Invariants (audited by `lunule-verify`'s `InvariantChecker`):
//! - intervals are sorted, disjoint, non-empty, and cover `0..n_clients`;
//! - every cohort's `count` equals the total length of its intervals;
//! - every live cohort's `state.id` is its lowest member id (the canonical
//!   id — what a create op's file name derives from);
//! - the per-origin member totals never change (clients are conserved).

use crate::client::{Client, ENCODED_ID_LEN};
use lunule_util::codec::{fnv1a64, Encoder};
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
    /// Buffers [`CohortSet::merge_equal_states`] reuses from one epoch
    /// close to the next. Transient: never snapshotted, empty after a
    /// restore.
    pub(crate) merge: MergeScratch,
}

/// The reused buffers of [`CohortSet::merge_equal_states`] and
/// [`CohortSet::compact`], and the state hashes the merge keeps from one
/// epoch close to the next.
#[derive(Default)]
pub(crate) struct MergeScratch {
    /// Live cohorts per origin.
    live_per_origin: Vec<u32>,
    /// The [`Client::encode`] bytes of the cohorts encoded this merge,
    /// back to back.
    enc: Encoder,
    /// Per cohort index: the range of `enc` holding its state bytes after
    /// the id (empty for cohorts not encoded this merge).
    spans: Vec<(usize, usize)>,
    /// `(origin, state hash, canonical id, cohort index)` per examined
    /// cohort; sorting it groups equal candidates in id order.
    keys: Vec<(u32, u64, usize, usize)>,
    /// Per cohort index: the cohort it merges into (itself if it stays).
    /// `compact` reuses it as the old-to-new index map.
    target: Vec<usize>,
    /// Per cohort index: the client's change stamp and state hash when a
    /// merge last encoded it. While the stamp still reads the same, the
    /// hash is the cohort's current one. `compact` carries entries to the
    /// new indices; slots appended since have none.
    stamped: Vec<Option<(u64, u64)>>,
    /// Per cohort index: whether this merge encoded the cohort because
    /// its stamp moved.
    changed: Vec<bool>,
}

/// The state bytes of cohort `idx` in `enc`, encoding `state` first when
/// this merge has not yet.
fn state_span(
    enc: &mut Encoder,
    spans: &mut [(usize, usize)],
    idx: usize,
    state: &Client,
) -> (usize, usize) {
    if spans[idx].0 == spans[idx].1 {
        let start = enc.len() + ENCODED_ID_LEN;
        state.encode(enc);
        spans[idx] = (start, enc.len());
    }
    spans[idx]
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
            merge: MergeScratch::default(),
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
        // Interval i becomes the head piece (or the moved piece when there
        // is no head); the rest follow it in id order.
        let moved = Interval {
            start: at,
            len: n,
            cohort: to,
        };
        let tail = Interval {
            start: at + n,
            len: iv.end() - (at + n),
            cohort: from,
        };
        let after = [moved, tail];
        let after = match (at > iv.start, tail.len > 0) {
            (true, true) => &after[..],
            (true, false) => &after[..1],
            (false, true) => &after[1..],
            (false, false) => &[],
        };
        if at > iv.start {
            self.intervals[i].len = at - iv.start;
        } else {
            self.intervals[i] = moved;
        }
        self.intervals.splice(i + 1..i + 1, after.iter().copied());
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
        self.merge_equal_states_by(fnv1a64);
    }

    /// [`CohortSet::merge_equal_states`] with the state hash as a
    /// parameter. Only origins with at least two live cohorts are
    /// examined. A cohort whose change stamp moved since a merge last
    /// encoded it is encoded into one reused encoder and its bytes after
    /// the id are hashed; any other keeps the hash it had. The `(origin,
    /// hash, id)` keys are sorted, and within a run of equal `(origin,
    /// hash)` a cohort merges into the lowest-id earlier survivor whose
    /// bytes are equal to its own. A colliding hash therefore costs a byte
    /// comparison, never a wrong merge.
    ///
    /// Two cohorts whose stamps both stayed are never compared: both
    /// survived the merge that last encoded the later of them, where both
    /// were examined with their present bytes, and a merge leaves one
    /// survivor per class of equal bytes. An unchanged cohort is encoded
    /// only when a changed one in its run needs its bytes.
    fn merge_equal_states_by(&mut self, hash: fn(&[u8]) -> u64) {
        let mut m = std::mem::take(&mut self.merge);
        let n = self.cohorts.len();
        m.live_per_origin.clear();
        m.live_per_origin.resize(self.n_groups, 0);
        for c in self.cohorts.iter().filter(|c| c.count > 0) {
            m.live_per_origin[u32_to_usize(c.origin)] += 1;
        }
        m.enc.clear();
        m.keys.clear();
        m.spans.clear();
        m.spans.resize(n, (0, 0));
        m.changed.clear();
        m.changed.resize(n, false);
        m.stamped.resize(n, None);
        for (idx, c) in self.cohorts.iter().enumerate() {
            if c.count == 0 || m.live_per_origin[u32_to_usize(c.origin)] < 2 {
                continue;
            }
            let stamp = c.state.stamp();
            let h = match m.stamped[idx] {
                Some((s, h)) if s == stamp => h,
                _ => {
                    let span = state_span(&mut m.enc, &mut m.spans, idx, &c.state);
                    let h = hash(&m.enc.bytes()[span.0..span.1]);
                    m.stamped[idx] = Some((stamp, h));
                    m.changed[idx] = true;
                    h
                }
            };
            m.keys.push((c.origin, h, c.state.id, idx));
        }
        m.keys.sort_unstable();
        m.target.clear();
        m.target.extend(0..n);
        for run in m.keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if !run.iter().any(|k| m.changed[k.3]) {
                continue;
            }
            for (j, &(_, _, _, idx)) in run.iter().enumerate().skip(1) {
                for &(_, _, _, s) in &run[..j] {
                    if m.target[s] != s || !(m.changed[s] || m.changed[idx]) {
                        continue;
                    }
                    let a = state_span(&mut m.enc, &mut m.spans, s, &self.cohorts[s].state);
                    let b = state_span(&mut m.enc, &mut m.spans, idx, &self.cohorts[idx].state);
                    let bytes = m.enc.bytes();
                    if bytes[a.0..a.1] == bytes[b.0..b.1] {
                        m.target[idx] = s;
                        break;
                    }
                }
            }
        }
        // Survivors are the lowest-id cohort of their class, so their
        // canonical ids stay as they are.
        for iv in &mut self.intervals {
            let to = m.target[iv.cohort];
            if to != iv.cohort {
                self.cohorts[iv.cohort].count -= usize_to_u64(iv.len);
                self.cohorts[to].count += usize_to_u64(iv.len);
                iv.cohort = to;
            }
        }
        self.merge = m;
        self.compact();
    }

    /// Checks each stored state hash whose change stamp still reads the
    /// same against a fresh encode of the cohort: a mutation that changed
    /// the encoded state without moving the stamp fails here.
    pub fn check_state_hashes(&self) -> Result<(), String> {
        self.check_state_hashes_by(fnv1a64)
    }

    fn check_state_hashes_by(&self, hash: fn(&[u8]) -> u64) -> Result<(), String> {
        let mut e = Encoder::new();
        for (idx, c) in self.cohorts.iter().enumerate() {
            let Some(Some((stamp, h))) = self.merge.stamped.get(idx) else {
                continue;
            };
            if c.count == 0 || c.state.stamp() != *stamp {
                continue;
            }
            e.clear();
            c.state.encode(&mut e);
            let fresh = hash(&e.bytes()[ENCODED_ID_LEN..]);
            if fresh != *h {
                return Err(format!(
                    "cohort {idx} (id {}): stored state hash {h:#018x} at stamp {stamp}, \
                     fresh encode hashes to {fresh:#018x}",
                    c.state.id
                ));
            }
        }
        Ok(())
    }

    /// Drops dead cohorts, remaps interval indices, and coalesces adjacent
    /// intervals of the same cohort. Cohort indices change; callers must
    /// not hold indices across this call.
    pub(crate) fn compact(&mut self) {
        let remap = &mut self.merge.target;
        remap.clear();
        let mut alive = 0usize;
        for c in &self.cohorts {
            if c.count > 0 {
                remap.push(alive);
                alive += 1;
            } else {
                remap.push(usize::MAX);
            }
        }
        self.cohorts.retain(|c| c.count > 0);
        let stamped = &mut self.merge.stamped;
        // `new <= old`, so each entry is read before any write reaches it.
        for (old, &new) in remap.iter().enumerate() {
            if new != usize::MAX && new < stamped.len() {
                stamped[new] = stamped.get(old).copied().flatten();
            }
        }
        stamped.truncate(alive);
        for iv in &mut self.intervals {
            iv.cohort = remap[iv.cohort];
            debug_assert_ne!(iv.cohort, usize::MAX, "interval points at dead cohort");
        }
        // Coalesce adjacent same-cohort intervals.
        self.intervals.dedup_by(|next, prev| {
            let joins = prev.cohort == next.cohort && prev.end() == next.start;
            if joins {
                prev.len += next.len;
            }
            joins
        });
    }

    /// Clients still active: not finished, or still owing data transfer.
    pub fn active_members(&self) -> usize {
        let mut n = 0u64;
        self.for_each_state(|s, count| {
            if !s.is_done() {
                n += count;
            }
        });
        u64_to_usize(n)
    }

    /// Total metadata ops served across all members.
    pub fn total_ops(&self) -> u64 {
        let mut n = 0u64;
        self.for_each_state(|s, count| n += s.ops_done() * count);
        n
    }

    /// Total cache evictions across all members.
    pub fn evictions_total(&self) -> u64 {
        let mut n = 0u64;
        self.for_each_state(|s, count| n += s.cache_evictions() * count);
        n
    }

    /// True once every member has drained its stream and data debt.
    pub fn all_done(&self) -> bool {
        self.cohorts
            .iter()
            .filter(|c| c.count > 0)
            .all(|c| c.state.is_done())
    }

    /// Per-client completion ticks, expanded to one entry per member id —
    /// the shape (and the `u32` saturation rule) of
    /// [`crate::results::RunResult::client_completion_secs`].
    pub fn completion_expanded(&self) -> Vec<Option<u32>> {
        let mut out = vec![None; self.n_clients];
        for iv in &self.intervals {
            let s = &self.cohorts[iv.cohort].state;
            let done = if s.is_done() {
                s.finished_at()
                    .map(|t| u32::try_from(t).unwrap_or(u32::MAX))
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
    /// of the first violation. Used by tests and by snapshot restore.
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

    /// Every cohort slot, indexed like [`Interval::cohort`]; a slot whose
    /// `count` is 0 is dead, awaiting compaction.
    pub fn slots(&self) -> &[Cohort] {
        &self.cohorts
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
    use lunule_namespace::{InodeId, Namespace};

    fn member(id: usize, ops: Vec<InodeId>) -> Client {
        Client::new(id, Box::new(FixedStream::new(ops)), 0)
    }

    /// Ops in each group's stream: more than any battery draws.
    const STREAM_OPS: usize = 64;

    fn set_of(counts: &[u64]) -> CohortSet {
        let mut groups = Vec::new();
        let mut at = 0usize;
        for &c in counts {
            groups.push((member(at, vec![InodeId::ROOT; STREAM_OPS]), c));
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
        s.cohorts[idx].state.add_data_debt(99);
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
        s.cohorts[0].state.set_lifetime(3, 2, None);
        s.cohorts[1].state.set_lifetime(10, 0, Some(7));
        assert_eq!(s.total_ops(), 5 * 3 + 2 * 10);
        assert_eq!(s.evictions_total(), 10);
        assert_eq!(s.active_members(), 5);
        assert!(!s.all_done());
        let done = s.completion_expanded();
        assert_eq!(done.len(), 7);
        assert_eq!(done[0], None);
        assert_eq!(done[5], Some(7));
        assert_eq!(done[6], Some(7));
        // Completion ticks past `u32::MAX` saturate instead of wrapping.
        s.cohorts[1]
            .state
            .set_lifetime(10, 0, Some(u64::from(u32::MAX) + 5));
        assert_eq!(s.completion_expanded()[6], Some(u32::MAX));
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

    /// A client's encoded state after the id: what merge compares.
    fn state_key(state: &Client) -> Vec<u8> {
        let mut e = Encoder::new();
        state.encode(&mut e);
        e.bytes()[ENCODED_ID_LEN..].to_vec()
    }

    /// Live `(origin, state-bytes)` equivalence classes — exactly the
    /// cohorts that must remain after a merge pass.
    fn state_classes(s: &CohortSet) -> usize {
        let mut classes = std::collections::BTreeSet::new();
        for c in &s.cohorts {
            if c.count > 0 {
                classes.insert((c.origin, state_key(&c.state)));
            }
        }
        classes.len()
    }

    /// The merge as first written, kept as the oracle of the hashed one:
    /// per origin with two or more live cohorts, key a map by each
    /// cohort's state bytes in canonical-id order; a cohort whose bytes
    /// are already keyed moves its members into that first cohort.
    fn merge_oracle(s: &mut CohortSet) {
        use std::collections::BTreeMap;
        let mut by_origin: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut seen = vec![false; s.cohorts.len()];
        for iv in &s.intervals {
            if !seen[iv.cohort] {
                seen[iv.cohort] = true;
                by_origin
                    .entry(s.cohorts[iv.cohort].origin)
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
                let key = state_key(&s.cohorts[idx].state);
                match by_state.get(&key) {
                    None => {
                        by_state.insert(key, idx);
                    }
                    Some(&survivor) => {
                        let ranges: Vec<(usize, usize)> = s
                            .intervals
                            .iter()
                            .filter(|iv| iv.cohort == idx)
                            .map(|iv| (iv.start, iv.len))
                            .collect();
                        for (start, len) in ranges {
                            s.carve(start, len, survivor);
                        }
                        s.refresh_canonical_id(survivor);
                    }
                }
            }
        }
        s.compact();
    }

    /// One random step of the split/merge batteries, drawn against a set
    /// and replayable on any set with the same structure.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Carve `[at, at + n)` of `cohort` into a fresh clone.
        Carve {
            cohort: usize,
            at: usize,
            n: usize,
        },
        Explode(usize),
        /// Draw one cohort's next op, or serve the op it holds, through
        /// the client's own methods, so its state diverges.
        Diverge(usize),
        Merge,
        /// Merge this many times in a row: every cohort is unchanged
        /// after the first, so the later merges take the skip path.
        Remerge(usize),
    }

    fn draw_step(s: &CohortSet, rng: &mut lunule_util::DetRng) -> Step {
        let live: Vec<usize> = (0..s.cohorts.len())
            .filter(|&i| s.cohorts[i].count > 0)
            .collect();
        match rng.gen_range(0..6) {
            0 | 1 => {
                let iv = s.intervals[rng.gen_range(0..s.intervals.len())];
                let n = 1 + rng.gen_range(0..iv.len);
                let at = iv.start + rng.gen_range(0..iv.len - n + 1);
                Step::Carve {
                    cohort: iv.cohort,
                    at,
                    n,
                }
            }
            2 => Step::Explode(live[rng.gen_range(0..live.len())]),
            3 => Step::Diverge(live[rng.gen_range(0..live.len())]),
            4 => Step::Merge,
            _ => Step::Remerge(2 + rng.gen_range(0..3)),
        }
    }

    fn apply_step(s: &mut CohortSet, step: Step, merge: impl Fn(&mut CohortSet)) {
        match step {
            Step::Carve { cohort, at, n } => {
                let state = s.cohorts[cohort].state.try_clone().unwrap();
                let origin = s.cohorts[cohort].origin;
                let slot = s.cohorts.len();
                s.cohorts.push(Cohort {
                    state,
                    origin,
                    count: 0,
                });
                s.carve(at, n, slot);
                s.refresh_canonical_id(cohort);
                s.refresh_canonical_id(slot);
                if s.cohorts[cohort].count == 0 {
                    s.compact();
                }
            }
            Step::Explode(idx) => {
                s.explode(idx);
            }
            Step::Diverge(idx) => {
                let st = &mut s.cohorts[idx].state;
                if st.pending().is_some() {
                    st.consume_op(0);
                } else {
                    st.peek_op(&Namespace::new(), 0);
                }
            }
            Step::Merge => merge(s),
            Step::Remerge(times) => {
                for _ in 0..times {
                    merge(s);
                }
            }
        }
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
                let step = draw_step(&s, rng);
                let classes = state_classes(&s);
                apply_step(&mut s, step, CohortSet::merge_equal_states);
                if let Step::Merge | Step::Remerge(_) = step {
                    assert_eq!(
                        s.n_cohorts(),
                        classes,
                        "merge must unify exactly the byte-equal same-origin classes"
                    );
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

    /// One cohort slot's origin, count and full encoded state (canonical
    /// id included).
    type Slot = (u32, u64, Vec<u8>);

    /// Everything a merge decides: the intervals and every cohort slot.
    fn structure(s: &CohortSet) -> (Vec<Interval>, Vec<Slot>) {
        let cohorts = s
            .cohorts
            .iter()
            .map(|c| {
                let mut e = Encoder::new();
                c.state.encode(&mut e);
                (c.origin, c.count, e.into_bytes())
            })
            .collect();
        (s.intervals.clone(), cohorts)
    }

    /// The hashed merge against the map-keyed oracle: the same random
    /// carve/explode/diverge/merge sequence on two copies of a set must
    /// leave them identical after every step. With the constant hash every
    /// cohort of an origin collides, so only the byte comparison separates
    /// classes.
    #[test]
    fn propcheck_hashed_merge_matches_oracle() {
        let hashes: [fn(&[u8]) -> u64; 2] = [fnv1a64, |_| 0];
        for hash in hashes {
            lunule_util::propcheck::run(64, |rng| {
                let counts: Vec<u64> = (0..rng.gen_range(1..5))
                    .map(|_| 1 + rng.gen_range(0..9) as u64)
                    .collect();
                let mut hashed = set_of(&counts);
                let mut oracle = set_of(&counts);
                for _ in 0..rng.gen_range(1..24) {
                    let step = draw_step(&hashed, rng);
                    apply_step(&mut hashed, step, |s| s.merge_equal_states_by(hash));
                    apply_step(&mut oracle, step, merge_oracle);
                    assert_eq!(structure(&hashed), structure(&oracle), "after {step:?}");
                    hashed.check_invariants().unwrap();
                    hashed.check_state_hashes_by(hash).unwrap();
                }
            });
        }
    }

    /// A collision run holding two interleaved classes: each cohort merges
    /// into the lowest-id member of its own class, not into the run's
    /// first cohort.
    #[test]
    fn colliding_hashes_still_merge_by_bytes() {
        let mut s = set_of(&[4]);
        s.explode(0);
        s.cohorts[1].state.add_data_debt(1);
        s.cohorts[3].state.add_data_debt(1);
        s.merge_equal_states_by(|_| 7);
        s.check_invariants().unwrap();
        assert_eq!(s.n_cohorts(), 2);
        let owners: Vec<(usize, usize)> = s
            .intervals()
            .iter()
            .map(|iv| (iv.start, s.cohorts[iv.cohort].state.id))
            .collect();
        assert_eq!(owners, vec![(0, 0), (1, 1), (2, 0), (3, 1)]);
    }
}
