//! The cohort issue engine: one tick of client work over aggregated
//! cohorts.
//!
//! **Rounds.** A tick's issue phase is a sequence of rounds. Each round
//! visits every client member once in rotation order — members
//! `tick % n_clients, …, n_clients - 1, 0, …` — and serves at most one op
//! per member. A member that cannot issue (rate-capped, finished,
//! data-blocked), whose op targets a subtree frozen in a migration commit
//! window, or whose route some rank's remaining budget cannot cover sits
//! out the rest of the tick. Rounds repeat until one serves nothing.
//!
//! **Runs.** Consecutive members of one cohort form a *run* of the rotated
//! walk (an interval that straddles the rotation point yields two), and a
//! run advances as one batch. The tick computes the rotated run list once
//! and each round drops the runs of cohorts that stalled, so a round
//! costs its live cohorts, not the whole population. Each round has three
//! phases:
//!
//! 1. **Classify**, in three passes over the round's live cohorts:
//!    - *draw* (cohort-local): each cohort checks that it can issue and
//!      peeks its op. Multi-member cohorts holding a create/remove explode
//!      into singletons, which are drawn in turn — mutations change the
//!      namespace mid-round, so they serve one member at a time.
//!    - *warm* (read-only): one loop loads both cache lines of the inode
//!      of every drawn read and remove, so their cache misses overlap
//!      rather than stall one op at a time.
//!    - *route* (read-only, in drawn order): an op whose subtree is frozen
//!      in a commit window stalls its cohort; the rest become a batchable
//!      read, a remove or a create, and reads and removes take their
//!      routing anchor.
//!
//!    Draw writes only cohort-local state and route reads only the
//!    namespace and the migrator, so splitting the passes is exact.
//! 2. **Resolve** (sequential, pure): read/remove routes are looked up
//!    against the namespace + subtree map, which cannot change until the
//!    round ends, with authority walks memoized in the simulation's
//!    [`AuthorityCache`](lunule_namespace::AuthorityCache). Then the ops
//!    whose target rank still has budget for them go to
//!    [`Balancer::prefetch`](lunule_core::Balancer::prefetch), so the
//!    balancer can load its per-inode state in one loop too.
//! 3. **Serve** (sequential, effect-ordered): runs are walked in rotation
//!    order, every op kind through the same code. A create first resolves
//!    its route at its run position, because its anchor is the inode id
//!    the arena hands out next. Each run then drains MDS budgets member by
//!    member, charging the per-rank costs of [`route_costs`], and applies
//!    the world effects at the run's position, in this order: forward and
//!    served counters, the file a create makes, latency, the telemetry op
//!    ledger, the balancer access, and finally the unlink of a remove.
//!
//! After a round, each cohort that served advances its shared state once:
//! stream cursor, route cache, data debt. A cohort that only partially
//! served splits: the stalled members keep the pre-round state in a new
//! cohort that sits out the rest of the tick.
//!
//! **Exactness.** A run of `m` members has exactly the effect of `m`
//! members served one at a time, because within a round (a) identical
//! members resolve identical routes against state that cannot change until
//! the round ends, (b) budgets only ever decrease within a tick, so the
//! first member of a run to fail a budget check decides for every member
//! after it, and (c) every batched recorder (`record_n`-style) is an exact
//! aggregate of its sequential form. The `GOLDEN` table of the
//! `cohort_equivalence` test battery pins this: it holds journal and
//! result digests recorded from an engine that stepped every client
//! individually, and every case must still reproduce them.

use crate::client::{resolve_route_cached, routing_anchor, Route};
use crate::cluster::Simulation;
use crate::cohort::{Cohort, CohortSet};
use crate::request::MetaOp;
use lunule_core::{Access, OpKind};
use lunule_namespace::InodeId;
use lunule_util::convert::{u64_to_f64, u64_to_usize, usize_to_u64};
use std::fmt::Write as _;

/// Where a classified cohort's route comes from this round. Either way
/// the cohort then serves through the same run loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Read/remove: routed in the resolve phase.
    Resolve,
    /// Singleton create: routed at its run position in the serve phase,
    /// because its anchor depends on the live arena length, which the
    /// creates served before it in the round change.
    CreateInline,
}

/// Transient per-round buffers, reused across the rounds of a tick and
/// across ticks: a plain tick with nothing to split allocates nothing.
/// None of this is simulation state and none of it is ever snapshotted;
/// a restored simulation starts with it empty.
///
/// Per-cohort buffers are indexed by cohort and only ever grow; a round
/// resets the entries of the cohorts it draws, which are the only ones
/// it reads.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Per-tick stall flags, indexed by cohort.
    stalled: Vec<bool>,
    /// The rotated run list of the tick, minus the runs of cohorts that
    /// stalled in an earlier round.
    runs: Vec<(usize, usize, usize)>,
    /// Rounds run so far; stamps `seen`.
    round: u64,
    /// Per cohort: the last round whose draw walk met it.
    seen: Vec<u64>,
    worklist: Vec<usize>,
    /// The round's drawn `(cohort, op)` pairs, in draw order.
    drawn: Vec<(usize, MetaOp)>,
    /// The inode ids of the routed reads and removes expected to serve,
    /// for [`Balancer::prefetch`](lunule_core::Balancer::prefetch).
    warm: Vec<InodeId>,
    /// Per rank: the members routed to it so far by the loop that fills
    /// `warm`.
    demand: Vec<f64>,
    class: Vec<Option<Class>>,
    /// Per cohort: the directory its resolved op routes by.
    dir_of: Vec<Option<InodeId>>,
    resolve_reqs: Vec<(usize, InodeId, u32)>,
    /// Per cohort: its route, valid in a round where the cohort is
    /// classified and, for a create, has reached its run. Kept across
    /// rounds and ticks so each route's `forwards` reuses its capacity.
    routes: Vec<Route>,
    served_count: Vec<u64>,
    budget_stalled: Vec<bool>,
    /// Per cohort: (run start, members served, run length) per run, in
    /// rotation order — the split bookkeeping.
    runs_of: Vec<Vec<(usize, usize, usize)>>,
    costs_of: Vec<Vec<(usize, f64)>>,
    bytes_of: Vec<u64>,
    touched: Vec<usize>,
    /// Test-only audit: rounds checked against a full rotated walk, and
    /// how many of them exploded or split a cohort.
    #[cfg(test)]
    audit: RunListAudit,
}

/// What the kept-run-list audit saw (see [`RoundScratch::audit`]).
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunListAudit {
    rounds: u64,
    explodes: u64,
    splits: u64,
}

impl RoundScratch {
    /// Grows the per-cohort buffers to cover `n` cohorts. New `stalled`
    /// entries start unstalled; other new entries are reset when their
    /// cohort is drawn.
    fn fit(&mut self, n: usize) {
        if self.stalled.len() < n {
            self.stalled.resize(n, false);
        }
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.class.resize(n, None);
            self.dir_of.resize(n, None);
            self.routes.resize_with(n, Route::default);
            self.served_count.resize(n, 0);
            self.budget_stalled.resize(n, false);
            self.runs_of.resize_with(n, Vec::new);
            self.costs_of.resize_with(n, Vec::new);
            self.bytes_of.resize(n, 0);
        }
    }

    /// Clears cohort `c`'s round state before it is drawn.
    fn reset(&mut self, c: usize) {
        self.class[c] = None;
        self.dir_of[c] = None;
        self.served_count[c] = 0;
        self.budget_stalled[c] = false;
        self.runs_of[c].clear();
        self.costs_of[c].clear();
        self.bytes_of[c] = 0;
    }

    /// Test-only: checks that the kept run list is exactly the full
    /// rotated walk minus the runs of stalled cohorts.
    #[cfg(test)]
    fn audit_runs(&mut self, set: &CohortSet, offset: usize) {
        let mut full = Vec::new();
        rotated_runs_into(set, offset, &mut full);
        full.retain(|&(_, _, c)| !self.stalled[c]);
        assert_eq!(self.runs, full, "kept run list drifted from the full walk");
        self.audit.rounds += 1;
    }
}

impl Simulation {
    /// Issue phase for one tick: rounds until no member serves.
    pub(crate) fn cohort_issue_rounds(&mut self, tick: u64) {
        let n = self.cohorts.n_clients();
        if n == 0 {
            return;
        }
        let mut set = std::mem::take(&mut self.cohorts);
        let mut scratch = std::mem::take(&mut self.round_scratch);
        let offset = u64_to_usize(tick) % n;
        scratch.stalled.clear();
        scratch.fit(set.cohorts.len());
        rotated_runs_into(&set, offset, &mut scratch.runs);
        while self.cohort_round(&mut set, offset, tick, &mut scratch) {}
        self.round_scratch = scratch;
        self.cohorts = set;
    }

    /// One issue round. Returns whether any member was served. Costs
    /// O(live cohorts): it walks the kept run list, which holds only the
    /// runs of cohorts that have not stalled this tick, and rebuilds it
    /// from the intervals only after an explode or a split.
    fn cohort_round(
        &mut self,
        set: &mut CohortSet,
        offset: usize,
        tick: u64,
        scratch: &mut RoundScratch,
    ) -> bool {
        let rate = self.cfg.client_rate;
        #[cfg(test)]
        scratch.audit_runs(set, offset);

        // Phase 1, draw: each live cohort in rotation (first-encounter)
        // order checks that it can issue and peeks its op. Drawing only
        // touches cohort-local state, so handling each cohort once at its
        // first member's position matches per-member checks exactly.
        scratch.round += 1;
        let stamp = scratch.round;
        let mut worklist = std::mem::take(&mut scratch.worklist);
        worklist.clear();
        for &(_, _, c) in &scratch.runs {
            if scratch.seen[c] != stamp {
                scratch.seen[c] = stamp;
                if !scratch.stalled[c] {
                    worklist.push(c);
                }
            }
        }
        scratch.drawn.clear();
        let mut exploded = false;
        let mut wi = 0;
        while wi < worklist.len() {
            let c = worklist[wi];
            wi += 1;
            scratch.reset(c);
            let st = &mut set.cohorts[c].state;
            if !st.can_issue(tick, rate) {
                if st.finished && st.data_pending == 0 && st.finished_at.is_none() {
                    st.finished_at = Some(tick);
                }
                scratch.stalled[c] = true;
                continue;
            }
            let Some(op) = st.peek_op(&self.ns, tick) else {
                let st = &mut set.cohorts[c].state;
                if st.data_pending == 0 && st.finished_at.is_none() {
                    st.finished_at = Some(tick);
                }
                scratch.stalled[c] = true;
                continue;
            };
            if set.cohorts[c].count > 1 && !matches!(op, MetaOp::Read(_)) {
                // Creates and removes mutate the namespace as they serve,
                // so members must go one at a time: explode to singletons
                // and re-draw each (the checks above re-run cheaply and
                // identically). The op type can change every round, which
                // is why this is a per-round check, not a construction-time
                // property.
                let parts = set.explode(c);
                exploded = true;
                scratch.fit(set.cohorts.len());
                worklist.extend(parts);
                continue;
            }
            scratch.drawn.push((c, op));
        }
        scratch.worklist = worklist;

        // Phase 1, warm: load both cache lines of the inode of each drawn
        // read and remove (its parent, which the route pass reads, and its
        // file size, which serve reads) in one loop of independent loads,
        // so their cache misses overlap instead of arriving one op at a
        // time. Nothing is written, so this changes no outcome.
        let mut loaded = 0u64;
        for &(_, op) in &scratch.drawn {
            if let MetaOp::Read(ino) | MetaOp::Remove(ino) = op {
                if let Ok(inode) = self.ns.get(ino) {
                    loaded ^= inode.size() ^ inode.parent().map_or(0, InodeId::raw);
                }
            }
        }
        std::hint::black_box(loaded);

        // Phase 1, route: in drawn order, an op whose subtree is frozen in
        // a commit window stalls its cohort, and the rest take their class
        // and anchor. Drawing left the namespace and the migrator alone,
        // so each op sees what it would have seen routed as it was drawn.
        scratch.resolve_reqs.clear();
        for &(c, op) in &scratch.drawn {
            if self.migrator.is_frozen(&self.ns, op.anchor()) {
                scratch.stalled[c] = true;
                continue;
            }
            match op {
                MetaOp::Read(_) | MetaOp::Remove(_) => {
                    let (dir, hash) = routing_anchor(&self.ns, &op);
                    scratch.class[c] = Some(Class::Resolve);
                    scratch.dir_of[c] = Some(dir);
                    scratch.resolve_reqs.push((c, dir, hash));
                }
                MetaOp::Create { .. } => {
                    scratch.class[c] = Some(Class::CreateInline);
                }
            }
        }

        // Phase 2: resolve routes. Resolution is pure (namespace, subtree
        // map and client caches are all frozen for the round), so resolving
        // every route before serving any is exact.
        for &(c, dir, hash) in &scratch.resolve_reqs {
            resolve_route_cached(
                &set.cohorts[c].state.cache,
                &self.ns,
                &self.map,
                &mut self.auth_cache,
                dir,
                hash,
                &mut scratch.routes[c],
            );
        }

        // Likewise hand the balancer the ids of the routed reads and removes
        // that can expect to serve, so it can load its per-inode state in
        // one loop. An op that reaches a spent target rank stalls without
        // recording an access, and loading its state would cost misses the
        // serve loop never pays, so the loop sums, in drawn order, the
        // members routed to each rank and skips an op once that sum has
        // reached the rank's budget. With cohorts of thousands of members,
        // the first run to reach a rank drains it. Forwards are not
        // counted, so the filter errs towards loading too much.
        scratch.warm.clear();
        scratch.demand.clear();
        scratch.demand.resize(self.mds.len(), 0.0);
        for &(c, op) in &scratch.drawn {
            let (MetaOp::Read(ino) | MetaOp::Remove(ino)) = op else {
                continue;
            };
            let target = scratch.routes[c].target.index();
            let (Some(mds), Some(demand)) = (self.mds.get(target), scratch.demand.get_mut(target))
            else {
                continue;
            };
            if scratch.stalled[c] || *demand >= mds.budget {
                continue;
            }
            *demand += u64_to_f64(set.cohorts[c].count);
            scratch.warm.push(ino);
        }
        self.balancer.prefetch(&scratch.warm);

        // Phase 3: serve runs in rotation order, effects in member order.
        // An explode re-tiled the intervals mid-draw, so the kept list
        // is rebuilt; the runs of stalled cohorts it then holds are skipped.
        if exploded {
            rotated_runs_into(set, offset, &mut scratch.runs);
            #[cfg(test)]
            {
                scratch.audit.explodes += 1;
            }
        }
        scratch.touched.clear();
        let mut progressed = false;
        for &(start, len, c) in &scratch.runs {
            if scratch.stalled[c] {
                continue;
            }
            let Some(class) = scratch.class[c] else {
                continue;
            };
            let Some((op, first_attempt)) = set.cohorts[c].state.pending else {
                debug_assert!(false, "classified cohort has a pending op");
                continue;
            };
            if class == Class::CreateInline {
                // A create's anchor is the id the arena hands out next, so
                // it resolves here, after the creates served before it.
                debug_assert_eq!(len, 1, "creates serve as singletons");
                let (dir, hash) = routing_anchor(&self.ns, &op);
                scratch.dir_of[c] = Some(dir);
                resolve_route_cached(
                    &set.cohorts[c].state.cache,
                    &self.ns,
                    &self.map,
                    &mut self.auth_cache,
                    dir,
                    hash,
                    &mut scratch.routes[c],
                );
            }
            if scratch.runs_of[c].is_empty() {
                scratch.touched.push(c);
            }
            if scratch.budget_stalled[c] {
                // Budgets only decrease within a tick: once one member
                // failed the check, every later member of the cohort fails
                // it identically.
                scratch.runs_of[c].push((start, 0, len));
                continue;
            }
            let route = &scratch.routes[c];
            // A valid route costs at least its target, so an empty buffer
            // means this is the cohort's first run of the round. The
            // per-cohort buffer keeps its capacity round over round.
            if scratch.costs_of[c].is_empty()
                && !route_costs(route, self.mds.len(), &mut scratch.costs_of[c])
            {
                scratch.stalled[c] = true;
                continue;
            }
            let target_idx = route.target.index();
            let costs = &scratch.costs_of[c];
            // Member-by-member budget drain: the f64 operations of serving
            // the run's members one at a time.
            let mut s = 0usize;
            for _ in 0..len {
                if costs.iter().any(|&(i, cost)| self.mds[i].budget < cost) {
                    break;
                }
                for &(i, cost) in costs {
                    let ok = self.mds[i].try_consume(cost);
                    debug_assert!(ok, "budget pre-checked per rank");
                }
                s += 1;
            }
            scratch.runs_of[c].push((start, s, len));
            if s < len {
                scratch.budget_stalled[c] = true;
            }
            if s == 0 {
                continue;
            }
            progressed = true;
            scratch.served_count[c] += usize_to_u64(s);
            let m = usize_to_u64(s);
            for r in &route.forwards {
                self.mds[r.index()].record_forward_n(m);
            }
            self.mds[target_idx].record_served_n(m);
            // The namespace effect of the op. A create takes effect before
            // its access is recorded, so the access sees the new inode; a
            // remove takes effect after, while the inode still resolves.
            let (ino, kind) = match op {
                MetaOp::Read(ino) => {
                    scratch.bytes_of[c] = self.ns.inode(ino).size();
                    (ino, OpKind::Read)
                }
                MetaOp::Remove(ino) => (ino, OpKind::Remove),
                MetaOp::Create { parent, size } => {
                    let st = &mut set.cohorts[c].state;
                    self.name_scratch.clear();
                    // Writing into a `String` cannot fail.
                    let _ = write!(self.name_scratch, "c{}_{}", st.id, st.ops_done);
                    match self.ns.create_file(parent, &self.name_scratch, size) {
                        Ok(id) => {
                            st.notify_created(id);
                            scratch.bytes_of[c] = size;
                            if let Some(r) = self.resident.get_mut(target_idx) {
                                *r += 1;
                            }
                            (id, OpKind::Create)
                        }
                        // Streams only create under live directories; a
                        // failure means the op went stale. Account it
                        // against the parent as a plain read so the stream
                        // still advances.
                        Err(e) => {
                            debug_assert!(false, "stale create under {parent:?}: {e}");
                            (parent, OpKind::Read)
                        }
                    }
                }
            };
            let stall_ticks = tick.saturating_sub(first_attempt);
            self.latency.record_n(stall_ticks, m);
            if self.telemetry.is_enabled() {
                self.op_ledger.record(target_idx, stall_ticks, m);
            }
            self.balancer.record_access_n(
                &self.ns,
                Access {
                    ino,
                    served_by: route.target,
                    kind,
                },
                m,
            );
            if kind == OpKind::Remove {
                debug_assert_eq!(s, 1, "removes serve as singletons");
                let removed = self.ns.unlink(ino);
                debug_assert!(removed.is_ok(), "stale remove of {ino:?}");
                if removed.is_ok() {
                    if let Some(r) = self.resident.get_mut(target_idx) {
                        *r = r.saturating_sub(1);
                    }
                }
            }
        }

        // Post-round: split partially served cohorts, then advance each
        // served cohort's shared state exactly once (stream cursor, route
        // cache, data debt — all member-private, so deferring them past
        // the round's world effects changes nothing observable).
        let mut split = false;
        for &c in &scratch.touched {
            if scratch.served_count[c] == 0 {
                scratch.stalled[c] = true;
                continue;
            }
            let total = set.cohorts[c].count;
            if scratch.served_count[c] < total {
                // Stalled members keep the pre-advance state in a fresh
                // cohort that sits out the rest of the tick.
                let origin = set.cohorts[c].origin;
                let clone = set.cohorts[c].state.try_clone();
                assert!(
                    clone.is_some(),
                    "multi-member cohort stream must be cloneable"
                );
                let Some(clone) = clone else { continue };
                let slot = set.cohorts.len();
                set.cohorts.push(Cohort {
                    state: clone,
                    origin,
                    count: 0,
                });
                for &(run_start, srv, run_len) in &scratch.runs_of[c] {
                    if srv < run_len {
                        set.carve(run_start + srv, run_len - srv, slot);
                    }
                }
                set.refresh_canonical_id(c);
                set.refresh_canonical_id(slot);
                scratch.stalled.push(true);
                debug_assert_eq!(scratch.stalled.len(), set.cohorts.len());
                split = true;
            }
            let Some(dir) = scratch.dir_of[c] else {
                debug_assert!(false, "served cohort has an anchor");
                continue;
            };
            let st = &mut set.cohorts[c].state;
            st.consume_op(tick);
            st.learn_route(dir, &scratch.routes[c]);
            if self.cfg.data_path.is_some() && scratch.bytes_of[c] > 0 {
                st.data_pending += scratch.bytes_of[c];
            }
        }
        // Keep only the runs of cohorts still live for the next round; a
        // split re-tiled the intervals, so the list is rebuilt first.
        if split {
            scratch.fit(set.cohorts.len());
            rotated_runs_into(set, offset, &mut scratch.runs);
            #[cfg(test)]
            {
                scratch.audit.splits += 1;
            }
        }
        let stalled = &scratch.stalled;
        scratch.runs.retain(|&(_, _, c)| !stalled[c]);
        progressed
    }

    /// Per-tick client reset: clears each cohort's per-tick issue count
    /// and stamps completion for members that drained their stream and
    /// data debt.
    pub(crate) fn cohort_tick_reset(&mut self, tick: u64) {
        self.cohorts.for_each_state_mut(|st, _| {
            st.issued_this_tick = 0;
            if st.finished && st.data_pending == 0 && st.finished_at.is_none() {
                st.finished_at = Some(tick);
            }
        });
    }
}

/// One tick of the data path (OSD cluster) for end-to-end runs.
///
/// Fig. 8 of the paper measures job completion time with data access
/// enabled. The effect it demonstrates is dilution: the data path adds a
/// per-op cost that is independent of metadata balance, so workloads whose
/// time is dominated by data transfer benefit less from a better balancer.
/// A shared bandwidth pool reproduces exactly that: after each successful
/// metadata op, the client owes `file size` bytes, and all indebted clients
/// share the OSD cluster's aggregate bandwidth fairly until paid off.
///
/// Within a tick the split is max-min fair: `bandwidth` bytes go to the
/// indebted members in id order, an equal share each (at least one byte),
/// and whatever members did not need is shared again among those still in
/// debt, until the budget or the debt runs out. Members of one cohort owe
/// the same debt, so an id-ordered segment advances as a unit until the
/// budget runs out inside it — at which point the segment splits (full
/// share / partial / nothing), and cohorts whose members ended the tick
/// with different debts split to match.
pub(crate) fn cohort_datapath_step(set: &mut CohortSet, bandwidth: u64) {
    // Working segments in id order; `pending` starts as the owning
    // cohort's shared debt and diverges as the budget cuts across.
    let mut segs: Vec<(usize, usize, usize, u64)> = set
        .intervals()
        .iter()
        .map(|iv| {
            (
                iv.start,
                iv.len,
                iv.cohort,
                set.cohorts[iv.cohort].state.data_pending,
            )
        })
        .collect();
    let mut budget = bandwidth;
    loop {
        let waiting: u64 = segs
            .iter()
            .filter(|s| s.3 > 0)
            .map(|s| usize_to_u64(s.1))
            .sum();
        if waiting == 0 || budget == 0 {
            break;
        }
        let share = (budget / waiting).max(1);
        let mut spent = 0u64;
        let mut i = 0;
        while i < segs.len() {
            let (start, len, cohort, pending) = segs[i];
            if pending == 0 {
                i += 1;
                continue;
            }
            let t = share.min(pending);
            let avail = budget - spent;
            // Members each take `min(t, budget left)`: the first q
            // take the full t, at most one takes a partial remainder,
            // the rest take nothing.
            let q = u64_to_usize((avail / t).min(usize_to_u64(len)));
            if q == len {
                segs[i].3 -= t;
                spent += usize_to_u64(len) * t;
                if spent >= budget {
                    break;
                }
                i += 1;
                continue;
            }
            let partial = avail - usize_to_u64(q) * t;
            let mut pieces: Vec<(usize, usize, usize, u64)> = Vec::with_capacity(3);
            if q > 0 {
                pieces.push((start, q, cohort, pending - t));
            }
            if partial > 0 {
                pieces.push((start + q, 1, cohort, pending - partial));
            }
            let rest = start + q + usize::from(partial > 0);
            if rest < start + len {
                pieces.push((rest, start + len - rest, cohort, pending));
            }
            segs.splice(i..=i, pieces);
            spent = budget;
            break;
        }
        if spent == 0 {
            break;
        }
        budget -= spent;
    }
    // Apply: cohorts whose members ended with distinct debts split,
    // one cohort per distinct value in id order of first occurrence
    // (the first group contains the lowest member, so the original
    // cohort keeps its canonical id).
    let n_cohorts = set.cohorts.len();
    let mut by_cohort: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); n_cohorts];
    for &(start, len, cohort, pending) in &segs {
        by_cohort[cohort].push((start, len, pending));
    }
    for (c, parts) in by_cohort.iter().enumerate() {
        if parts.is_empty() {
            continue;
        }
        let mut values: Vec<u64> = Vec::new();
        for &(_, _, p) in parts {
            if !values.contains(&p) {
                values.push(p);
            }
        }
        set.cohorts[c].state.data_pending = values[0];
        for &v in values.iter().skip(1) {
            let origin = set.cohorts[c].origin;
            let clone = set.cohorts[c].state.try_clone();
            assert!(
                clone.is_some(),
                "multi-member cohort stream must be cloneable"
            );
            let Some(mut clone) = clone else { continue };
            clone.data_pending = v;
            let slot = set.cohorts.len();
            set.cohorts.push(Cohort {
                state: clone,
                origin,
                count: 0,
            });
            for &(start, len, p) in parts {
                if p == v {
                    set.carve(start, len, slot);
                }
            }
            set.refresh_canonical_id(slot);
        }
        if values.len() > 1 {
            set.refresh_canonical_id(c);
        }
    }
}

/// Per-rank request cost of serving one op over `route` into `out`: one
/// unit per visit, ranks in first-visit order (forwards, then the
/// target). Returns `false`, leaving `out` partially filled, when the
/// route names a rank outside `0..n_ranks`.
fn route_costs(route: &Route, n_ranks: usize, out: &mut Vec<(usize, f64)>) -> bool {
    out.clear();
    for r in route.forwards.iter().chain(std::iter::once(&route.target)) {
        let idx = r.index();
        if idx >= n_ranks {
            return false;
        }
        match out.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, cost)) => *cost += 1.0,
            None => out.push((idx, 1.0)),
        }
    }
    true
}

/// The id-interval partition walked in rotation order: members `offset,
/// offset+1, …, n-1, 0, …, offset-1`, as `(start, len, cohort)` runs. An
/// interval containing the rotation point contributes two runs. Fills the
/// caller's buffer so the round loop can reuse one allocation.
fn rotated_runs_into(set: &CohortSet, offset: usize, out: &mut Vec<(usize, usize, usize)>) {
    out.clear();
    let ivs = set.intervals();
    if offset == 0 || ivs.is_empty() {
        out.extend(ivs.iter().map(|iv| (iv.start, iv.len, iv.cohort)));
        return;
    }
    let pos = ivs.partition_point(|iv| iv.end() <= offset);
    let pivot = ivs[pos];
    out.push((offset, pivot.end() - offset, pivot.cohort));
    for iv in &ivs[pos + 1..] {
        out.push((iv.start, iv.len, iv.cohort));
    }
    for iv in &ivs[..pos] {
        out.push((iv.start, iv.len, iv.cohort));
    }
    if pivot.start < offset {
        out.push((pivot.start, offset - pivot.start, pivot.cohort));
    }
}

#[cfg(test)]
fn rotated_runs(set: &CohortSet, offset: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    rotated_runs_into(set, offset, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::request::FixedStream;
    use lunule_namespace::MdsRank;

    fn set_of(counts: &[u64]) -> CohortSet {
        let mut groups = Vec::new();
        let mut at = 0usize;
        for &c in counts {
            groups.push((
                Client::new(at, Box::new(FixedStream::new(vec![InodeId::ROOT])), 0),
                c,
            ));
            at += u64_to_usize(c);
        }
        CohortSet::new(groups)
    }

    /// One cohort per `(members, debt)` group.
    fn indebted(groups: &[(u64, u64)]) -> CohortSet {
        let counts: Vec<u64> = groups.iter().map(|&(members, _)| members).collect();
        let mut set = set_of(&counts);
        for (c, &(_, debt)) in groups.iter().enumerate() {
            set.cohorts[c].state.data_pending = debt;
        }
        set
    }

    /// Every member's outstanding data debt, in id order.
    fn debts(set: &CohortSet) -> Vec<u64> {
        set.intervals()
            .iter()
            .flat_map(|iv| std::iter::repeat_n(set.cohorts[iv.cohort].state.data_pending, iv.len))
            .collect()
    }

    #[test]
    fn datapath_splits_bandwidth_fairly() {
        let mut set = indebted(&[(1, 500), (1, 500)]);
        cohort_datapath_step(&mut set, 100);
        assert_eq!(debts(&set), vec![450, 450]);
    }

    #[test]
    fn datapath_redistributes_leftover() {
        // Client 0 only needs 10; the remaining 90 goes to client 1.
        let mut set = indebted(&[(1, 10), (1, 500)]);
        cohort_datapath_step(&mut set, 100);
        assert_eq!(debts(&set), vec![0, 410]);
    }

    #[test]
    fn datapath_drains_exactly() {
        let mut set = indebted(&[(1, 30)]);
        cohort_datapath_step(&mut set, 1_000);
        assert_eq!(debts(&set), vec![0]);
    }

    #[test]
    fn datapath_idle_pool_changes_nothing() {
        let mut set = indebted(&[(1, 0)]);
        cohort_datapath_step(&mut set, 1_000);
        assert_eq!(debts(&set), vec![0]);
    }

    #[test]
    fn datapath_budget_running_out_mid_cohort_splits_it() {
        // 232 bytes over five members owing 100 each: 46 apiece leaves 2,
        // which the next pass hands out one byte per member in id order,
        // so members 0 and 1 pay one byte more than members 2..5.
        let mut set = indebted(&[(5, 100)]);
        cohort_datapath_step(&mut set, 232);
        assert_eq!(debts(&set), vec![53, 53, 54, 54, 54]);
        assert_eq!(set.n_cohorts(), 2, "debts diverged, so the cohort split");
        assert!(set.check_invariants().is_ok());
    }

    #[test]
    fn route_costs_accumulate_per_rank_and_reject_unknown_ranks() {
        let route = Route {
            forwards: vec![MdsRank(0), MdsRank(1), MdsRank(0)],
            target: MdsRank(2),
            ..Route::default()
        };
        let mut out = vec![(7, 9.0)];
        assert!(route_costs(&route, 3, &mut out));
        assert_eq!(out, vec![(0, 2.0), (1, 1.0), (2, 1.0)]);
        assert!(!route_costs(&route, 2, &mut out), "target rank 2 of 2");
    }

    #[test]
    fn rotation_covers_every_member_exactly_once() {
        let set = set_of(&[3, 5, 2]);
        for offset in 0..10 {
            let runs = rotated_runs(&set, offset);
            let members: Vec<usize> = runs
                .iter()
                .flat_map(|&(start, len, _)| start..start + len)
                .collect();
            assert_eq!(members.len(), 10, "offset {offset}");
            // Order must be offset, offset+1, ..., wrapping.
            for (k, &m) in members.iter().enumerate() {
                assert_eq!(m, (offset + k) % 10, "offset {offset}");
            }
        }
    }

    #[test]
    fn rotation_splits_the_pivot_interval() {
        let set = set_of(&[10]);
        let runs = rotated_runs(&set, 4);
        assert_eq!(runs, vec![(4, 6, 0), (0, 4, 0)]);
        // Offset on an interval boundary: no split.
        let set = set_of(&[4, 6]);
        let runs = rotated_runs(&set, 4);
        assert_eq!(runs, vec![(4, 6, 1), (0, 4, 0)]);
    }

    /// A cloneable stream cycling through `ops` for `left` more ops.
    #[derive(Clone)]
    struct Cycle {
        ops: Vec<MetaOp>,
        pos: usize,
        left: usize,
    }

    impl crate::request::OpStream for Cycle {
        fn next_op(&mut self, _ns: &lunule_namespace::Namespace) -> Option<MetaOp> {
            self.left = self.left.checked_sub(1)?;
            let op = self.ops[self.pos % self.ops.len()];
            self.pos += 1;
            Some(op)
        }

        fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
            e.put_usize(self.pos);
            e.put_usize(self.left);
        }

        fn try_clone_box(&self) -> Option<Box<dyn crate::request::OpStream>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Multi-member groups that create (so they explode) on two ranks
    /// too small for them (so runs stall part-way and cohorts split): the
    /// kept run list must equal the full rotated walk minus stalled
    /// cohorts at the start of every round, which `audit_runs` asserts.
    #[test]
    fn kept_run_list_matches_the_full_walk_through_explodes_and_splits() {
        let mut ns = lunule_namespace::Namespace::new();
        let dir = ns.mkdir_total(InodeId::ROOT, "d");
        let files: Vec<InodeId> = (0..8)
            .map(|f| ns.create_file_total(dir, &format!("f{f}"), 1))
            .collect();
        let groups: Vec<(Box<dyn crate::request::OpStream>, u64)> = [7u64, 5, 9]
            .iter()
            .enumerate()
            .map(|(g, &count)| {
                let ops = vec![
                    MetaOp::Read(files[g]),
                    MetaOp::Read(files[g + 3]),
                    MetaOp::Create {
                        parent: dir,
                        size: 1,
                    },
                    MetaOp::Read(files[7]),
                ];
                let stream = Cycle {
                    ops,
                    pos: 0,
                    left: 40,
                };
                (Box::new(stream) as Box<dyn crate::request::OpStream>, count)
            })
            .collect();
        let cfg = crate::SimConfig {
            n_mds: 2,
            mds_capacity: 30.0,
            client_rate: 5.0,
            epoch_secs: 2,
            duration_secs: 16,
            stop_when_done: false,
            ..crate::SimConfig::default()
        };
        let balancer = lunule_core::make_balancer(lunule_core::BalancerKind::Lunule, 30.0);
        let mut sim = Simulation::new_grouped(cfg, ns, balancer, groups);
        while sim.step() {}
        let audit = sim.round_scratch.audit;
        assert!(sim.total_ops() > 0);
        assert!(audit.rounds > 16, "{audit:?}");
        assert!(audit.explodes > 0, "the fixture must explode: {audit:?}");
        assert!(audit.splits > 0, "the fixture must split: {audit:?}");
    }

    /// The first tick's first round explodes a four-member creating cohort
    /// while a reader's op targets a directory frozen in a commit window
    /// and a singleton create is pending. The end-of-run snapshot digest
    /// was recorded from the engine that classified and routed each cohort
    /// in one pass, before drawing, warming and routing became separate
    /// passes.
    #[test]
    fn explode_beside_a_frozen_op_and_a_pending_create_keeps_its_digest() {
        use lunule_core::{ExportTask, MigrationPlan, SubtreeChoice};
        use lunule_namespace::FragKey;

        let mut ns = lunule_namespace::Namespace::new();
        let frozen = ns.mkdir_total(InodeId::ROOT, "frozen");
        let open = ns.mkdir_total(InodeId::ROOT, "open");
        let fz: Vec<InodeId> = (0..2)
            .map(|f| ns.create_file_total(frozen, &format!("f{f}"), 3))
            .collect();
        let op: Vec<InodeId> = (0..3)
            .map(|f| ns.create_file_total(open, &format!("f{f}"), 5))
            .collect();
        let stream = |ops: Vec<MetaOp>| {
            Box::new(Cycle {
                ops,
                pos: 0,
                left: 12,
            }) as Box<dyn crate::request::OpStream>
        };
        let create = |size| MetaOp::Create { parent: open, size };
        let groups = vec![
            (
                stream(vec![create(4), MetaOp::Read(op[0]), MetaOp::Read(op[1])]),
                4,
            ),
            (stream(vec![MetaOp::Read(fz[0]), MetaOp::Read(op[2])]), 1),
            (stream(vec![create(8), MetaOp::Read(op[2])]), 1),
            (stream(vec![MetaOp::Read(op[1]), MetaOp::Read(fz[1])]), 3),
        ];
        let cfg = crate::SimConfig {
            n_mds: 2,
            mds_capacity: 40.0,
            client_rate: 3.0,
            epoch_secs: 2,
            duration_secs: 8,
            stop_when_done: false,
            migration_bw: 1e6,
            migration_freeze_secs: 4,
            ..crate::SimConfig::default()
        };
        let balancer = lunule_core::make_balancer(lunule_core::BalancerKind::Lunule, 40.0);
        let mut sim = Simulation::new_grouped(cfg, ns, balancer, groups);
        // The first tick's migration step moves the whole frozen directory
        // to rank 1 and opens a commit window over ticks 0..4.
        let plan = MigrationPlan {
            exports: vec![ExportTask {
                from: MdsRank(0),
                to: MdsRank(1),
                target_amount: 1.0,
                subtrees: vec![SubtreeChoice {
                    subtree: FragKey::whole(frozen),
                    estimated_load: 1.0,
                }],
            }],
        };
        sim.migrator.enqueue_plan(&mut sim.ns, &sim.map, &plan, 0);
        let arena = sim.ns.len();
        assert!(sim.step());
        assert!(sim.migrator.is_frozen(&sim.ns, fz[0]));
        assert!(sim.round_scratch.audit.explodes > 0, "cohort 0 explodes");
        assert_eq!(sim.cohorts.cohorts[1].state.ops_done, 0, "reader is frozen");
        assert!(sim.ns.len() >= arena + 5, "both groups' creates served");
        while sim.step() {}
        assert!(sim.total_ops() > 0);
        let digest = lunule_util::codec::fnv1a64(&sim.snapshot().to_bytes());
        assert_eq!(
            digest, 0x6c5a_f860_af2f_af74,
            "end-of-run snapshot drifted: {digest:#018x}"
        );
    }
}
