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
//! run advances as one batch. Each round has three phases:
//!
//! 1. **Classify** (sequential, cohort-local): each live cohort is
//!    inactive, frozen, a batchable read, or a mutating op. Multi-member
//!    cohorts holding a create/remove explode into singletons first —
//!    mutations change the namespace mid-round, so they serve one member
//!    at a time.
//! 2. **Resolve** (sequential, pure): read/remove routes are looked up
//!    against the namespace + subtree map, which cannot change until the
//!    round ends, with authority walks memoized in the simulation's
//!    [`AuthorityCache`](lunule_namespace::AuthorityCache).
//! 3. **Serve** (sequential, effect-ordered): runs are walked in rotation
//!    order. Each run drains MDS budgets member by member, charging the
//!    per-rank costs of [`route_costs`]. It then applies the world
//!    effects at the run's position, in this order: forward and
//!    served counters, latency, the telemetry op ledger, the balancer
//!    access, and finally the unlink of a remove.
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

use crate::client::{resolve_route_cached, routing_anchor, Client, Route};
use crate::cluster::Simulation;
use crate::cohort::{Cohort, CohortSet};
use crate::request::MetaOp;
use lunule_core::{Access, OpKind};
use lunule_namespace::InodeId;
use lunule_util::convert::{u64_to_usize, usize_to_u64};

/// What a classified cohort does this round.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Read/remove with a route precomputed in the resolve phase.
    Resolve,
    /// Singleton create: resolved and served inline at its run position
    /// (its routing anchor depends on the live arena length).
    CreateInline,
}

/// Transient per-round buffers, reused across the rounds of one tick. The
/// round loop runs once per served op per client at small populations, so
/// fresh allocations every round dominate small-run profiles; none of this
/// is simulation state and none of it is ever snapshotted.
#[derive(Default)]
struct RoundScratch {
    runs: Vec<(usize, usize, usize)>,
    seen: Vec<bool>,
    worklist: Vec<usize>,
    class: Vec<Option<Class>>,
    anchor_of: Vec<Option<(InodeId, u32)>>,
    resolve_reqs: Vec<(usize, InodeId, u32)>,
    routes: Vec<Option<(Route, bool)>>,
    served_count: Vec<u64>,
    budget_stalled: Vec<bool>,
    runs_of: Vec<Vec<(usize, usize, usize)>>,
    costs_of: Vec<Vec<(usize, f64)>>,
    bytes_of: Vec<u64>,
    touched: Vec<usize>,
}

impl Simulation {
    /// Issue phase for one tick: rounds until no member serves.
    pub(crate) fn cohort_issue_rounds(&mut self, tick: u64) {
        let n = self.cohorts.n_clients();
        if n == 0 {
            return;
        }
        let mut set = std::mem::take(&mut self.cohorts);
        let offset = u64_to_usize(tick) % n;
        // Per-tick stall flags, indexed by cohort. Transient scratch —
        // ticks never snapshot mid-round, so these are never persisted.
        let mut tick_stalled = vec![false; set.cohorts.len()];
        let mut scratch = RoundScratch::default();
        while self.cohort_round(&mut set, &mut tick_stalled, offset, tick, &mut scratch) {}
        self.cohorts = set;
    }

    /// One issue round. Returns whether any member was served.
    fn cohort_round(
        &mut self,
        set: &mut CohortSet,
        stalled: &mut Vec<bool>,
        offset: usize,
        tick: u64,
        scratch: &mut RoundScratch,
    ) -> bool {
        let rate = self.cfg.client_rate;

        // Phase 1: classify cohorts in rotation (first-encounter) order.
        // Classification only touches cohort-local state, so handling each
        // cohort once at its first member's position matches per-member
        // checks exactly.
        let mut worklist = std::mem::take(&mut scratch.worklist);
        worklist.clear();
        {
            let mut seen = std::mem::take(&mut scratch.seen);
            seen.clear();
            seen.resize(set.cohorts.len(), false);
            let mut runs = std::mem::take(&mut scratch.runs);
            rotated_runs_into(set, offset, &mut runs);
            for &(_, _, c) in &runs {
                if !seen[c] {
                    seen[c] = true;
                    if !stalled[c] {
                        worklist.push(c);
                    }
                }
            }
            scratch.seen = seen;
            scratch.runs = runs;
        }
        let mut class = std::mem::take(&mut scratch.class);
        class.clear();
        class.resize(set.cohorts.len(), None);
        let mut anchor_of = std::mem::take(&mut scratch.anchor_of);
        anchor_of.clear();
        anchor_of.resize(set.cohorts.len(), None);
        let mut resolve_reqs = std::mem::take(&mut scratch.resolve_reqs);
        resolve_reqs.clear();
        let mut exploded = false;
        let mut wi = 0;
        while wi < worklist.len() {
            let c = worklist[wi];
            wi += 1;
            let st = &mut set.cohorts[c].state;
            if !st.can_issue(tick, rate) {
                if st.finished && st.data_pending == 0 && st.finished_at.is_none() {
                    st.finished_at = Some(tick);
                }
                stalled[c] = true;
                continue;
            }
            let Some(op) = st.peek_op(&self.ns, tick) else {
                let st = &mut set.cohorts[c].state;
                if st.data_pending == 0 && st.finished_at.is_none() {
                    st.finished_at = Some(tick);
                }
                stalled[c] = true;
                continue;
            };
            if set.cohorts[c].count > 1 && !matches!(op, MetaOp::Read(_)) {
                // Creates and removes mutate the namespace as they serve,
                // so members must go one at a time: explode to singletons
                // and re-classify each (the checks above re-run cheaply
                // and identically). The op type can change every round,
                // which is why this is a per-round check, not a
                // construction-time property.
                let parts = set.explode(c);
                exploded = true;
                stalled.resize(set.cohorts.len(), false);
                class.resize(set.cohorts.len(), None);
                anchor_of.resize(set.cohorts.len(), None);
                worklist.extend(parts);
                continue;
            }
            if self.migrator.is_frozen(&self.ns, op.anchor()) {
                stalled[c] = true;
                continue;
            }
            match op {
                MetaOp::Read(_) | MetaOp::Remove(_) => {
                    let (dir, hash) = routing_anchor(&self.ns, &op);
                    class[c] = Some(Class::Resolve);
                    anchor_of[c] = Some((dir, hash));
                    resolve_reqs.push((c, dir, hash));
                }
                MetaOp::Create { .. } => {
                    class[c] = Some(Class::CreateInline);
                }
            }
        }

        // Phase 2: resolve routes. Resolution is pure (namespace, subtree
        // map and client caches are all frozen for the round), so resolving
        // every route before serving any is exact.
        let mut routes = std::mem::take(&mut scratch.routes);
        routes.clear();
        routes.resize(set.cohorts.len(), None);
        for &(c, dir, hash) in &resolve_reqs {
            routes[c] = Some(resolve_route_cached(
                &set.cohorts[c].state.cache,
                &self.ns,
                &self.map,
                &mut self.auth_cache,
                dir,
                hash,
            ));
        }

        // Phase 3: serve runs in rotation order, effects in member order.
        let n_cohorts = set.cohorts.len();
        let mut served_count = std::mem::take(&mut scratch.served_count);
        served_count.clear();
        served_count.resize(n_cohorts, 0);
        let mut budget_stalled = std::mem::take(&mut scratch.budget_stalled);
        budget_stalled.clear();
        budget_stalled.resize(n_cohorts, false);
        // Per cohort: (run start, members served, run length) per run, in
        // rotation order — the split bookkeeping. Inner vectors keep their
        // capacity across rounds; entries past this round's cohort count
        // are simply never indexed.
        let mut runs_of = std::mem::take(&mut scratch.runs_of);
        for v in runs_of.iter_mut() {
            v.clear();
        }
        if runs_of.len() < n_cohorts {
            runs_of.resize_with(n_cohorts, Vec::new);
        }
        let mut costs_of = std::mem::take(&mut scratch.costs_of);
        for v in costs_of.iter_mut() {
            v.clear();
        }
        if costs_of.len() < n_cohorts {
            costs_of.resize_with(n_cohorts, Vec::new);
        }
        let mut bytes_of = std::mem::take(&mut scratch.bytes_of);
        bytes_of.clear();
        bytes_of.resize(n_cohorts, 0);
        let mut touched = std::mem::take(&mut scratch.touched);
        touched.clear();
        let mut progressed = false;
        // Phase 1 already computed the rotation; it only goes stale when an
        // explode re-tiled the intervals mid-classify.
        let mut serve_runs = std::mem::take(&mut scratch.runs);
        if exploded {
            rotated_runs_into(set, offset, &mut serve_runs);
        }
        for &(start, len, c) in &serve_runs {
            if stalled[c] {
                continue;
            }
            match class[c] {
                None => {}
                Some(Class::CreateInline) => {
                    debug_assert_eq!(len, 1, "creates serve as singletons");
                    let st = &mut set.cohorts[c].state;
                    if self.serve_singleton_create(st, tick) {
                        progressed = true;
                    } else {
                        stalled[c] = true;
                    }
                }
                Some(Class::Resolve) => {
                    if runs_of[c].is_empty() {
                        touched.push(c);
                    }
                    if budget_stalled[c] {
                        // Budgets only decrease within a tick: once one
                        // member failed the check, every later member of
                        // the cohort fails it identically.
                        runs_of[c].push((start, 0, len));
                        continue;
                    }
                    let Some((route, _hit)) = routes[c].as_ref() else {
                        debug_assert!(false, "resolve-classified cohort has a route");
                        stalled[c] = true;
                        continue;
                    };
                    // A valid route costs at least its target, so an empty
                    // buffer means this is the cohort's first run of the
                    // round. The per-cohort buffer keeps its capacity round
                    // over round.
                    if costs_of[c].is_empty()
                        && !route_costs(route, self.mds.len(), &mut costs_of[c])
                    {
                        stalled[c] = true;
                        continue;
                    }
                    let target_idx = route.target.index();
                    let costs = &costs_of[c];
                    // Member-by-member budget drain: the f64 operations of
                    // serving the run's members one at a time.
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
                    runs_of[c].push((start, s, len));
                    if s < len {
                        budget_stalled[c] = true;
                    }
                    if s == 0 {
                        continue;
                    }
                    progressed = true;
                    served_count[c] += usize_to_u64(s);
                    let m = usize_to_u64(s);
                    for r in &route.forwards {
                        self.mds[r.index()].record_forward_n(m);
                    }
                    self.mds[target_idx].record_served_n(m);
                    let Some((op, first_attempt)) = set.cohorts[c].state.pending else {
                        debug_assert!(false, "resolve-classified cohort has a pending op");
                        continue;
                    };
                    let (ino, kind) = match op {
                        MetaOp::Read(ino) => (ino, OpKind::Read),
                        MetaOp::Remove(ino) => (ino, OpKind::Remove),
                        MetaOp::Create { .. } => unreachable!("creates serve inline"),
                    };
                    if kind == OpKind::Read {
                        bytes_of[c] = self.ns.inode(ino).size();
                    }
                    let stall_ticks = tick.saturating_sub(first_attempt);
                    self.latency.record_n(stall_ticks, m);
                    if self.telemetry.is_enabled() {
                        self.op_ledger.record(target_idx, stall_ticks, m);
                    }
                    // Record the access while the inode is still
                    // resolvable, then apply the unlink for removes.
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
            }
        }

        // Post-round: split partially served cohorts, then advance each
        // served cohort's shared state exactly once (stream cursor, route
        // cache, data debt — all member-private, so deferring them past
        // the round's world effects changes nothing observable).
        for &c in &touched {
            if served_count[c] == 0 {
                stalled[c] = true;
                continue;
            }
            let total = set.cohorts[c].count;
            if served_count[c] < total {
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
                for &(run_start, srv, run_len) in &runs_of[c] {
                    if srv < run_len {
                        set.carve(run_start + srv, run_len - srv, slot);
                    }
                }
                set.refresh_canonical_id(c);
                set.refresh_canonical_id(slot);
                stalled.push(true);
                debug_assert_eq!(stalled.len(), set.cohorts.len());
            }
            let (Some((route, _)), Some((dir, hash))) = (routes[c].as_ref(), anchor_of[c]) else {
                debug_assert!(false, "served cohort has a route and an anchor");
                continue;
            };
            let target = route.target;
            let st = &mut set.cohorts[c].state;
            st.consume_op(tick);
            st.learn_route(&self.ns, dir, hash, target);
            if self.cfg.data_path.is_some() && bytes_of[c] > 0 {
                st.data_pending += bytes_of[c];
            }
        }
        scratch.runs = serve_runs;
        scratch.worklist = worklist;
        scratch.class = class;
        scratch.anchor_of = anchor_of;
        scratch.resolve_reqs = resolve_reqs;
        scratch.routes = routes;
        scratch.served_count = served_count;
        scratch.budget_stalled = budget_stalled;
        scratch.runs_of = runs_of;
        scratch.costs_of = costs_of;
        scratch.bytes_of = bytes_of;
        scratch.touched = touched;
        progressed
    }

    /// Serves one create for a singleton cohort: resolve, budget check and
    /// effects of one member, minus the checks phase 1 already ran this
    /// round. Returns whether the op was served.
    fn serve_singleton_create(&mut self, st: &mut Client, tick: u64) -> bool {
        let Some((op, _)) = st.pending else {
            debug_assert!(false, "create-classified cohort lost its pending op");
            return false;
        };
        let (dir, hash) = routing_anchor(&self.ns, &op);
        let (route, _hit) = st.resolve_with(&self.ns, &self.map, &mut self.auth_cache, dir, hash);
        if !route_costs(&route, self.mds.len(), &mut self.costs_scratch) {
            return false;
        }
        let target_idx = route.target.index();
        if self
            .costs_scratch
            .iter()
            .any(|(idx, cost)| self.mds[*idx].budget < *cost)
        {
            return false;
        }
        for (idx, cost) in &self.costs_scratch {
            let ok = self.mds[*idx].try_consume(*cost);
            debug_assert!(ok, "budget pre-checked per rank");
        }
        for r in &route.forwards {
            self.mds[r.index()].record_forward();
        }
        self.mds[target_idx].record_served();

        let MetaOp::Create { parent, size } = op else {
            unreachable!("serve_singleton_create takes creates only")
        };
        let name = format!("c{}_{}", st.id, st.ops_done);
        let (ino, kind, data_bytes) = match self.ns.create_file(parent, &name, size) {
            Ok(id) => {
                st.notify_created(id);
                (id, OpKind::Create, size)
            }
            // Streams only create under live directories; a failure means
            // the op went stale. Account it against the parent as a plain
            // read so the stream still advances.
            Err(e) => {
                debug_assert!(false, "stale create under {parent:?}: {e}");
                (parent, OpKind::Read, 0)
            }
        };
        let stall_ticks = st.consume_op(tick);
        self.latency.record(stall_ticks);
        if self.telemetry.is_enabled() {
            self.op_ledger.record(route.target.index(), stall_ticks, 1);
        }
        st.learn_route(&self.ns, dir, hash, route.target);
        if self.cfg.data_path.is_some() && data_bytes > 0 {
            st.data_pending += data_bytes;
        }
        self.balancer.record_access(
            &self.ns,
            Access {
                ino,
                served_by: route.target,
                kind,
            },
        );
        if kind == OpKind::Create {
            if let Some(r) = self.resident.get_mut(route.target.index()) {
                *r += 1;
            }
        }
        true
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
}
