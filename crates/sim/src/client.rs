//! Closed-loop client sessions with authority caching.
//!
//! Each client issues metadata ops back-to-back (closed loop, zero think
//! time) up to a per-second rate cap, stalling when its target MDS has no
//! capacity left this tick. Clients cache dirfrag→rank mappings (CephFS
//! clients cache the subtree map the same way), and no partition-map
//! change flushes the cache. A committed migration hands the entries it
//! covers to the importer (`Client::apply_migrations`); a drained or
//! crashed rank's entries are dropped ([`Client::forget_rank`]), so their
//! next op pays a traversal from the root; any other stale entry costs one
//! redirect forward at the rank it names.

use crate::request::{MetaOp, OpStream};
use lunule_namespace::{
    dentry_hash, AuthorityCache, Frag, FragKey, InodeId, MdsRank, Namespace, SubtreeMap,
};
use lunule_util::convert::usize_to_u64;
use std::collections::BTreeMap;

/// Outcome of resolving an op's route.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Route {
    /// Rank that serves the op.
    pub target: MdsRank,
    /// Ranks that forward the request on a traversal (may repeat the
    /// target's predecessors; empty on a cache hit).
    pub forwards: Vec<MdsRank>,
    /// The live fragment of the op's directory the op hashed into: what
    /// the client caches once the op is served.
    pub frag: Frag,
    /// Whether the resolving client's newest cached entry for the op's
    /// directory already is `(frag, target)`, so that
    /// [`Client::learn_route`] has nothing to learn below the cap. It
    /// describes the cache the route was resolved against, so only that
    /// client may learn the route.
    pub newest: bool,
}

/// A route to rank 0 with no forwards: a blank buffer for the cohort
/// engine to resolve routes into.
impl Default for Route {
    fn default() -> Self {
        Route {
            target: MdsRank(0),
            forwards: Vec::new(),
            frag: Frag::root(),
            newest: false,
        }
    }
}

/// One step's committed migrations, `(subtree, importer)` in job order,
/// and what they answer per cached directory. The answers are indexed by
/// directory slot ([`Namespace::dir_slot`]) and stamped with the batch, so
/// a batch costs one containment walk per distinct cached directory, not
/// one per job, cohort and directory. Transient: never serialised.
#[derive(Default)]
pub(crate) struct HandoffMemo {
    jobs: Vec<(FragKey, MdsRank)>,
    /// Bumps on every [`HandoffMemo::begin`]; an answer with another
    /// stamp belongs to an earlier batch.
    stamp: u64,
    /// Per directory slot: the batch stamp, the index of the last job
    /// whose region holds the directory through an ancestor, and whether
    /// some job is keyed on the directory itself.
    answers: Vec<(u64, Option<usize>, bool)>,
}

impl HandoffMemo {
    /// Starts a batch of `jobs`, forgetting every earlier answer.
    pub(crate) fn begin(&mut self, ns: &Namespace, jobs: impl Iterator<Item = (FragKey, MdsRank)>) {
        self.jobs.clear();
        self.jobs.extend(jobs);
        self.stamp += 1;
        if self.answers.len() < ns.dir_count() {
            self.answers.resize(ns.dir_count(), (0, None, false));
        }
    }

    /// For directory `dir`: the last job whose region holds it through an
    /// ancestor, and whether some job is keyed on `dir` itself.
    fn answer(&mut self, ns: &Namespace, dir: InodeId) -> (Option<usize>, bool) {
        let walk = |jobs: &[(FragKey, MdsRank)]| {
            let below = jobs
                .iter()
                .rposition(|(k, _)| ns.in_dirfrag(k.dir, &k.frag, dir));
            (below, jobs.iter().any(|(k, _)| k.dir == dir))
        };
        match ns.dir_slot(dir).and_then(|s| self.answers.get_mut(s)) {
            Some(&mut (stamp, below, keyed)) if stamp == self.stamp => (below, keyed),
            Some(slot) => {
                let (below, keyed) = walk(&self.jobs);
                *slot = (self.stamp, below, keyed);
                (below, keyed)
            }
            None => walk(&self.jobs),
        }
    }
}

/// Default maximum dirfrag→rank entries a client caches. CephFS clients
/// hold a bounded view of the subtree map; an unbounded cache would make
/// static pinning (Dir-Hash) artificially forward-free after warm-up,
/// hiding the traversal cost the paper measures in Fig. 14.
pub const CLIENT_CACHE_CAP: usize = 256;

/// Bytes of the id that opens [`Client::encode`]'s output.
pub(crate) const ENCODED_ID_LEN: usize = 8;

/// One simulated client.
///
/// Every field that `Client::encode` writes is private to this module
/// and changes only through methods that move the client's *change
/// stamp* when, and only when, the encoded state really changes. Cohort
/// merge and the issue round key what they memoize on that stamp.
pub struct Client {
    /// Client index (stable across the run). Under the cohort engine this
    /// is the cohort's canonical id: the lowest member id. Not covered by
    /// the change stamp: merge compares the state after the id.
    pub id: usize,
    stream: Box<dyn OpStream>,
    /// Op returned by the stream but not yet served (stall retry buffer),
    /// with the tick it was first attempted (for stall-latency tracking).
    pending: Option<(MetaOp, u64)>,
    /// Cached dirfrag→rank authority mappings.
    cache: BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    /// FIFO of cached directories for eviction when the cap is reached.
    cache_order: std::collections::VecDeque<InodeId>,
    /// Total cached entries (across all directories).
    cache_count: usize,
    /// Ops issued in the current tick (rate limiting).
    issued_this_tick: u32,
    /// True once `next_op` returned `None`.
    finished: bool,
    /// Tick at which the stream finished (metadata side).
    finished_at: Option<u64>,
    /// Bytes of data transfer still owed before the client may proceed
    /// (data-path model).
    data_pending: u64,
    /// Total metadata ops served for this client.
    ops_done: u64,
    /// Tick the client becomes active (for staged client arrival).
    starts_at: u64,
    /// Maximum cached dirfrag entries before FIFO eviction.
    cache_cap: usize,
    /// In-flight data window, bytes: the client stalls once `data_pending`
    /// exceeds this. Zero means every byte blocks immediately.
    data_window: u64,
    /// Cached dirfrag entries evicted by the FIFO cap over the client's
    /// lifetime — telemetry samples this to show when a run's working set
    /// outgrows the client cache.
    cache_evictions: u64,
    /// The change stamp: moves on every change to what `encode` writes
    /// after the id, and on nothing else. Transient: never encoded, and 0
    /// on construction, clone and decode; only the cohort slot that holds
    /// the client keeps keys on it.
    stamp: u64,
}

impl Client {
    /// Wraps an op stream into a client session starting at tick
    /// `starts_at`.
    pub fn new(id: usize, stream: Box<dyn OpStream>, starts_at: u64) -> Self {
        Client {
            id,
            stream,
            pending: None,
            cache: BTreeMap::new(),
            cache_order: std::collections::VecDeque::new(),
            cache_count: 0,
            issued_this_tick: 0,
            finished: false,
            finished_at: None,
            data_pending: 0,
            ops_done: 0,
            starts_at,
            cache_cap: CLIENT_CACHE_CAP,
            data_window: 0,
            cache_evictions: 0,
            stamp: 0,
        }
    }

    /// Sets the cache cap and the in-flight data window: construction-time
    /// configuration.
    pub(crate) fn with_limits(mut self, cache_cap: usize, data_window: u64) -> Self {
        self.cache_cap = cache_cap;
        self.data_window = data_window;
        self.touch();
        self
    }

    /// The change stamp: equal readings bracket an unchanged encoding.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Moves the change stamp; every change to the encoded state calls it.
    fn touch(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
    }

    /// True once the op stream has run dry.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Tick at which the member finished, once it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Bytes of data transfer still owed.
    pub fn data_pending(&self) -> u64 {
        self.data_pending
    }

    /// Total metadata ops served.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Cached entries the FIFO cap has evicted so far.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// The buffered op and the tick it was first attempted, if any.
    pub(crate) fn pending(&self) -> Option<(MetaOp, u64)> {
        self.pending
    }

    /// The cached dirfrag→rank mappings, per directory.
    pub(crate) fn cache(&self) -> &BTreeMap<InodeId, Vec<(Frag, MdsRank)>> {
        &self.cache
    }

    /// True once the stream ran dry and the data debt is paid: the member
    /// has completed.
    pub fn is_done(&self) -> bool {
        self.finished && self.data_pending == 0
    }

    /// Stamps the completion tick of a member that has just completed.
    pub(crate) fn note_done(&mut self, tick: u64) {
        if self.is_done() && self.finished_at.is_none() {
            self.finished_at = Some(tick);
            self.touch();
        }
    }

    /// Per-tick reset: clears the issue count and stamps completion.
    pub(crate) fn start_tick(&mut self, tick: u64) {
        if self.issued_this_tick != 0 {
            self.issued_this_tick = 0;
            self.touch();
        }
        self.note_done(tick);
    }

    /// Adds `bytes` of data transfer owed for a served op.
    pub(crate) fn add_data_debt(&mut self, bytes: u64) {
        if bytes > 0 {
            self.data_pending += bytes;
            self.touch();
        }
    }

    /// Sets the data debt left after a data-path tick.
    pub(crate) fn set_data_pending(&mut self, bytes: u64) {
        if bytes != self.data_pending {
            self.data_pending = bytes;
            self.touch();
        }
    }

    /// True when the client can issue an op right now.
    pub fn can_issue(&self, tick: u64, rate: f64) -> bool {
        !self.finished
            && tick >= self.starts_at
            && self.data_pending <= self.data_window
            && f64::from(self.issued_this_tick) < rate
    }

    /// The op the client wants served next (peeks without consuming).
    /// `tick` stamps the first attempt for stall-latency accounting.
    pub fn peek_op(&mut self, ns: &Namespace, tick: u64) -> Option<MetaOp> {
        if self.pending.is_none() {
            self.touch();
            self.pending = self.stream.next_op(ns).map(|op| (op, tick));
            if self.pending.is_none() {
                self.finished = true;
            }
        }
        self.pending.map(|(op, _)| op)
    }

    /// Marks the pending op as served at `tick`; returns how many ticks it
    /// spent stalled (0 = served on its first attempt).
    pub fn consume_op(&mut self, tick: u64) -> u64 {
        // Consuming without a pending op is a caller bug; treat it as a
        // zero-stall no-op in release builds instead of aborting.
        let Some((_, first_attempt)) = self.pending.take() else {
            debug_assert!(false, "consume without pending op");
            return 0;
        };
        self.touch();
        self.issued_this_tick += 1;
        self.ops_done += 1;
        tick.saturating_sub(first_attempt)
    }

    /// Sets the lifetime counters directly, moving the stamp: a fixture
    /// shortcut for tests of the aggregates.
    #[cfg(test)]
    pub(crate) fn set_lifetime(&mut self, ops_done: u64, evictions: u64, finished_at: Option<u64>) {
        self.ops_done = ops_done;
        self.cache_evictions = evictions;
        self.finished = finished_at.is_some();
        self.finished_at = finished_at;
        self.touch();
    }

    /// Forwards a created-inode notification to the stream.
    pub fn notify_created(&mut self, id: InodeId) {
        self.touch();
        self.stream.on_created(id);
    }
}

/// The uncached live-walk route: the reference the memoized
/// [`resolve_route_cached`] must agree with.
#[cfg(test)]
pub(crate) fn resolve_route(
    cache: &BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    ns: &Namespace,
    map: &SubtreeMap,
    dir: InodeId,
    hash: u32,
) -> (Route, bool) {
    let frag = ns.frag_for_hash(dir, hash);
    // Whether the last entry equal to `(frag, target)` is the directory's
    // last entry.
    let newest = |target: MdsRank| {
        cache.get(&dir).is_some_and(|entries| {
            let at = entries.iter().rposition(|&(f, r)| f == frag && r == target);
            at.is_some_and(|i| i + 1 == entries.len())
        })
    };
    let cached = cache.get(&dir).and_then(|entries| {
        entries
            .iter()
            .filter(|(f, _)| f.contains_hash(hash))
            .max_by_key(|(f, _)| f.bits())
            .map(|(_, r)| *r)
    });
    if let Some(cached_rank) = cached {
        // Verify against the live map (the "send and get redirected"
        // round-trip, collapsed to one forward).
        let dir_auth = map.authority(ns, dir);
        let true_auth = resolve_child(map, ns, dir, hash, dir_auth);
        let forwards = if true_auth == cached_rank {
            Vec::new()
        } else {
            vec![cached_rank]
        };
        let route = Route {
            target: true_auth,
            forwards,
            frag,
            newest: newest(true_auth),
        };
        return (route, true_auth == cached_rank);
    }
    // Cache miss: full traversal from the root. The authority chain of
    // the *directory* plus the final hop for the dentry hash.
    let mut auths = map.authority_chain(ns, dir);
    // The chain always holds at least the root's authority; fall back to
    // the map's root rank rather than panic if that ever changes.
    let dir_auth = auths.last().copied().unwrap_or_else(|| map.root_rank());
    let final_auth = resolve_child(map, ns, dir, hash, dir_auth);
    auths.push(final_auth);
    // Forwards: each change of authority along the way is one forward,
    // performed by the rank that held the request before the hop.
    let mut forwards = Vec::new();
    for w in auths.windows(2) {
        if w[0] != w[1] {
            forwards.push(w[0]);
        }
    }
    let route = Route {
        target: final_auth,
        forwards,
        frag,
        newest: newest(final_auth),
    };
    (route, false)
}

/// The route of an op on the child of `dir` with dentry hash `hash`, given
/// the client's route cache, written into `out` so a caller that keeps its
/// routes reuses their `forwards` capacity. Returns whether the route was
/// a fresh cache hit. The op's fragment and serving rank come from one
/// [`AuthorityCache::child_route`] lookup; only a cache miss walks the
/// directory's (memoized) authority chain for the traversal's forwards.
/// The one probe of the cache also fills [`Route::newest`], so learning the
/// route needs no second probe.
///
/// Cache semantics mirror CephFS clients: a cached dirfrag→rank mapping
/// is used optimistically; if it has gone stale (the subtree migrated),
/// the stale MDS *redirects* the request — one forward charged at the
/// stale rank. Only genuinely unknown dirfrags pay a full path traversal
/// from the root. Resolving is read-only: the cache learns nothing until
/// the op is served and [`Client::learn_route`] is called, because
/// learning on a stalled attempt would let the retry masquerade as a
/// cache hit and hide the traversal's forwarding work.
pub(crate) fn resolve_route_cached(
    cache: &BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    ns: &Namespace,
    map: &SubtreeMap,
    auth: &mut AuthorityCache,
    dir: InodeId,
    hash: u32,
    out: &mut Route,
) -> bool {
    out.forwards.clear();
    let (frag, true_auth) = auth.child_route(map, ns, dir, hash);
    out.frag = frag;
    out.target = true_auth;
    let entries = cache.get(&dir).map_or(&[][..], Vec::as_slice);
    out.newest = entries.last() == Some(&(frag, true_auth));
    let cached = entries
        .iter()
        .filter(|(f, _)| f.contains_hash(hash))
        .max_by_key(|(f, _)| f.bits())
        .map(|(_, r)| *r);
    if let Some(cached_rank) = cached {
        if true_auth == cached_rank {
            return true;
        }
        out.forwards.push(cached_rank);
        return false;
    }
    let auths = auth.chain(map, ns, dir);
    let dir_auth = auths.last().copied().unwrap_or_else(|| map.root_rank());
    for w in auths.windows(2) {
        if w[0] != w[1] {
            out.forwards.push(w[0]);
        }
    }
    if dir_auth != true_auth {
        out.forwards.push(dir_auth);
    }
    false
}

impl Client {
    /// Records a served op's route for its directory `dir`: the reply
    /// carries the authoritative rank of the fragment the op hashed into.
    ///
    /// Entries of one directory are pairwise disjoint, so re-learning the
    /// directory's newest entry unchanged would drop it and push it back:
    /// below the cap, where nothing is evicted first, that is skipped. The
    /// resolve that produced `route` against this client's cache already
    /// read whether it is so ([`Route::newest`]), so the skip costs no
    /// lookup.
    pub(crate) fn learn_route(&mut self, dir: InodeId, route: &Route) {
        debug_assert_eq!(
            route.newest,
            self.cache.get(&dir).and_then(|e| e.last()) == Some(&(route.frag, route.target)),
            "route resolved against another cache"
        );
        if route.newest && self.cache_count < self.cache_cap {
            return;
        }
        self.update_cache(dir, route.frag, route.target);
    }

    /// Replaces the cached rank for `(dir, frag)`, discarding entries the
    /// new fragment supersedes (stale coarser or finer fragments) and
    /// evicting the oldest directories once the cap is reached.
    fn update_cache(&mut self, dir: InodeId, frag: Frag, rank: MdsRank) {
        self.touch();
        while self.cache_count >= self.cache_cap {
            match self.cache_order.pop_front() {
                Some(old) => {
                    if let Some(removed) = self.cache.remove(&old) {
                        self.cache_count -= removed.len();
                        self.cache_evictions += usize_to_u64(removed.len());
                    }
                }
                None => break,
            }
        }
        let entries = self.cache.entry(dir).or_default();
        if entries.is_empty() {
            self.cache_order.push_back(dir);
        }
        let before = entries.len();
        entries.retain(|(f, _)| f.disjoint(&frag));
        self.cache_count -= before - entries.len();
        entries.push((frag, rank));
        self.cache_count += 1;
    }

    /// Applies one step's completed subtree migrations, the batch `memo`
    /// was last begun with, to the cache: each entry covered by a migrated
    /// dirfrag switches in place to the importer of the last job, in job
    /// order, that covers it. This models CephFS's cap/session transfer —
    /// clients actively working in a subtree are handed to the importer at
    /// commit rather than discovering the move via a redirect.
    ///
    /// Whether a job covers an entry depends only on the entry's `(dir,
    /// frag)`, so taking the last covering job's rank equals applying the
    /// jobs one by one. An entry on a job's own directory is covered when
    /// the job's fragment contains the entry's; one on any other
    /// directory when the job's region holds that directory through an
    /// ancestor, which `memo` answers once per directory per batch.
    pub(crate) fn apply_migrations(&mut self, ns: &Namespace, memo: &mut HandoffMemo) {
        let mut changed = false;
        for (dir, entries) in self.cache.iter_mut() {
            let (below, keyed) = memo.answer(ns, *dir);
            for (f, r) in entries.iter_mut() {
                let on_dir = if keyed {
                    memo.jobs
                        .iter()
                        .rposition(|(k, _)| k.dir == *dir && k.frag.contains_frag(f))
                } else {
                    None
                };
                if let Some(j) = on_dir.max(below) {
                    changed |= *r != memo.jobs[j].1;
                    *r = memo.jobs[j].1;
                }
            }
        }
        if changed {
            self.touch();
        }
    }

    /// Applies one completed subtree migration to the cache: the per-job
    /// form [`Client::apply_migrations`] replaced, kept as its oracle.
    #[cfg(test)]
    pub(crate) fn apply_migration(&mut self, ns: &Namespace, subtree: &FragKey, new_rank: MdsRank) {
        for (dir, entries) in self.cache.iter_mut() {
            if *dir == subtree.dir {
                for (f, r) in entries.iter_mut() {
                    if subtree.frag.contains_frag(f) {
                        *r = new_rank;
                    }
                }
            } else if ns.in_dirfrag(subtree.dir, &subtree.frag, *dir) {
                for (_, r) in entries.iter_mut() {
                    *r = new_rank;
                }
            }
        }
    }

    /// Drops every cached entry pointing at `rank` — used when a rank is
    /// drained or fails and can no longer answer (or redirect) anything.
    /// The next access to those dirfrags pays a fresh traversal.
    pub fn forget_rank(&mut self, rank: MdsRank) {
        let mut removed = 0;
        self.cache.retain(|_, entries| {
            let before = entries.len();
            entries.retain(|(_, r)| *r != rank);
            removed += before - entries.len();
            !entries.is_empty()
        });
        if removed > 0 {
            self.cache_count -= removed;
            self.cache_order.retain(|d| self.cache.contains_key(d));
            self.touch();
        }
    }

    /// Number of cached dirfrag entries (test/inspection hook).
    pub fn cache_len(&self) -> usize {
        self.cache.values().map(Vec::len).sum()
    }

    /// A deep copy of the whole client session, including the op stream's
    /// dynamic state — `None` when the stream is not cloneable. The cohort
    /// engine uses this to split a diverging cohort.
    pub(crate) fn try_clone(&self) -> Option<Client> {
        let stream = self.stream.try_clone_box()?;
        Some(Client {
            id: self.id,
            stream,
            pending: self.pending,
            cache: self.cache.clone(),
            cache_order: self.cache_order.clone(),
            cache_count: self.cache_count,
            issued_this_tick: self.issued_this_tick,
            finished: self.finished,
            finished_at: self.finished_at,
            data_pending: self.data_pending,
            ops_done: self.ops_done,
            starts_at: self.starts_at,
            cache_cap: self.cache_cap,
            data_window: self.data_window,
            cache_evictions: self.cache_evictions,
            stamp: 0,
        })
    }

    /// Serialises the client's complete dynamic state — buffered retry op,
    /// authority cache (with its FIFO eviction order), lifecycle flags and
    /// counters — plus the wrapped op stream's own state, for a snapshot
    /// section. The id comes first, as a fixed-width u64
    /// ([`ENCODED_ID_LEN`] bytes): cohort merge compares what follows it.
    pub(crate) fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_usize(self.id);
        e.put_nested(|e| self.stream.save_state(e));
        e.put_option(&self.pending, |e, (op, first_attempt)| {
            op.encode(e);
            e.put_u64(*first_attempt);
        });
        e.put_usize(self.cache.len());
        for (dir, entries) in &self.cache {
            e.put_u64(dir.raw());
            e.put_seq(entries, |e, (f, r)| {
                f.encode(e);
                e.put_u16(r.0);
            });
        }
        e.put_usize(self.cache_order.len());
        for dir in &self.cache_order {
            e.put_u64(dir.raw());
        }
        e.put_u32(self.issued_this_tick);
        e.put_bool(self.finished);
        e.put_option(&self.finished_at, |e, t| e.put_u64(*t));
        e.put_u64(self.data_pending);
        e.put_u64(self.ops_done);
        e.put_u64(self.starts_at);
        e.put_usize(self.cache_cap);
        e.put_u64(self.data_window);
        e.put_u64(self.cache_evictions);
    }

    /// Inverse of [`Client::encode`], wrapping `stream` (freshly built from
    /// the run configuration) and replaying its saved cursor state. Rejects
    /// caches whose FIFO order disagrees with the map, duplicate or empty
    /// cache entries, and malformed stream payloads.
    pub(crate) fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
        mut stream: Box<dyn OpStream>,
    ) -> Result<Self, lunule_util::codec::CodecError> {
        use lunule_util::codec::{CodecError, Decoder};
        let id = d.get_usize("client.id")?;
        let payload = d.get_bytes("client.stream")?;
        let mut sd = Decoder::new(&payload);
        stream.load_state(&mut sd)?;
        sd.finish()?;
        let pending = d.get_option("client.pending", |d| {
            let op = MetaOp::decode(d)?;
            let first_attempt = d.get_u64("client.pending_tick")?;
            Ok((op, first_attempt))
        })?;
        let n_dirs = d.get_usize("client.cache")?;
        let mut cache: BTreeMap<InodeId, Vec<(Frag, MdsRank)>> = BTreeMap::new();
        let mut cache_count = 0usize;
        for _ in 0..n_dirs {
            let dir = crate::request::inode_from_raw(d.get_u64("client.cache_dir")?)?;
            let entries = d.get_seq("client.cache_entries", |d| {
                let f = Frag::decode(d)?;
                let r = MdsRank(d.get_u16("client.cache_rank")?);
                Ok((f, r))
            })?;
            // Learning keeps one directory's entries pairwise disjoint,
            // which `learn_route`'s early return relies on.
            let overlapping = entries
                .iter()
                .enumerate()
                .any(|(i, (f, _))| entries[..i].iter().any(|(g, _)| !g.disjoint(f)));
            if entries.is_empty() || overlapping {
                return Err(CodecError::Invalid {
                    what: "client.cache_entries",
                });
            }
            cache_count += entries.len();
            if cache.insert(dir, entries).is_some() {
                return Err(CodecError::Invalid {
                    what: "client.cache_dir",
                });
            }
        }
        let n_order = d.get_usize("client.cache_order")?;
        let mut cache_order = std::collections::VecDeque::with_capacity(n_order.min(1024));
        for _ in 0..n_order {
            cache_order.push_back(crate::request::inode_from_raw(
                d.get_u64("client.cache_order_dir")?,
            )?);
        }
        // The FIFO must list exactly the cached directories, once each.
        if cache_order.len() != cache.len() {
            return Err(CodecError::Invalid {
                what: "client.cache_order",
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for dir in &cache_order {
            if !cache.contains_key(dir) || !seen.insert(*dir) {
                return Err(CodecError::Invalid {
                    what: "client.cache_order",
                });
            }
        }
        let issued_this_tick = d.get_u32("client.issued_this_tick")?;
        let finished = d.get_bool("client.finished")?;
        let finished_at =
            d.get_option("client.finished_at", |d| d.get_u64("client.finished_at"))?;
        let data_pending = d.get_u64("client.data_pending")?;
        let ops_done = d.get_u64("client.ops_done")?;
        let starts_at = d.get_u64("client.starts_at")?;
        let cache_cap = d.get_usize("client.cache_cap")?;
        let data_window = d.get_u64("client.data_window")?;
        let cache_evictions = d.get_u64("client.cache_evictions")?;
        Ok(Client {
            id,
            stream,
            pending,
            cache,
            cache_order,
            cache_count,
            issued_this_tick,
            finished,
            finished_at,
            data_pending,
            ops_done,
            starts_at,
            cache_cap,
            data_window,
            cache_evictions,
            stamp: 0,
        })
    }
}

/// Authority of the would-be child of `dir` with dentry hash `hash`, given
/// the directory's own resolved authority: the live walk that
/// [`AuthorityCache::child_route`] memoizes.
#[cfg(test)]
fn resolve_child(
    map: &SubtreeMap,
    ns: &Namespace,
    dir: InodeId,
    hash: u32,
    dir_auth: MdsRank,
) -> MdsRank {
    let frag = ns.frag_for_hash(dir, hash);
    map.covering_entry_rank(dir, &frag)
        .or_else(|| {
            // An entry deeper than the live frag (mid-split) still applies
            // if it contains the hash.
            map.explicit_entry_rank(dir, &frag)
        })
        .unwrap_or(dir_auth)
}

/// Convenience: the (dir, hash) pair an op routes by.
pub fn routing_anchor(ns: &Namespace, op: &MetaOp) -> (InodeId, u32) {
    match op {
        MetaOp::Read(ino) | MetaOp::Remove(ino) => {
            let dir = ns.inode(*ino).parent().unwrap_or(*ino);
            (dir, dentry_hash(ino.raw()))
        }
        MetaOp::Create { parent, .. } => {
            // The created inode's id (and hence dentry hash) is the next
            // arena slot.
            let next = InodeId::from_index(ns.len());
            (*parent, dentry_hash(next.raw()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::FixedStream;
    use lunule_namespace::FragKey;

    /// [`resolve_route_cached`] on `c`'s cache through a fresh
    /// [`AuthorityCache`].
    fn resolve(
        c: &Client,
        ns: &Namespace,
        map: &SubtreeMap,
        dir: InodeId,
        hash: u32,
    ) -> (Route, bool) {
        let mut route = Route::default();
        let hit = resolve_route_cached(
            &c.cache,
            ns,
            map,
            &mut AuthorityCache::new(),
            dir,
            hash,
            &mut route,
        );
        (route, hit)
    }

    fn setup() -> (Namespace, SubtreeMap, InodeId, InodeId) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let f = ns.create_file(d, "f", 1).unwrap();
        let map = SubtreeMap::new(MdsRank(0));
        (ns, map, d, f)
    }

    /// The two resolve implementations — live walk and tick-cached — must
    /// be observationally identical for every cache state (miss, fresh
    /// hit, stale hit), the `newest` bit included. The cohort engine
    /// resolves through the cached one, so this keeps its journals equal
    /// to the live-walk reference.
    #[test]
    fn resolve_variants_agree_on_every_cache_state() {
        let mut ns = Namespace::new();
        let mut map = SubtreeMap::new(MdsRank(0));
        let mut files = Vec::new();
        for i in 0..4 {
            let d = ns.mkdir(InodeId::ROOT, &format!("d{i}")).unwrap();
            let sub = ns.mkdir(d, "sub").unwrap();
            for j in 0..5 {
                files.push((sub, ns.create_file(sub, &format!("f{j}"), 1).unwrap()));
            }
            if i % 2 == 0 {
                map.set_authority(FragKey::whole(d), MdsRank(1));
            }
            if i == 1 {
                map.set_authority(FragKey::whole(sub), MdsRank(2));
            }
            if i >= 2 {
                // Two halves, so a directory caches two entries.
                ns.split_frag(sub, &Frag::root(), 1).unwrap();
            }
        }
        // Cache states: empty (miss), correct entry (fresh hit), wrong
        // entry (stale hit → one forward); on a split directory, each
        // beside the other half's entry, before and after it.
        let empty = BTreeMap::new();
        // Non-empty caches whose route read `newest` false and true.
        let mut newest = [0usize; 2];
        for &(dir, f) in &files {
            let hash = dentry_hash(f.raw());
            let frag = ns.frag_for_hash(dir, hash);
            let rank = resolve_route(&empty, &ns, &map, dir, hash).0.target;
            let mut states = vec![vec![(frag, rank)], vec![(frag, MdsRank(9))]];
            if let Some(other) = ns.frags_of(dir).into_iter().find(|o| *o != frag) {
                for mine in [(frag, rank), (frag, MdsRank(9))] {
                    states.push(vec![(other, rank), mine]);
                    states.push(vec![mine, (other, rank)]);
                }
            }
            let caches = states
                .into_iter()
                .map(|entries| BTreeMap::from([(dir, entries)]));
            for cache in std::iter::once(empty.clone()).chain(caches) {
                let live = resolve_route(&cache, &ns, &map, dir, hash);
                let mut auth = AuthorityCache::new();
                // A reused route with stale forwards must be overwritten.
                let mut route = Route {
                    target: MdsRank(7),
                    forwards: vec![MdsRank(5), MdsRank(6)],
                    frag: Frag::new(1, 1),
                    newest: true,
                };
                let hit = resolve_route_cached(&cache, &ns, &map, &mut auth, dir, hash, &mut route);
                if !cache.is_empty() {
                    newest[usize::from(route.newest)] += 1;
                }
                assert_eq!(live, (route, hit), "cached variant diverged");
            }
        }
        assert!(
            newest.iter().all(|&n| n > 0),
            "newest false/true: {newest:?}"
        );
    }

    #[test]
    fn resolve_learns_only_after_serve() {
        let (ns, map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        let hash = dentry_hash(f.raw());
        let (r1, hit1) = resolve(&c, &ns, &map, d, hash);
        assert!(!hit1);
        assert_eq!(r1.target, MdsRank(0));
        assert!(r1.forwards.is_empty(), "single-authority path: no forwards");
        // A retry before the op was served is still a miss (stalled ops must
        // keep paying their traversal when eventually served).
        let (_, hit_retry) = resolve(&c, &ns, &map, d, hash);
        assert!(!hit_retry);
        c.learn_route(d, &r1);
        let (r2, hit2) = resolve(&c, &ns, &map, d, hash);
        assert!(hit2);
        assert_eq!(
            r2,
            Route {
                target: MdsRank(0),
                forwards: vec![],
                frag: Frag::root(),
                newest: true,
            }
        );
    }

    #[test]
    fn stale_cache_entry_causes_redirect() {
        let (ns, mut map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        let hash = dentry_hash(f.raw());
        let (r0, _) = resolve(&c, &ns, &map, d, hash);
        c.learn_route(d, &r0);
        assert!(c.cache_len() > 0);
        map.set_authority(FragKey::whole(d), MdsRank(1));
        let (r, hit) = resolve(&c, &ns, &map, d, hash);
        assert!(!hit, "stale entry is not a hit");
        assert_eq!(r.target, MdsRank(1));
        // The stale rank 0 redirects the request: one forward.
        assert_eq!(r.forwards, vec![MdsRank(0)]);
    }

    #[test]
    fn cap_transfer_updates_cache_in_place() {
        let (ns, mut map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        let hash = dentry_hash(f.raw());
        let (r0, _) = resolve(&c, &ns, &map, d, hash);
        c.learn_route(d, &r0);
        map.set_authority(FragKey::whole(d), MdsRank(1));
        let mut memo = HandoffMemo::default();
        memo.begin(&ns, [(FragKey::whole(d), MdsRank(1))].into_iter());
        c.apply_migrations(&ns, &mut memo);
        let (r, hit) = resolve(&c, &ns, &map, d, hash);
        assert!(hit, "cap transfer keeps the cache fresh");
        assert_eq!(r.target, MdsRank(1));
        assert!(r.forwards.is_empty());
    }

    #[test]
    fn cache_cap_evicts_fifo() {
        let mut ns = Namespace::new();
        let mut dirs = Vec::new();
        for i in 0..6 {
            let d = ns.mkdir(InodeId::ROOT, &format!("d{i}")).unwrap();
            let f = ns.create_file(d, "f", 1).unwrap();
            dirs.push((d, dentry_hash(f.raw())));
        }
        let map = SubtreeMap::new(MdsRank(0));
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        c.cache_cap = 4;
        for (d, h) in &dirs {
            let (route, _) = resolve(&c, &ns, &map, *d, *h);
            c.learn_route(*d, &route);
        }
        assert!(
            c.cache_len() <= 4,
            "cap must bound the cache: {}",
            c.cache_len()
        );
        assert!(c.cache_evictions > 0, "evictions must be counted");
        // The oldest entry was evicted: resolving it is a miss again.
        let (_, hit) = resolve(&c, &ns, &map, dirs[0].0, dirs[0].1);
        assert!(!hit);
        // The newest entry is still cached.
        let (_, hit) = resolve(&c, &ns, &map, dirs[5].0, dirs[5].1);
        assert!(hit);
    }

    #[test]
    fn rate_limiting_and_lifecycle() {
        let (ns, _map, _d, f) = setup();
        let mut c = Client::new(7, Box::new(FixedStream::new(vec![f])), 5);
        assert!(!c.can_issue(0, 10.0), "not started yet");
        assert!(c.can_issue(5, 10.0));
        assert_eq!(c.peek_op(&ns, 5), Some(MetaOp::Read(f)));
        assert_eq!(c.consume_op(7), 2, "stalled two ticks before serving");
        assert_eq!(c.ops_done, 1);
        assert_eq!(c.peek_op(&ns, 7), None);
        assert!(c.finished);
        assert!(!c.can_issue(6, 10.0));
    }

    #[test]
    fn pending_op_survives_stall() {
        let (ns, _map, _d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![f])), 0);
        // Peek twice without consuming: same op, stream not advanced.
        assert_eq!(c.peek_op(&ns, 0), Some(MetaOp::Read(f)));
        assert_eq!(c.peek_op(&ns, 3), Some(MetaOp::Read(f)));
        assert_eq!(c.consume_op(0), 0);
        assert!(c.peek_op(&ns, 4).is_none());
    }

    #[test]
    fn stalled_op_rerouted_when_target_rank_dies() {
        // Regression: a client stalls against rank 1, rank 1 crashes and
        // its subtree fails over to rank 2, and the buffered retry op must
        // re-resolve to the new authority — never route through (or to)
        // the dead rank.
        let (ns, mut map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![f])), 0);
        let hash = dentry_hash(f.raw());
        map.set_authority(FragKey::whole(d), MdsRank(1));
        let (r0, _) = resolve(&c, &ns, &map, d, hash);
        assert_eq!(r0.target, MdsRank(1));
        c.learn_route(d, &r0);
        // The op is buffered (stalled against rank 1, which is out of
        // budget), then rank 1 dies: the failover re-homes the subtree and
        // the simulation evicts the dead rank from every client cache.
        assert_eq!(c.peek_op(&ns, 3), Some(MetaOp::Read(f)));
        map.set_authority(FragKey::whole(d), MdsRank(2));
        c.forget_rank(MdsRank(1));
        // The buffered op is still pending, and its retry resolves to the
        // survivor with a fresh traversal — no forward via the dead rank.
        assert_eq!(c.peek_op(&ns, 4), Some(MetaOp::Read(f)));
        let (r, hit) = resolve(&c, &ns, &map, d, hash);
        assert!(!hit, "dead-rank entries were evicted, this is a miss");
        assert_eq!(r.target, MdsRank(2));
        assert!(
            !r.forwards.contains(&MdsRank(1)),
            "retry must not route through the crashed rank: {:?}",
            r.forwards
        );
    }

    #[test]
    fn routing_anchor_for_create_uses_next_id() {
        let (ns, _map, d, _f) = setup();
        let (dir, hash) = routing_anchor(&ns, &MetaOp::Create { parent: d, size: 0 });
        assert_eq!(dir, d);
        assert_eq!(hash, dentry_hash(InodeId::from_index(ns.len()).raw()));
    }

    #[test]
    fn codec_round_trips_cache_and_pending_op() {
        use lunule_util::codec::{Decoder, Encoder};
        let (ns, map, d, f) = setup();
        let ids = vec![f, f, f];
        let mut c = Client::new(3, Box::new(FixedStream::new(ids.clone())), 2);
        c.cache_cap = 7;
        c.data_window = 1024;
        let hash = dentry_hash(f.raw());
        let (r0, _) = resolve(&c, &ns, &map, d, hash);
        c.learn_route(d, &r0);
        assert_eq!(c.peek_op(&ns, 5), Some(MetaOp::Read(f)));
        assert_eq!(c.consume_op(6), 1);
        assert_eq!(c.peek_op(&ns, 7), Some(MetaOp::Read(f)));
        c.data_pending = 99;

        let mut e = Encoder::new();
        c.encode(&mut e);
        let bytes = e.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut back = Client::decode(&mut dec, Box::new(FixedStream::new(ids))).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.id, 3);
        assert_eq!(back.cache_cap, 7);
        assert_eq!(back.data_window, 1024);
        assert_eq!(back.data_pending, 99);
        assert_eq!(back.ops_done, 1);
        assert_eq!(back.starts_at, 2);
        assert_eq!(back.cache_len(), c.cache_len());
        // The buffered retry op survives with its first-attempt stamp.
        assert_eq!(back.peek_op(&ns, 9), Some(MetaOp::Read(f)));
        assert_eq!(back.consume_op(9), 2, "stamped at tick 7, served at 9");
        // The cache still answers and the stream resumes where it left off.
        let (_, hit) = resolve(&back, &ns, &map, d, hash);
        assert!(hit, "restored cache must answer");
        assert_eq!(back.peek_op(&ns, 9), Some(MetaOp::Read(f)), "third op");
        // Re-encoding the restored client is byte-identical.
        let mut e2 = Encoder::new();
        let mut dec = Decoder::new(&bytes);
        Client::decode(&mut dec, Box::new(FixedStream::new(vec![f, f, f])))
            .unwrap()
            .encode(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn codec_rejects_inconsistent_fifo_order() {
        use lunule_util::codec::{CodecError, Decoder, Encoder};
        let (_, _, d, _) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        c.learn_route(d, &Route::default());
        let mut e = Encoder::new();
        c.encode(&mut e);
        let mut bytes = e.into_bytes();
        // The FIFO holds exactly one dir id, sitting right before the 54
        // bytes of fixed-width trailer fields (issued 4 + finished 1 +
        // finished_at-none 1 + six u64 counters). Flip its low byte so it
        // no longer matches the cached directory.
        let at = bytes.len() - 54 - 8;
        bytes[at] ^= 0x01;
        let mut dec = Decoder::new(&bytes);
        let got = Client::decode(&mut dec, Box::new(FixedStream::new(vec![])));
        assert!(matches!(
            got,
            Err(CodecError::Invalid {
                what: "client.cache_order"
            })
        ));
    }

    #[test]
    fn data_pending_blocks_issuing() {
        let (_ns, _map, _d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![f])), 0);
        c.data_pending = 100;
        assert!(!c.can_issue(0, 10.0));
        c.data_pending = 0;
        assert!(c.can_issue(0, 10.0));
    }

    /// The batched hand-off against the per-job oracle, on random caches
    /// of whole-directory and fragment entries and batches whose jobs
    /// overlap: on nested fragments of one directory and on nested
    /// directories. One memo serves every case, so answers stamped by an
    /// earlier batch (and namespace) must be recomputed.
    #[test]
    fn batched_handoff_matches_per_job_apply() {
        let mut memo = HandoffMemo::default();
        let (mut same_dir, mut nested_dirs) = (0, 0);
        lunule_util::propcheck::run(256, |rng| {
            let (mut ns, dirs) = random_tree(rng);
            let pick = |rng: &mut lunule_util::DetRng, ns: &Namespace| {
                let dir = dirs[rng.gen_range(0..dirs.len())];
                let frags = ns.frags_of(dir);
                (dir, frags[rng.gen_range(0..frags.len())])
            };
            for _ in 0..rng.gen_range(0..6) {
                let (dir, frag) = pick(rng, &ns);
                if frag.bits() < 3 {
                    ns.split_frag(dir, &frag, 1).unwrap();
                }
            }
            let mut batched: Vec<Client> = (0..3)
                .map(|i| Client::new(i, Box::new(FixedStream::new(vec![])), 0))
                .collect();
            for c in &mut batched {
                for _ in 0..rng.gen_range(0..16) {
                    let (dir, frag) = pick(rng, &ns);
                    c.update_cache(dir, frag, MdsRank::from_index(rng.gen_range(0..4)));
                }
            }
            let mut per_job: Vec<Client> = batched.iter().map(|c| c.try_clone().unwrap()).collect();
            let mut jobs: Vec<(FragKey, MdsRank)> = Vec::new();
            for _ in 0..rng.gen_range(1..8) {
                let (mut dir, _) = pick(rng, &ns);
                if !jobs.is_empty() && rng.gen_ratio(0.3) {
                    dir = jobs[rng.gen_range(0..jobs.len())].0.dir;
                }
                // A live fragment, or the whole directory around them.
                let frags = ns.frags_of(dir);
                let live = frags[rng.gen_range(0..frags.len())];
                let frag = if rng.gen_bool() { live } else { Frag::root() };
                let to = MdsRank::from_index(rng.gen_range(0..6));
                jobs.push((FragKey { dir, frag }, to));
            }
            memo.begin(&ns, jobs.iter().copied());
            for c in &mut batched {
                c.apply_migrations(&ns, &mut memo);
            }
            for (key, to) in &jobs {
                for c in &mut per_job {
                    c.apply_migration(&ns, key, *to);
                }
            }
            for (b, p) in batched.iter().zip(&per_job) {
                assert_eq!(b.cache, p.cache);
                assert_eq!(b.cache_order, p.cache_order);
                assert_eq!(b.cache_count, p.cache_count);
            }
            let pairs = || {
                jobs.iter()
                    .flat_map(|a| jobs.iter().map(move |b| (a.0, b.0)))
            };
            same_dir += usize::from(pairs().any(|(a, b)| a != b && a.dir == b.dir));
            nested_dirs += usize::from(pairs().any(|(a, b)| ns.in_dirfrag(a.dir, &a.frag, b.dir)));
        });
        // The generator really overlaps jobs both ways.
        for (what, n) in [
            ("same-directory", same_dir),
            ("nested-directory", nested_dirs),
        ] {
            assert!(n >= 40, "only {n} of 256 batches had {what} overlaps");
        }
    }

    /// A random namespace of nested directories with files, a few of them
    /// empty: `(namespace, directories)`.
    fn random_tree(rng: &mut lunule_util::DetRng) -> (Namespace, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut dirs = vec![InodeId::ROOT];
        for d in 0..3 + rng.next_u64() % 10 {
            let parent = dirs[rng.gen_range(0..dirs.len())];
            let dir = ns.mkdir(parent, &format!("d{d}")).unwrap();
            for f in 0..rng.next_u64() % 6 {
                ns.create_file(dir, &format!("f{f}"), 1).unwrap();
            }
            dirs.push(dir);
        }
        (ns, dirs)
    }

    /// One random mutation of the namespace or the subtree map.
    fn mutate(
        rng: &mut lunule_util::DetRng,
        ns: &mut Namespace,
        map: &mut SubtreeMap,
        dirs: &[InodeId],
    ) {
        let dir = dirs[rng.gen_range(0..dirs.len())];
        let frags = ns.frags_of(dir);
        let frag = frags[rng.gen_range(0..frags.len())];
        let rank = MdsRank(u16::try_from(rng.next_u64() % 4).unwrap());
        match rng.next_u64() % 4 {
            0 => {
                let by = 1 + u8::try_from(rng.next_u64() % 2).unwrap();
                let _ = ns.split_frag(dir, &frag, by);
            }
            1 => {
                // A live fragment, or the one it was split from, so
                // entries nest.
                let key_frag = if rng.next_u64().is_multiple_of(2) || frag.is_root() {
                    frag
                } else {
                    Frag::new(frag.value() >> 1, frag.bits() - 1)
                };
                map.set_authority(
                    FragKey {
                        dir,
                        frag: key_frag,
                    },
                    rank,
                );
            }
            2 => {
                let entries = map.all_entries();
                if !entries.is_empty() {
                    map.clear_authority(entries[rng.gen_range(0..entries.len())].0);
                }
            }
            _ => {
                map.simplify(ns);
            }
        }
    }

    /// [`AuthorityCache::child_route`] against the live `resolve_child`
    /// walk, and the memoized route against the live route, with the memo
    /// primed before every mutation so a missed invalidation would show.
    /// The routes resolve against an empty cache and against a client's
    /// cache that learns each of them, so mutations leave it stale.
    #[test]
    fn child_route_matches_the_live_walk_across_mutations() {
        // Learned-cache routes that were fresh hits and stale ones, by
        // whether they read `newest`.
        let mut seen = [[0usize; 2]; 2];
        lunule_util::propcheck::run(48, |rng| {
            let (mut ns, dirs) = random_tree(rng);
            let mut map = SubtreeMap::new(MdsRank(0));
            let mut auth = AuthorityCache::new();
            let hashes: Vec<u32> = (0..24u64).map(dentry_hash).collect();
            let empty = BTreeMap::new();
            let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
            for _ in 0..24 {
                for &dir in &dirs {
                    for &hash in &hashes {
                        let dir_auth = map.authority(&ns, dir);
                        let live = (
                            ns.frag_for_hash(dir, hash),
                            resolve_child(&map, &ns, dir, hash, dir_auth),
                        );
                        assert_eq!(auth.child_route(&map, &ns, dir, hash), live);
                        let mut route = Route::default();
                        let hit = resolve_route_cached(
                            &empty, &ns, &map, &mut auth, dir, hash, &mut route,
                        );
                        assert_eq!((route, hit), resolve_route(&empty, &ns, &map, dir, hash));
                        let mut route = Route::default();
                        let hit = resolve_route_cached(
                            &c.cache, &ns, &map, &mut auth, dir, hash, &mut route,
                        );
                        let expected = resolve_route(&c.cache, &ns, &map, dir, hash);
                        assert_eq!((&route, hit), (&expected.0, expected.1));
                        if c.cache.contains_key(&dir) {
                            seen[usize::from(hit)][usize::from(route.newest)] += 1;
                        }
                        c.learn_route(dir, &route);
                    }
                }
                mutate(rng, &mut ns, &mut map, &dirs);
            }
        });
        // A stale route never reads `newest`: its entry names another rank.
        assert_eq!(seen[0][1], 0, "{seen:?}");
        assert!(
            seen[0][0] > 0 && seen[1][0] > 0 && seen[1][1] > 0,
            "stale, fresh older, fresh newest: {seen:?}"
        );
    }

    /// `learn_route`'s early return leaves the client exactly as always
    /// calling `update_cache` would, byte for byte, below and at the cap.
    /// Each route is resolved against the learning client's own cache, on
    /// a namespace and map that mutate (splits move an op's fragment,
    /// authority changes its rank).
    #[test]
    fn learn_fast_path_matches_update_cache() {
        use lunule_util::codec::Encoder;
        let encode = |c: &Client| {
            let mut e = Encoder::new();
            c.encode(&mut e);
            e.into_bytes()
        };
        for cap in [1, 3, 256] {
            lunule_util::propcheck::run(16, |rng| {
                let (mut ns, dirs) = random_tree(rng);
                let mut map = SubtreeMap::new(MdsRank(0));
                let mut fast = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
                let mut slow = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
                fast.cache_cap = cap;
                slow.cache_cap = cap;
                let mut last = (InodeId::ROOT, 0);
                for _ in 0..200 {
                    // Half the time re-learn the previous op's route.
                    if rng.next_u64().is_multiple_of(2) {
                        if rng.next_u64().is_multiple_of(4) {
                            mutate(rng, &mut ns, &mut map, &dirs);
                        }
                        let dir = dirs[rng.gen_range(0..dirs.len())];
                        last = (dir, dentry_hash(rng.next_u64() % 8));
                    }
                    let (dir, hash) = last;
                    let (route, _) = resolve(&fast, &ns, &map, dir, hash);
                    fast.learn_route(dir, &route);
                    slow.update_cache(dir, route.frag, route.target);
                    assert_eq!(encode(&fast), encode(&slow), "cap {cap}");
                }
            });
        }
    }

    /// The change-stamp contract: after each mutator the stamp has moved
    /// exactly when the encoded state after the id has changed. A learn
    /// the cache already ends with, a hand-off that rewrites no entry and
    /// a forgotten rank no entry names must leave it alone. (Only
    /// `notify_created` moves it unconditionally: what the stream does
    /// with the notification is the stream's business.)
    #[test]
    fn change_stamp_moves_exactly_when_the_encoding_changes() {
        use lunule_util::codec::Encoder;
        let state = |c: &Client| {
            let mut e = Encoder::new();
            c.encode(&mut e);
            (c.stamp(), e.bytes()[ENCODED_ID_LEN..].to_vec())
        };
        let mut memo = HandoffMemo::default();
        // Steps that moved the stamp and steps that left it, per mutator.
        let mut seen = [[0usize; 2]; 8];
        lunule_util::propcheck::run(64, |rng| {
            let (ns, dirs) = random_tree(rng);
            let pick = |rng: &mut lunule_util::DetRng| dirs[rng.gen_range(0..dirs.len())];
            let ops = (0..24).map(|_| pick(rng)).collect();
            let mut c = Client::new(0, Box::new(FixedStream::new(ops)), 0);
            c.cache_cap = 1 + rng.gen_range(0..4);
            let mut map = SubtreeMap::new(MdsRank(0));
            let mut last = (InodeId::ROOT, 0);
            for tick in 0..80 {
                let before = state(&c);
                let step = rng.gen_range(0..8);
                match step {
                    0 if !c.finished() => {
                        c.peek_op(&ns, tick);
                    }
                    1 if c.pending().is_some() => {
                        c.consume_op(tick);
                    }
                    2 => {
                        if rng.gen_bool() {
                            let dir = pick(rng);
                            let target = MdsRank::from_index(rng.gen_range(0..3));
                            map.set_authority(FragKey::whole(dir), target);
                            last = (dir, dentry_hash(rng.next_u64()));
                        }
                        let (route, _) = resolve(&c, &ns, &map, last.0, last.1);
                        c.learn_route(last.0, &route);
                    }
                    3 => {
                        let to = MdsRank::from_index(rng.gen_range(0..3));
                        memo.begin(&ns, std::iter::once((FragKey::whole(pick(rng)), to)));
                        c.apply_migrations(&ns, &mut memo);
                    }
                    4 => c.forget_rank(MdsRank::from_index(rng.gen_range(0..3))),
                    5 => c.start_tick(tick),
                    6 => c.add_data_debt(rng.gen_range(0..2) as u64),
                    7 => c.set_data_pending(rng.gen_range(0..2) as u64),
                    _ => continue,
                }
                let after = state(&c);
                let moved = after.0 != before.0;
                assert_eq!(moved, after.1 != before.1, "mutator {step} at tick {tick}");
                seen[step][usize::from(moved)] += 1;
            }
        });
        for (step, [held, moved]) in seen.iter().enumerate() {
            assert!(*moved > 0, "mutator {step} never changed the state");
            // Peek and consume always change what they touch.
            if step > 1 {
                assert!(*held > 0, "mutator {step} never left the state alone");
            }
        }
    }

    #[test]
    fn codec_rejects_overlapping_cache_entries() {
        use lunule_util::codec::{CodecError, Decoder, Encoder};
        let (_, _, d, _) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        c.learn_route(d, &Route::default());
        // Bypass learning to plant a root entry beside a half it contains.
        c.cache.insert(
            d,
            vec![(Frag::root(), MdsRank(0)), (Frag::new(1, 1), MdsRank(1))],
        );
        c.cache_count = 2;
        let mut e = Encoder::new();
        c.encode(&mut e);
        let bytes = e.into_bytes();
        let got = Client::decode(
            &mut Decoder::new(&bytes),
            Box::new(FixedStream::new(vec![])),
        );
        assert!(matches!(
            got,
            Err(CodecError::Invalid {
                what: "client.cache_entries"
            })
        ));
    }
}
