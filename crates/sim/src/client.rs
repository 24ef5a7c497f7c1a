//! Closed-loop client sessions with authority caching.
//!
//! Each client issues metadata ops back-to-back (closed loop, zero think
//! time) up to a per-second rate cap, stalling when its target MDS has no
//! capacity left this tick. Clients cache dirfrag→rank mappings (CephFS
//! clients cache the subtree map the same way); the cache is flushed
//! whenever the cluster's partition map changes, so traversals — and the
//! inter-MDS forwards they cause — resume right after every migration.

use crate::request::{MetaOp, OpStream};
use lunule_namespace::{
    dentry_hash, AuthorityCache, Frag, FragKey, InodeId, MdsRank, Namespace, SubtreeMap,
};
use lunule_util::convert::usize_to_u64;
use std::collections::BTreeMap;

/// Outcome of resolving an op's route.
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Rank that serves the op.
    pub target: MdsRank,
    /// Ranks that forward the request on a traversal (may repeat the
    /// target's predecessors; empty on a cache hit).
    pub forwards: Vec<MdsRank>,
}

/// Default maximum dirfrag→rank entries a client caches. CephFS clients
/// hold a bounded view of the subtree map; an unbounded cache would make
/// static pinning (Dir-Hash) artificially forward-free after warm-up,
/// hiding the traversal cost the paper measures in Fig. 14.
pub const CLIENT_CACHE_CAP: usize = 256;

/// One simulated client.
pub struct Client {
    /// Client index (stable across the run). Under the cohort engine this
    /// is the cohort's canonical id: the lowest member id.
    pub id: usize,
    pub(crate) stream: Box<dyn OpStream>,
    /// Op returned by the stream but not yet served (stall retry buffer),
    /// with the tick it was first attempted (for stall-latency tracking).
    pub(crate) pending: Option<(MetaOp, u64)>,
    /// Cached dirfrag→rank authority mappings.
    pub(crate) cache: BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    /// FIFO of cached directories for eviction when the cap is reached.
    pub(crate) cache_order: std::collections::VecDeque<InodeId>,
    /// Total cached entries (across all directories).
    pub(crate) cache_count: usize,
    /// Ops issued in the current tick (rate limiting).
    pub issued_this_tick: u32,
    /// True once `next_op` returned `None`.
    pub finished: bool,
    /// Tick at which the stream finished (metadata side).
    pub finished_at: Option<u64>,
    /// Bytes of data transfer still owed before the client may proceed
    /// (data-path model).
    pub data_pending: u64,
    /// Total metadata ops served for this client.
    pub ops_done: u64,
    /// Tick the client becomes active (for staged client arrival).
    pub starts_at: u64,
    /// Maximum cached dirfrag entries before FIFO eviction.
    pub cache_cap: usize,
    /// In-flight data window, bytes: the client stalls once `data_pending`
    /// exceeds this. Zero means every byte blocks immediately.
    pub data_window: u64,
    /// Cached dirfrag entries evicted by the FIFO cap over the client's
    /// lifetime — telemetry samples this to show when a run's working set
    /// outgrows the client cache.
    pub cache_evictions: u64,
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
        self.issued_this_tick += 1;
        self.ops_done += 1;
        tick.saturating_sub(first_attempt)
    }

    /// Forwards a created-inode notification to the stream.
    pub fn notify_created(&mut self, id: InodeId) {
        self.stream.on_created(id);
    }

    /// Plans the route for an op targeting the child of `dir` with dentry
    /// hash `hash` — read-only: the cache learns nothing until the op is
    /// actually served and [`Client::learn_route`] is called. (Learning on a
    /// stalled attempt would let the retry masquerade as a cache hit and
    /// hide the traversal's forwarding work from the accounting.)
    ///
    /// Cache semantics mirror CephFS clients: a cached dirfrag→rank mapping
    /// is used optimistically; if it has gone stale (the subtree migrated),
    /// the stale MDS *redirects* the request — one forward charged at the
    /// stale rank. Only genuinely unknown dirfrags pay a full path
    /// traversal from the root.
    ///
    /// Returns the route and whether it was a (fresh) cache hit.
    pub fn resolve(
        &self,
        ns: &Namespace,
        map: &SubtreeMap,
        dir: InodeId,
        hash: u32,
    ) -> (Route, bool) {
        resolve_route(&self.cache, ns, map, dir, hash)
    }

    /// [`Client::resolve`] through a tick-scoped [`AuthorityCache`]: same
    /// route, amortized-O(1) authority lookups. The serial issue paths
    /// thread the simulation's shared cache through here.
    pub(crate) fn resolve_with(
        &self,
        ns: &Namespace,
        map: &SubtreeMap,
        auth: &mut AuthorityCache,
        dir: InodeId,
        hash: u32,
    ) -> (Route, bool) {
        resolve_route_cached(&self.cache, ns, map, auth, dir, hash)
    }
}

/// [`Client::resolve`] as a free function over the bare route cache:
/// the uncached live-walk reference the memoized
/// [`resolve_route_cached`] must agree with.
pub(crate) fn resolve_route(
    cache: &BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    ns: &Namespace,
    map: &SubtreeMap,
    dir: InodeId,
    hash: u32,
) -> (Route, bool) {
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
        if true_auth == cached_rank {
            return (
                Route {
                    target: cached_rank,
                    forwards: Vec::new(),
                },
                true,
            );
        }
        return (
            Route {
                target: true_auth,
                forwards: vec![cached_rank],
            },
            false,
        );
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
    (
        Route {
            target: final_auth,
            forwards,
        },
        false,
    )
}

/// [`resolve_route`] with authority lookups memoized in `auth`. Produces
/// the identical `(Route, hit)` — the memo replays the exact
/// [`SubtreeMap::authority`] recurrence and invalidates on every map
/// generation bump — without the per-op root-to-dir walk.
pub(crate) fn resolve_route_cached(
    cache: &BTreeMap<InodeId, Vec<(Frag, MdsRank)>>,
    ns: &Namespace,
    map: &SubtreeMap,
    auth: &mut AuthorityCache,
    dir: InodeId,
    hash: u32,
) -> (Route, bool) {
    let cached = cache.get(&dir).and_then(|entries| {
        entries
            .iter()
            .filter(|(f, _)| f.contains_hash(hash))
            .max_by_key(|(f, _)| f.bits())
            .map(|(_, r)| *r)
    });
    if let Some(cached_rank) = cached {
        let dir_auth = auth.authority(map, ns, dir);
        let true_auth = resolve_child(map, ns, dir, hash, dir_auth);
        if true_auth == cached_rank {
            return (
                Route {
                    target: cached_rank,
                    forwards: Vec::new(),
                },
                true,
            );
        }
        return (
            Route {
                target: true_auth,
                forwards: vec![cached_rank],
            },
            false,
        );
    }
    let auths = auth.chain(map, ns, dir);
    let dir_auth = auths.last().copied().unwrap_or_else(|| map.root_rank());
    let final_auth = resolve_child(map, ns, dir, hash, dir_auth);
    let mut forwards = Vec::new();
    for w in auths.windows(2) {
        if w[0] != w[1] {
            forwards.push(w[0]);
        }
    }
    if dir_auth != final_auth {
        forwards.push(dir_auth);
    }
    (
        Route {
            target: final_auth,
            forwards,
        },
        false,
    )
}

impl Client {
    /// Records the resolved authority for `(dir, hash)` once the op was
    /// served (the reply carries the authoritative rank).
    pub fn learn_route(&mut self, ns: &Namespace, dir: InodeId, hash: u32, rank: MdsRank) {
        let frag = ns.frag_for_hash(dir, hash);
        self.update_cache(dir, frag, rank);
    }

    /// Replaces the cached rank for `(dir, frag)`, discarding entries the
    /// new fragment supersedes (stale coarser or finer fragments) and
    /// evicting the oldest directories once the cap is reached.
    fn update_cache(&mut self, dir: InodeId, frag: Frag, rank: MdsRank) {
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

    /// Applies a completed subtree migration to the cache: entries covered
    /// by the migrated dirfrag switch to the importer in place. This models
    /// CephFS's cap/session transfer — clients actively working in a
    /// subtree are handed to the importer at commit rather than discovering
    /// the move via a redirect.
    pub fn apply_migration(&mut self, ns: &Namespace, subtree: &FragKey, new_rank: MdsRank) {
        for (dir, entries) in self.cache.iter_mut() {
            if *dir == subtree.dir {
                for (f, r) in entries.iter_mut() {
                    if subtree.frag.contains_frag(f) {
                        *r = new_rank;
                    }
                }
            } else if dir_inside_subtree(ns, *dir, subtree) {
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
        self.cache_count -= removed;
        self.cache_order.retain(|d| self.cache.contains_key(d));
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
        })
    }

    /// The client's complete dynamic state as snapshot bytes, *excluding*
    /// the id prefix. Two cohorts whose members have re-converged compare
    /// equal here even though their canonical ids differ.
    pub(crate) fn state_bytes_sans_id(&self) -> Vec<u8> {
        let mut e = lunule_util::codec::Encoder::new();
        self.encode(&mut e);
        let bytes = e.into_bytes();
        // `encode` writes the id first as a fixed-width u64.
        bytes[8..].to_vec()
    }

    /// Serialises the client's complete dynamic state — buffered retry op,
    /// authority cache (with its FIFO eviction order), lifecycle flags and
    /// counters — plus the wrapped op stream's own state, for a snapshot
    /// section.
    pub(crate) fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_usize(self.id);
        let mut se = lunule_util::codec::Encoder::new();
        self.stream.save_state(&mut se);
        e.put_bytes(&se.into_bytes());
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
            if entries.is_empty() {
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
        })
    }
}

/// True when directory `dir` lies strictly inside the subtree rooted at
/// `subtree` (i.e. one of `dir`'s ancestors-or-self is a child of
/// `subtree.dir` whose dentry hash falls in `subtree.frag`).
fn dir_inside_subtree(ns: &Namespace, dir: InodeId, subtree: &FragKey) -> bool {
    let chain = ns.path_chain(dir);
    for w in chain.windows(2) {
        if w[0] == subtree.dir {
            return subtree.frag.contains_hash(dentry_hash(w[1].raw()));
        }
    }
    false
}

/// Authority of the would-be child of `dir` with dentry hash `hash`, given
/// the directory's own resolved authority.
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

    fn setup() -> (Namespace, SubtreeMap, InodeId, InodeId) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let f = ns.create_file(d, "f", 1).unwrap();
        let map = SubtreeMap::new(MdsRank(0));
        (ns, map, d, f)
    }

    /// The two resolve implementations — live walk and tick-cached — must
    /// be observationally identical for every cache state (miss, fresh
    /// hit, stale hit). The cohort engine resolves through the cached one,
    /// so this keeps its journals equal to the live-walk reference.
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
        }
        // Three cache states: empty (miss), correct entry (fresh hit),
        // wrong entry (stale hit → one forward).
        let empty = BTreeMap::new();
        for &(dir, f) in &files {
            let hash = dentry_hash(f.raw());
            let mut fresh = BTreeMap::new();
            fresh.insert(
                dir,
                vec![(ns.frag_for_hash(dir, hash), map.authority(&ns, f))],
            );
            let mut stale = BTreeMap::new();
            stale.insert(dir, vec![(ns.frag_for_hash(dir, hash), MdsRank(9))]);
            for cache in [&empty, &fresh, &stale] {
                let live = resolve_route(cache, &ns, &map, dir, hash);
                let mut auth = AuthorityCache::new();
                let cached = resolve_route_cached(cache, &ns, &map, &mut auth, dir, hash);
                assert_eq!(live, cached, "cached variant diverged");
            }
        }
    }

    #[test]
    fn resolve_learns_only_after_serve() {
        let (ns, map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        let hash = dentry_hash(f.raw());
        let (r1, hit1) = c.resolve(&ns, &map, d, hash);
        assert!(!hit1);
        assert_eq!(r1.target, MdsRank(0));
        assert!(r1.forwards.is_empty(), "single-authority path: no forwards");
        // A retry before the op was served is still a miss (stalled ops must
        // keep paying their traversal when eventually served).
        let (_, hit_retry) = c.resolve(&ns, &map, d, hash);
        assert!(!hit_retry);
        c.learn_route(&ns, d, hash, r1.target);
        let (r2, hit2) = c.resolve(&ns, &map, d, hash);
        assert!(hit2);
        assert_eq!(
            r2,
            Route {
                target: MdsRank(0),
                forwards: vec![]
            }
        );
    }

    #[test]
    fn stale_cache_entry_causes_redirect() {
        let (ns, mut map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        let hash = dentry_hash(f.raw());
        let (r0, _) = c.resolve(&ns, &map, d, hash);
        c.learn_route(&ns, d, hash, r0.target);
        assert!(c.cache_len() > 0);
        map.set_authority(FragKey::whole(d), MdsRank(1));
        let (r, hit) = c.resolve(&ns, &map, d, hash);
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
        let (r0, _) = c.resolve(&ns, &map, d, hash);
        c.learn_route(&ns, d, hash, r0.target);
        map.set_authority(FragKey::whole(d), MdsRank(1));
        c.apply_migration(&ns, &FragKey::whole(d), MdsRank(1));
        let (r, hit) = c.resolve(&ns, &map, d, hash);
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
            c.learn_route(&ns, *d, *h, MdsRank(0));
        }
        assert!(
            c.cache_len() <= 4,
            "cap must bound the cache: {}",
            c.cache_len()
        );
        assert!(c.cache_evictions > 0, "evictions must be counted");
        // The oldest entry was evicted: resolving it is a miss again.
        let (_, hit) = c.resolve(&ns, &map, dirs[0].0, dirs[0].1);
        assert!(!hit);
        // The newest entry is still cached.
        let (_, hit) = c.resolve(&ns, &map, dirs[5].0, dirs[5].1);
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
        let (r0, _) = c.resolve(&ns, &map, d, hash);
        assert_eq!(r0.target, MdsRank(1));
        c.learn_route(&ns, d, hash, r0.target);
        // The op is buffered (stalled against rank 1, which is out of
        // budget), then rank 1 dies: the failover re-homes the subtree and
        // the simulation evicts the dead rank from every client cache.
        assert_eq!(c.peek_op(&ns, 3), Some(MetaOp::Read(f)));
        map.set_authority(FragKey::whole(d), MdsRank(2));
        c.forget_rank(MdsRank(1));
        // The buffered op is still pending, and its retry resolves to the
        // survivor with a fresh traversal — no forward via the dead rank.
        assert_eq!(c.peek_op(&ns, 4), Some(MetaOp::Read(f)));
        let (r, hit) = c.resolve(&ns, &map, d, hash);
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
        let (r0, _) = c.resolve(&ns, &map, d, hash);
        c.learn_route(&ns, d, hash, r0.target);
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
        let (_, hit) = back.resolve(&ns, &map, d, hash);
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
        let (ns, _map, d, f) = setup();
        let mut c = Client::new(0, Box::new(FixedStream::new(vec![])), 0);
        c.learn_route(&ns, d, dentry_hash(f.raw()), MdsRank(0));
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
}
