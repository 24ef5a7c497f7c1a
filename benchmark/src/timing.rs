//! Timing delegates: wrappers that sit between the simulator and one layer
//! (the balancer, the workload op streams, the daemon's event-bus
//! subscribers), forward every call unchanged, and record how long the
//! calls took on a clock shared with the tick loop.
//!
//! Coarse calls (`on_epoch`, a subscriber's `on_events`) are kept as spans;
//! per-op calls (`record_access*`, `next_op`) would be millions of spans,
//! so they only add to counters the tick loop reads once per tick.

use lunule_core::{Access, Balancer, EpochStats, MigrationPlan};
use lunule_daemon::{StatusSnapshot, Subscriber};
use lunule_namespace::{InodeId, Namespace, SubtreeMap};
use lunule_sim::{MetaOp, OpStream};
use lunule_telemetry::{EventRecord, Telemetry};
use lunule_util::codec::{CodecError, Decoder, Encoder};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Busy time and work done by one layer. The atomics carry statistics
/// only and publish no other data, so `Relaxed` suffices.
#[derive(Default)]
pub struct Counter {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

/// A snapshot of a [`Counter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Nanoseconds spent inside the layer.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// Items of work those calls covered (a batched call covers several).
    pub items: u64,
}

impl Counter {
    fn add(&self, since: Instant, items: u64) {
        self.ns.fetch_add(elapsed_ns(since), Relaxed);
        self.calls.fetch_add(1, Relaxed);
        self.items.fetch_add(items, Relaxed);
    }

    /// The totals so far.
    pub fn read(&self) -> Tally {
        Tally {
            ns: self.ns.load(Relaxed),
            calls: self.calls.load(Relaxed),
            items: self.items.load(Relaxed),
        }
    }
}

impl Tally {
    /// The work done between `earlier` and `self`.
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
            items: self.items - earlier.items,
        }
    }
}

/// Nanoseconds since `since`, saturating at `u64::MAX`.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed interval on the shared clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified span name, as it appears in `trace.json`.
    pub name: &'static str,
    /// Start, nanoseconds after the [`Layers`] recorder was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Everything the delegates of one run record.
pub struct Layers {
    origin: Instant,
    /// `Balancer::record_access` / `record_access_n`.
    pub record_access: Counter,
    /// `OpStream::next_op`.
    pub next_op: Counter,
    /// `Subscriber::on_events`.
    pub publish: Counter,
    /// Subtrees in the plans `on_epoch` returned.
    pub plan_subtrees: AtomicU64,
    /// Coarse spans (`core.on_epoch`, `daemon.publish`) not yet claimed by
    /// the tick loop.
    spans: Mutex<Vec<Span>>,
}

impl Layers {
    /// A fresh recorder whose clock starts now.
    pub fn new() -> Arc<Layers> {
        Arc::new(Layers {
            origin: Instant::now(),
            record_access: Counter::default(),
            next_op: Counter::default(),
            publish: Counter::default(),
            plan_subtrees: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds between the recorder's creation and `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push_span(&self, name: &'static str, start: Instant) {
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            dur_ns: elapsed_ns(start),
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Removes and returns the spans recorded since the last call.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Times `record_access*` and `on_epoch` of the wrapped policy.
pub struct TimedBalancer {
    inner: Box<dyn Balancer>,
    layers: Arc<Layers>,
}

impl TimedBalancer {
    /// Wraps `inner`, recording into `layers`.
    pub fn wrap(inner: Box<dyn Balancer>, layers: Arc<Layers>) -> Box<dyn Balancer> {
        Box::new(TimedBalancer { inner, layers })
    }
}

impl Balancer for TimedBalancer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, ns: &Namespace, map: &mut SubtreeMap, n_mds: usize) {
        self.inner.setup(ns, map, n_mds);
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn set_knob(&mut self, name: &str, value: f64) -> bool {
        self.inner.set_knob(name, value)
    }

    fn record_access(&mut self, ns: &Namespace, access: Access) {
        let start = Instant::now();
        self.inner.record_access(ns, access);
        self.layers.record_access.add(start, 1);
    }

    fn record_access_n(&mut self, ns: &Namespace, access: Access, n: u64) {
        let start = Instant::now();
        self.inner.record_access_n(ns, access, n);
        self.layers.record_access.add(start, n);
    }

    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, stats: &EpochStats) -> MigrationPlan {
        let start = Instant::now();
        let plan = self.inner.on_epoch(ns, map, stats);
        self.layers.push_span("core.on_epoch", start);
        self.layers
            .plan_subtrees
            .fetch_add(plan.subtree_count() as u64, Relaxed);
        plan
    }

    fn save_state(&self, e: &mut Encoder) {
        self.inner.save_state(e);
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.inner.load_state(d)
    }
}

/// Times `next_op` of the wrapped stream. Clones stay wrapped, so a cohort
/// that splits keeps reporting into the same counters.
pub struct TimedStream {
    inner: Box<dyn OpStream>,
    layers: Arc<Layers>,
}

impl TimedStream {
    /// Wraps `inner`, recording into `layers`.
    pub fn wrap(inner: Box<dyn OpStream>, layers: Arc<Layers>) -> Box<dyn OpStream> {
        Box::new(TimedStream { inner, layers })
    }
}

impl OpStream for TimedStream {
    fn next_op(&mut self, ns: &Namespace) -> Option<MetaOp> {
        let start = Instant::now();
        let op = self.inner.next_op(ns);
        self.layers.next_op.add(start, 1);
        op
    }

    fn on_created(&mut self, id: InodeId) {
        self.inner.on_created(id);
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn save_state(&self, e: &mut Encoder) {
        self.inner.save_state(e);
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.inner.load_state(d)
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        let inner = self.inner.try_clone_box()?;
        Some(TimedStream::wrap(inner, Arc::clone(&self.layers)))
    }
}

/// Times `on_events` of the wrapped event-bus subscriber.
pub struct TimedSubscriber {
    inner: Box<dyn Subscriber>,
    layers: Arc<Layers>,
}

impl TimedSubscriber {
    /// Wraps `inner`, recording into `layers`.
    pub fn wrap(inner: Box<dyn Subscriber>, layers: Arc<Layers>) -> Box<dyn Subscriber> {
        Box::new(TimedSubscriber { inner, layers })
    }
}

impl Subscriber for TimedSubscriber {
    fn on_events(&mut self, batch: &[EventRecord]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.on_events(batch);
        self.layers.publish.add(start, batch.len() as u64);
        self.layers.push_span("daemon.publish", start);
        out
    }

    fn on_status(&mut self, status: &StatusSnapshot) -> io::Result<()> {
        self.inner.on_status(status)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}
