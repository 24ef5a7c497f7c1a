//! # lunule-telemetry
//!
//! The observability substrate of the Lunule stack: a dependency-light
//! metrics registry (counters, gauges, fixed-bucket histograms) plus a
//! structured, typed event journal, all carried on the **simulator's
//! deterministic clock** — never wall time — so two runs with the same seed
//! produce byte-identical traces.
//!
//! The central type is the [`Telemetry`] handle. It is a cheap clone
//! (`Option<Arc<Mutex<..>>>` inside) that every layer of the stack holds:
//! the simulator stamps the clock and emits cluster events, the balancer
//! records decision phases as nested [`Span`]s, and the migrator journals
//! migration lifecycles. A [`Telemetry::disabled`] handle keeps the hot
//! path allocation-free — every recording method is a single `None` check —
//! so default runs pay approximately nothing.
//!
//! Three exporters turn a collected run into files (see [`export`]):
//!
//! * **JSONL** event log — one [`EventRecord`] per line;
//! * **CSV** metric time-series — long-format `kind,name,label,tick,value`;
//! * **Chrome `trace_event` JSON** — loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev): spans become B/E pairs, events
//!   become instants, gauges become counter tracks.
//!
//! Determinism rule: event timestamps are `(tick, seq)` where `seq` is the
//! intra-tick emission index. Exported Chrome timestamps are synthesised as
//! `tick * 1_000_000 + seq` microseconds; no `SystemTime`/`Instant` is read
//! anywhere in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;

pub use event::{Event, EventRecord};
pub use export::{
    chrome_trace, events_jsonl, export_all, metrics_csv, parse_events_jsonl, span_trace,
    validate_chrome_trace, WallSpan,
};
pub use metrics::{FixedHistogram, MetricsRegistry};

use std::sync::{Arc, Mutex, MutexGuard};

/// Everything a run collected: drained by the exporters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The event journal, in emission order.
    pub events: Vec<EventRecord>,
    /// Counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// The last simulated tick the clock was advanced to.
    pub last_tick: u64,
}

/// The mutable state behind an enabled handle.
#[derive(Debug, Default)]
struct Collector {
    /// Current simulated time, set by the simulator once per tick.
    clock: u64,
    /// Intra-tick emission index; resets when the clock advances.
    seq: u64,
    events: Vec<EventRecord>,
    metrics: MetricsRegistry,
}

/// A shared handle onto one run's telemetry collector.
///
/// Clones are cheap and all point at the same collector, so the simulator,
/// balancer, and migrator can each hold one. A disabled handle (the
/// default) turns every method into a branch on `None`.
///
/// Every recording call applies directly to the collector under its
/// mutex, so each sample is stamped with the clock in effect at the call
/// and gauge series follow call order. The per-served-op records, the
/// only ones frequent enough to matter, are aggregated by the caller and
/// handed over once per tick through [`Telemetry::record_batch`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Collector>>>,
}

/// One entry of a [`Telemetry::record_batch`] flush: the two hot-path
/// metric kinds whose records are associative and therefore batchable.
/// Gauges are excluded on purpose — their series order is observable, so
/// they must go through the ordered per-record path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricRecord {
    /// `counter_add_labeled(name, label, delta)`.
    Counter {
        /// Counter name (a string literal at the call site).
        name: &'static str,
        /// Label dimension, e.g. an MDS rank.
        label: u32,
        /// Amount to add.
        delta: u64,
    },
    /// `histogram_record_n(name, value, count)`.
    Histogram {
        /// Histogram name (a string literal at the call site).
        name: &'static str,
        /// Sample value.
        value: u64,
        /// How many times the sample occurred.
        count: u64,
    },
}

impl Telemetry {
    /// A no-op handle: every recording call returns immediately without
    /// locking or allocating. This is the default for all simulations.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle with an empty collector at tick 0.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Collector::default()))),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Locks the collector, recovering from poisoning (a panicking sim
    /// thread must not silently discard the journal collected so far).
    fn lock(inner: &Arc<Mutex<Collector>>) -> MutexGuard<'_, Collector> {
        inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Applies `f` to the collector under its lock; a no-op when disabled.
    #[inline]
    fn record(&self, f: impl FnOnce(&mut Collector)) {
        let Some(inner) = &self.inner else { return };
        f(&mut Self::lock(inner));
    }

    /// Applies a pre-coalesced batch of metric records under a single
    /// lock. This is the tick-boundary flush path: a caller that
    /// aggregated a tick's worth of hot records locally (see the
    /// simulator's per-tick op ledger) hands them over in one acquisition
    /// instead of one per record. State afterwards is identical to
    /// recording each entry individually — counters and histograms are
    /// associative and the registry keys them in sorted maps, so batch
    /// order is unobservable.
    pub fn record_batch(&self, records: impl IntoIterator<Item = MetricRecord>) {
        let Some(inner) = &self.inner else { return };
        let mut c = Self::lock(inner);
        for r in records {
            match r {
                MetricRecord::Counter { name, label, delta } => {
                    c.metrics.counter_add(name, label, delta);
                }
                MetricRecord::Histogram { name, value, count } => {
                    c.metrics.histogram_record_n(name, value, count);
                }
            }
        }
    }

    /// Advances the deterministic clock. The simulator calls this once per
    /// tick; every event and metric sample recorded afterwards is stamped
    /// with `tick`. Resets the intra-tick sequence counter.
    pub fn set_clock(&self, tick: u64) {
        let Some(inner) = &self.inner else { return };
        let mut c = Self::lock(inner);
        if tick != c.clock {
            c.clock = tick;
            c.seq = 0;
        }
    }

    /// Appends one event to the journal, stamped with the current clock.
    /// The closure is only evaluated when the handle is enabled, so call
    /// sites that build strings or vectors stay free on the disabled path.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        let Some(inner) = &self.inner else { return };
        let mut c = Self::lock(inner);
        let record = EventRecord {
            t: c.clock,
            seq: c.seq,
            event: make(),
        };
        c.seq += 1;
        c.events.push(record);
    }

    /// Opens a named phase span: a `PhaseBegin` event now, and a matching
    /// `PhaseEnd` when the returned guard drops. Spans nest by emission
    /// order within a tick, which is exactly how the Chrome trace exporter
    /// reconstructs them.
    pub fn span(&self, name: &'static str) -> Span {
        self.emit(|| Event::PhaseBegin { name: name.into() });
        Span {
            tel: self.clone(),
            name,
        }
    }

    /// Adds `delta` to the counter `name` (label 0).
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.record(|c| c.metrics.counter_add(name, 0, delta));
    }

    /// Adds `delta` to the counter `name` for one label (e.g. an MDS rank).
    #[inline]
    pub fn counter_add_labeled(&self, name: &'static str, label: u32, delta: u64) {
        self.record(|c| c.metrics.counter_add(name, label, delta));
    }

    /// Current value of counter `name` summed over all labels (0 when the
    /// counter was never touched or the handle is disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        Self::lock(inner).metrics.counter_total(name)
    }

    /// Records one sample of the gauge `name` for `label` at the current
    /// clock, appending to that gauge's time series.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, label: u32, value: f64) {
        self.record(|c| c.metrics.gauge_set(name, label, c.clock, value));
    }

    /// Records `value` into the fixed-bucket histogram `name`.
    #[inline]
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.record(|c| c.metrics.histogram_record(name, value));
    }

    /// Records `value` into the fixed-bucket histogram `name`, `n` times,
    /// identically to `n` sequential [`Telemetry::histogram_record`] calls.
    #[inline]
    pub fn histogram_record_n(&self, name: &'static str, value: u64, n: u64) {
        self.record(|c| c.metrics.histogram_record_n(name, value, n));
    }

    /// Number of journal events whose [`Event::kind`] equals `kind`.
    /// Used by the invariant checker to reconcile the migration ledger.
    pub fn count_kind(&self, kind: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        Self::lock(inner)
            .events
            .iter()
            .filter(|r| r.event.kind() == kind)
            .count() as u64
    }

    /// Copies every journal event recorded at or after index `cursor` and
    /// returns it with the new cursor (the total journal length). This is
    /// the streaming interface for live subscribers (the daemon event
    /// bus): repeated calls with the returned cursor see each event exactly
    /// once, in emission order, without draining the journal — exporters
    /// still see the full run. A disabled handle yields no events and a
    /// zero cursor.
    pub fn events_since(&self, cursor: usize) -> (Vec<EventRecord>, usize) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), 0);
        };
        let c = Self::lock(inner);
        let end = c.events.len();
        if cursor >= end {
            return (Vec::new(), end);
        }
        (c.events[cursor..].to_vec(), end)
    }

    /// The collector's current `(clock, seq)` stamping position. Snapshots
    /// persist this so a restored run keeps stamping from exactly where the
    /// original stopped — `(0, 0)` for a disabled handle.
    pub fn clock_position(&self) -> (u64, u64) {
        let Some(inner) = &self.inner else {
            return (0, 0);
        };
        let c = Self::lock(inner);
        (c.clock, c.seq)
    }

    /// Restores the stamping position saved by
    /// [`Telemetry::clock_position`]. Unlike [`Telemetry::set_clock`] this
    /// sets the intra-tick sequence too, so events emitted right after a
    /// restore continue the original numbering instead of restarting at
    /// `seq = 0`. No-op on a disabled handle.
    pub fn restore_clock_position(&self, clock: u64, seq: u64) {
        let Some(inner) = &self.inner else { return };
        let mut c = Self::lock(inner);
        c.clock = clock;
        c.seq = seq;
    }

    /// A deep copy of everything collected so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let c = Self::lock(inner);
        Some(Snapshot {
            events: c.events.clone(),
            metrics: c.metrics.clone(),
            last_tick: c.clock,
        })
    }

    /// Exports the three artifact files into `dir` with the stem `label`:
    /// `<label>.events.jsonl`, `<label>.metrics.csv`, `<label>.trace.json`.
    /// Returns the paths written; a disabled handle writes nothing.
    pub fn export(
        &self,
        dir: &std::path::Path,
        label: &str,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        match self.snapshot() {
            Some(snap) => export::export_all(&snap, dir, label),
            None => Ok(Vec::new()),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

/// Handles compare by enabled-ness only, so configuration structs holding a
/// handle keep a meaningful `PartialEq` (two disabled configs are equal).
impl PartialEq for Telemetry {
    fn eq(&self, other: &Self) -> bool {
        self.is_enabled() == other.is_enabled()
    }
}

/// RAII guard for a phase span: emits `PhaseEnd` when dropped.
pub struct Span {
    tel: Telemetry,
    name: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        let name = self.name;
        self.tel.emit(|| Event::PhaseEnd { name: name.into() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.set_clock(5);
        t.emit(|| Event::TickStart);
        t.counter_add("x", 3);
        t.gauge_set("g", 0, 1.0);
        t.histogram_record("h", 9);
        assert!(!t.is_enabled());
        assert_eq!(t.counter_value("x"), 0);
        assert_eq!(t.count_kind("tick_start"), 0);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn events_are_stamped_with_clock_and_sequence() {
        let t = Telemetry::enabled();
        t.emit(|| Event::TickStart);
        t.set_clock(7);
        t.emit(|| Event::MdsAdd { rank: 3 });
        t.emit(|| Event::TickStart);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.events.len(), 3);
        assert_eq!((snap.events[0].t, snap.events[0].seq), (0, 0));
        assert_eq!((snap.events[1].t, snap.events[1].seq), (7, 0));
        assert_eq!((snap.events[2].t, snap.events[2].seq), (7, 1));
        assert_eq!(snap.last_tick, 7);

        // Gauge samples are stamped with the clock in effect at the call,
        // and the series keeps call order across clock changes.
        t.gauge_set("g", 0, 1.0);
        t.set_clock(8);
        t.gauge_set("g", 0, 2.0);
        t.gauge_set("g", 0, 3.0);
        t.restore_clock_position(9, 4);
        t.gauge_set("g", 0, 4.0);
        let series: Vec<(u64, f64)> = t
            .snapshot()
            .unwrap()
            .metrics
            .gauges()
            .find(|(n, l, _)| *n == "g" && *l == 0)
            .map(|(_, _, s)| s.to_vec())
            .unwrap();
        assert_eq!(series, vec![(7, 1.0), (8, 2.0), (8, 3.0), (9, 4.0)]);

        // A burst of metric calls keeps exact counter and histogram totals.
        let n = 10_000u64;
        for i in 0..n {
            t.counter_add_labeled("burst.ops", u32::from(i % 3 == 0), 1);
            t.histogram_record("burst.hist", i % 7);
        }
        t.histogram_record_n("burst.hist", 3, 5);
        let metrics = t.snapshot().unwrap().metrics;
        assert_eq!(metrics.counter_get("burst.ops", 1), n.div_ceil(3));
        assert_eq!(metrics.counter_total("burst.ops"), n);
        let h = metrics.histogram("burst.hist").unwrap();
        assert_eq!(h.count(), n + 5);
        assert_eq!(h.sum(), (0..n).map(|i| i % 7).sum::<u64>() + 15);
    }

    #[test]
    fn clones_share_one_collector() {
        let a = Telemetry::enabled();
        let b = a.clone();
        a.counter_add("shared", 2);
        b.counter_add("shared", 5);
        assert_eq!(a.counter_value("shared"), 7);
    }

    #[test]
    fn spans_nest_by_emission_order() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("epoch");
            let _inner = t.span("select");
        }
        let snap = t.snapshot().unwrap();
        let kinds: Vec<String> = snap
            .events
            .iter()
            .map(|r| format!("{}:{}", r.event.kind(), r.seq))
            .collect();
        assert_eq!(
            kinds,
            vec![
                "phase_begin:0",
                "phase_begin:1",
                "phase_end:2",
                "phase_end:3"
            ]
        );
    }

    #[test]
    fn count_kind_filters_the_journal() {
        let t = Telemetry::enabled();
        t.emit(|| Event::MigrationStart {
            from: 0,
            to: 1,
            dir: 2,
            frag_value: 0,
            frag_bits: 0,
            inodes: 10,
        });
        t.emit(|| Event::TickStart);
        assert_eq!(t.count_kind("migration_start"), 1);
        assert_eq!(t.count_kind("migration_commit"), 0);
    }

    #[test]
    fn events_since_streams_each_event_exactly_once() {
        let t = Telemetry::enabled();
        t.emit(|| Event::TickStart);
        t.emit(|| Event::MdsAdd { rank: 1 });
        let (batch, cur) = t.events_since(0);
        assert_eq!(batch.len(), 2);
        assert_eq!(cur, 2);
        let (empty, cur2) = t.events_since(cur);
        assert!(empty.is_empty());
        assert_eq!(cur2, 2);
        t.emit(|| Event::TickStart);
        let (tail, cur3) = t.events_since(cur2);
        assert_eq!(tail.len(), 1);
        assert_eq!(cur3, 3);
        // Streaming never drains: the snapshot still holds the full run.
        assert_eq!(t.snapshot().unwrap().events.len(), 3);
        // Disabled handles stream nothing.
        assert_eq!(Telemetry::disabled().events_since(0), (Vec::new(), 0));
    }

    #[test]
    fn clock_position_round_trips_mid_tick() {
        let t = Telemetry::enabled();
        t.set_clock(9);
        t.emit(|| Event::TickStart);
        t.emit(|| Event::MdsAdd { rank: 0 });
        assert_eq!(t.clock_position(), (9, 2));
        // A fresh handle restored to that position continues the numbering.
        let fresh = Telemetry::enabled();
        fresh.restore_clock_position(9, 2);
        fresh.emit(|| Event::TickStart);
        let snap = fresh.snapshot().unwrap();
        assert_eq!((snap.events[0].t, snap.events[0].seq), (9, 2));
        // set_clock to the *same* tick must not reset the restored seq.
        let fresh2 = Telemetry::enabled();
        fresh2.restore_clock_position(9, 2);
        fresh2.set_clock(9);
        fresh2.emit(|| Event::TickStart);
        let snap2 = fresh2.snapshot().unwrap();
        assert_eq!((snap2.events[0].t, snap2.events[0].seq), (9, 2));
        // Disabled handles report the origin and ignore restores.
        let off = Telemetry::disabled();
        off.restore_clock_position(4, 4);
        assert_eq!(off.clock_position(), (0, 0));
    }

    #[test]
    fn equality_is_by_enabledness() {
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
        assert_eq!(Telemetry::enabled(), Telemetry::enabled());
        assert_ne!(Telemetry::enabled(), Telemetry::disabled());
    }
}
