//! Per-tick operation ledger: the hot-path op metrics accumulated in
//! plain dense columns and flushed to telemetry once per tick.
//!
//! The serve loop used to push two telemetry records per served op
//! (`client.stall_ticks`, `ops.served`), which was the dominant share of
//! the enabled/disabled gap in the `telemetry_on`/`telemetry_off`
//! benches. Both metrics are associative (counter deltas add;
//! `histogram_record_n(v, a + b)` is defined as identical to recording
//! `a` then `b` samples), and the registry keys
//! them in `BTreeMap`s, so the order records reach the collector within
//! a tick is unobservable. That makes a tick's worth of ops free to
//! collapse into one flush: a per-rank served column plus a tiny
//! (value, count) run of stall samples, pushed at the end of the tick.
//!
//! The ledger is always empty between ticks — `flush` runs before the
//! tick counter advances — so snapshots never need to serialize it and
//! every between-tick reader (daemon RPCs, exporters, `counter_value`)
//! observes exactly the totals the per-op path would have produced.

use lunule_telemetry::{MetricRecord, Telemetry};
use lunule_util::convert::usize_to_u32;

/// Accumulates one tick's served-op metrics; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct TickOpLedger {
    /// Ops served this tick, indexed by MDS rank; grows on demand, so
    /// ranks added after construction are counted too.
    served: Vec<u64>,
    /// Stall samples this tick as `(stall_ticks, count)`, in first-seen
    /// order. Stalls cluster around zero and a few small backoff values,
    /// so a linear probe beats any keyed structure here.
    stalls: Vec<(u64, u64)>,
    /// True when anything was recorded since the last flush.
    dirty: bool,
}

impl TickOpLedger {
    /// Accounts `n` ops served by `rank` that each stalled for
    /// `stall_ticks` before being served.
    #[inline]
    pub fn record(&mut self, rank: usize, stall_ticks: u64, n: u64) {
        if n == 0 {
            return;
        }
        if rank >= self.served.len() {
            self.served.resize(rank + 1, 0);
        }
        self.served[rank] += n;
        match self.stalls.iter_mut().find(|(v, _)| *v == stall_ticks) {
            Some((_, c)) => *c += n,
            None => self.stalls.push((stall_ticks, n)),
        }
        self.dirty = true;
    }

    /// Pushes the tick's totals to `telemetry` and resets the ledger.
    /// Flush order is fixed (stall values in first-seen order, then
    /// ranks ascending), independent of the order ops were served in —
    /// legitimate because the collector keys both metrics in sorted
    /// maps, so identical totals mean identical observable state.
    pub fn flush(&mut self, telemetry: &Telemetry) {
        if !self.dirty {
            return;
        }
        telemetry.record_batch(
            self.stalls
                .iter()
                .map(|&(value, count)| MetricRecord::Histogram {
                    name: "client.stall_ticks",
                    value,
                    count,
                })
                .chain(self.served.iter().enumerate().filter(|(_, n)| **n > 0).map(
                    |(rank, &n)| MetricRecord::Counter {
                        name: "ops.served",
                        label: usize_to_u32(rank),
                        delta: n,
                    },
                )),
        );
        self.stalls.clear();
        self.served.fill(0);
        self.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_flush_matches_per_op_records() {
        // The same op stream recorded per-op and via the ledger must
        // leave identical collector state.
        let per_op = Telemetry::enabled();
        let ledger_tel = Telemetry::enabled();
        let mut ledger = TickOpLedger::default();
        let ops = [(0usize, 0u64, 1u64), (2, 3, 2), (0, 0, 1), (1, 3, 1)];
        for &(rank, stall, n) in &ops {
            per_op.histogram_record_n("client.stall_ticks", stall, n);
            per_op.counter_add_labeled("ops.served", usize_to_u32(rank), n);
            ledger.record(rank, stall, n);
        }
        ledger.flush(&ledger_tel);
        assert_eq!(
            per_op.counter_value("ops.served"),
            ledger_tel.counter_value("ops.served")
        );
        let (a, b) = (per_op.snapshot().unwrap(), ledger_tel.snapshot().unwrap());
        assert_eq!(
            lunule_telemetry::export::metrics_csv(&a),
            lunule_telemetry::export::metrics_csv(&b),
            "ledger flush must be byte-identical to per-op records"
        );
    }

    #[test]
    fn empty_and_zero_records_flush_nothing() {
        let tel = Telemetry::enabled();
        let mut ledger = TickOpLedger::default();
        ledger.record(0, 5, 0); // n == 0 is a no-op
        ledger.flush(&tel);
        assert_eq!(tel.counter_value("ops.served"), 0);
    }

    #[test]
    fn record_grows_served_for_added_rank() {
        // A rank past the ledger's current width (one added after
        // construction) grows the served column: both the served count
        // and the histogram sample land.
        let tel = Telemetry::enabled();
        let mut ledger = TickOpLedger::default();
        ledger.record(0, 1, 1);
        ledger.record(7, 2, 1);
        ledger.flush(&tel);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.metrics.counter_get("ops.served", 7), 1);
        assert_eq!(tel.counter_value("ops.served"), 2);
        assert_eq!(
            snap.metrics
                .histogram("client.stall_ticks")
                .unwrap()
                .count(),
            2
        );
    }
}
