//! Per-MDS capacity accounting.

/// One metadata server's runtime state.
///
/// An MDS is modelled purely as a request-processing budget: every served
/// request, forward, and migrated inode consumes part of the per-tick
/// budget, and whatever demand the budget cannot absorb stalls at the
/// clients — which is exactly how a saturated hot MDS throttles the cluster
/// in the paper's measurements.
#[derive(Clone, Debug)]
pub struct MdsState {
    /// Requests the MDS can process per simulated second.
    pub capacity: f64,
    /// Budget remaining in the current tick.
    pub budget: f64,
    /// Requests served (as final authority) in the current epoch.
    pub served_epoch: u64,
    /// Forwards performed in the current epoch.
    pub forwards_epoch: u64,
    /// Requests served over the whole run.
    pub served_total: u64,
    /// Forwards performed over the whole run.
    pub forwards_total: u64,
}

impl MdsState {
    /// New MDS with a full first-tick budget.
    pub fn new(capacity: f64) -> Self {
        MdsState {
            capacity,
            budget: capacity,
            served_epoch: 0,
            forwards_epoch: 0,
            served_total: 0,
            forwards_total: 0,
        }
    }

    /// Refills the budget at a tick boundary.
    pub fn refill(&mut self) {
        self.budget = self.capacity;
    }

    /// Refills to a scaled budget (memory-thrash degradation).
    pub fn refill_scaled(&mut self, factor: f64) {
        self.budget = self.capacity * factor;
    }

    /// Attempts to reserve `cost` units of budget; returns false (leaving
    /// the budget untouched) when there is not enough left.
    pub fn try_consume(&mut self, cost: f64) -> bool {
        if self.budget >= cost {
            self.budget -= cost;
            true
        } else {
            false
        }
    }

    /// Charges a non-gating cost (e.g. migration traffic), clamping at 0.
    pub fn drain(&mut self, cost: f64) {
        self.budget = (self.budget - cost).max(0.0);
    }

    /// Records `n` served requests.
    pub fn record_served_n(&mut self, n: u64) {
        self.served_epoch += n;
        self.served_total += n;
    }

    /// Records `n` forwarded requests.
    pub fn record_forward_n(&mut self, n: u64) {
        self.forwards_epoch += n;
        self.forwards_total += n;
    }

    /// Requests handled this epoch (served + forwards), the paper's
    /// per-MDS load metric.
    pub fn epoch_requests(&self) -> u64 {
        self.served_epoch + self.forwards_epoch
    }

    /// Resets the per-epoch counters (epoch boundary).
    pub fn reset_epoch(&mut self) {
        self.served_epoch = 0;
        self.forwards_epoch = 0;
    }

    /// Fraction of this tick's budget already consumed, in `[0, 1]` — the
    /// per-tick utilisation gauge telemetry samples. A drained rank
    /// (capacity 0) reads as fully utilised: it can serve nothing.
    pub fn utilisation(&self) -> f64 {
        if self.capacity <= 0.0 {
            1.0
        } else {
            (1.0 - self.budget / self.capacity).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_gates_consumption() {
        let mut m = MdsState::new(2.0);
        assert!(m.try_consume(1.0));
        assert!(m.try_consume(1.0));
        assert!(!m.try_consume(0.5));
        m.refill();
        assert!(m.try_consume(2.0));
    }

    #[test]
    fn drain_clamps_at_zero() {
        let mut m = MdsState::new(1.0);
        m.drain(5.0);
        assert_eq!(m.budget, 0.0);
        assert!(!m.try_consume(0.1));
    }

    #[test]
    fn utilisation_tracks_budget() {
        let mut m = MdsState::new(10.0);
        assert_eq!(m.utilisation(), 0.0);
        assert!(m.try_consume(5.0));
        assert!((m.utilisation() - 0.5).abs() < 1e-12);
        m.drain(100.0);
        assert_eq!(m.utilisation(), 1.0);
        m.capacity = 0.0;
        assert_eq!(m.utilisation(), 1.0, "dead rank reads fully utilised");
    }

    #[test]
    fn epoch_counters_roll() {
        let mut m = MdsState::new(10.0);
        m.record_served_n(2);
        m.record_forward_n(1);
        assert_eq!(m.epoch_requests(), 3);
        m.reset_epoch();
        assert_eq!(m.epoch_requests(), 0);
        assert_eq!(m.served_total, 2);
        assert_eq!(m.forwards_total, 1);
    }
}
