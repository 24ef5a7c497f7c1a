//! Run results: the per-epoch series every experiment binary plots.

use crate::latency::LatencyHistogram;
use lunule_core::EpochStats;
use lunule_util::convert::{f64_to_usize, usize_to_f64};

/// One epoch's worth of observed cluster behaviour.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Simulated time at the end of the epoch, seconds.
    pub time_secs: u64,
    /// Requests handled by each MDS this epoch (served + forwards).
    pub per_mds_requests: Vec<u64>,
    /// Per-MDS IOPS this epoch.
    pub per_mds_iops: Vec<f64>,
    /// Aggregate cluster IOPS this epoch.
    pub total_iops: f64,
    /// Imbalance factor of the epoch's load vector (Eq. 3).
    pub imbalance_factor: f64,
    /// Cumulative migrated inodes up to the end of this epoch.
    pub migrated_inodes_cum: u64,
    /// Cumulative forwards up to the end of this epoch.
    pub forwards_cum: u64,
    /// Clients still running at the end of the epoch.
    pub active_clients: usize,
    /// Migration jobs in flight at the end of the epoch.
    pub inflight_migrations: usize,
    /// Resident (authoritative) inodes per MDS at the end of the epoch —
    /// the metadata-cache footprint driving the memory model.
    pub per_mds_resident_inodes: Vec<u64>,
}

/// The complete outcome of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    /// Policy that was driving the cluster.
    pub balancer: String,
    /// Per-epoch series.
    pub epochs: Vec<EpochRecord>,
    /// Total requests served per MDS over the whole run (Fig. 2's bars).
    pub per_mds_requests_total: Vec<u64>,
    /// Total forwards performed per MDS over the whole run.
    pub per_mds_forwards_total: Vec<u64>,
    /// Per-client job completion time in simulated seconds (`None` when the
    /// client had not finished when the run ended). Stored as `u32` to halve
    /// the vector for million-client runs; a completion time beyond
    /// `u32::MAX` seconds (136 simulated years) saturates to `u32::MAX`.
    pub client_completion_secs: Vec<Option<u32>>,
    /// Simulated seconds the run lasted.
    pub duration_secs: u64,
    /// Total metadata ops served.
    pub total_ops: u64,
    /// Final number of inodes in the namespace.
    pub final_inodes: usize,
    /// Subtree choices the migrator rejected as stale/overlapping.
    pub rejected_choices: u64,
    /// Per-op stall-latency distribution across the whole run.
    pub latency: LatencyHistogram,
}

impl EpochRecord {
    /// Serialises the record for the snapshot's results section (the
    /// per-epoch series accumulated so far must survive a restore so the
    /// stitched run's `RunResult` matches an uninterrupted one).
    pub(crate) fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_u64(self.epoch);
        e.put_u64(self.time_secs);
        e.put_seq(&self.per_mds_requests, |e, v| e.put_u64(*v));
        e.put_seq(&self.per_mds_iops, |e, v| e.put_f64(*v));
        e.put_f64(self.total_iops);
        e.put_f64(self.imbalance_factor);
        e.put_u64(self.migrated_inodes_cum);
        e.put_u64(self.forwards_cum);
        e.put_usize(self.active_clients);
        e.put_usize(self.inflight_migrations);
        e.put_seq(&self.per_mds_resident_inodes, |e, v| e.put_u64(*v));
    }

    /// Inverse of [`EpochRecord::encode`]; rejects per-rank vectors of
    /// mismatched widths.
    pub(crate) fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<Self, lunule_util::codec::CodecError> {
        let epoch = d.get_u64("epoch.index")?;
        let time_secs = d.get_u64("epoch.time_secs")?;
        let per_mds_requests = d.get_seq("epoch.requests", |d| d.get_u64("epoch.requests"))?;
        let per_mds_iops = d.get_seq("epoch.iops", |d| d.get_f64("epoch.iops"))?;
        let total_iops = d.get_f64("epoch.total_iops")?;
        let imbalance_factor = d.get_f64("epoch.imbalance_factor")?;
        let migrated_inodes_cum = d.get_u64("epoch.migrated_inodes_cum")?;
        let forwards_cum = d.get_u64("epoch.forwards_cum")?;
        let active_clients = d.get_usize("epoch.active_clients")?;
        let inflight_migrations = d.get_usize("epoch.inflight_migrations")?;
        let per_mds_resident_inodes =
            d.get_seq("epoch.resident", |d| d.get_u64("epoch.resident"))?;
        if per_mds_iops.len() != per_mds_requests.len() {
            return Err(lunule_util::codec::CodecError::Invalid { what: "epoch.iops" });
        }
        Ok(EpochRecord {
            epoch,
            time_secs,
            per_mds_requests,
            per_mds_iops,
            total_iops,
            imbalance_factor,
            migrated_inodes_cum,
            forwards_cum,
            active_clients,
            inflight_migrations,
            per_mds_resident_inodes,
        })
    }

    /// Builds the stats-derived half of a record from an epoch's load
    /// vector, routing IOPS and imbalance-factor math through
    /// `lunule-core` (the single authoritative implementation of Eq. 3)
    /// instead of recomputing it here. The cluster-state fields
    /// (migration counters, residency, clients) stay at their defaults
    /// for the caller to fill in.
    pub fn from_stats(stats: &EpochStats, time_secs: u64, mds_capacity: f64) -> Self {
        let iops = stats.iops();
        EpochRecord {
            epoch: stats.epoch,
            time_secs,
            per_mds_requests: stats.requests.clone(),
            total_iops: stats.total_iops(),
            imbalance_factor: lunule_core::imbalance_factor(&iops, mds_capacity),
            per_mds_iops: iops,
            ..EpochRecord::default()
        }
    }
}

/// Mean of `value` over epochs that saw any load — idle warm-up/tail
/// epochs would otherwise drag every run-level average toward zero.
fn mean_over_active(epochs: &[EpochRecord], value: impl Fn(&EpochRecord) -> f64) -> f64 {
    let active: Vec<f64> = epochs
        .iter()
        .filter(|e| e.total_iops > 0.0)
        .map(value)
        .collect();
    if active.is_empty() {
        0.0
    } else {
        active.iter().sum::<f64>() / usize_to_f64(active.len())
    }
}

lunule_util::impl_json_struct!(EpochRecord {
    epoch,
    time_secs,
    per_mds_requests,
    per_mds_iops,
    total_iops,
    imbalance_factor,
    migrated_inodes_cum,
    forwards_cum,
    active_clients,
    inflight_migrations,
    per_mds_resident_inodes,
});

lunule_util::impl_json_struct!(RunResult {
    balancer,
    epochs,
    per_mds_requests_total,
    per_mds_forwards_total,
    client_completion_secs,
    duration_secs,
    total_ops,
    final_inodes,
    rejected_choices,
    latency,
});

impl RunResult {
    /// Mean imbalance factor across epochs with any load.
    pub fn mean_if(&self) -> f64 {
        mean_over_active(&self.epochs, |e| e.imbalance_factor)
    }

    /// Peak aggregate IOPS over the run.
    pub fn peak_iops(&self) -> f64 {
        self.epochs.iter().map(|e| e.total_iops).fold(0.0, f64::max)
    }

    /// Mean aggregate IOPS over epochs with any load.
    pub fn mean_iops(&self) -> f64 {
        mean_over_active(&self.epochs, |e| e.total_iops)
    }

    /// Completion-time percentile (0.0–1.0) over *finished* clients, or
    /// `None` when fewer than the requested share finished.
    pub fn jct_percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        let mut done: Vec<u64> = self
            .client_completion_secs
            .iter()
            .flatten()
            .map(|t| u64::from(*t))
            .collect();
        if done.is_empty() {
            return None;
        }
        let finished_share =
            usize_to_f64(done.len()) / usize_to_f64(self.client_completion_secs.len().max(1));
        if finished_share < p {
            return None;
        }
        done.sort_unstable();
        let idx = f64_to_usize((usize_to_f64(done.len()) * p).ceil())
            .saturating_sub(1)
            .min(done.len() - 1);
        Some(done[idx])
    }

    /// Total migrated inodes over the run.
    pub fn migrated_inodes(&self) -> u64 {
        self.epochs
            .last()
            .map(|e| e.migrated_inodes_cum)
            .unwrap_or(0)
    }

    /// Total forwards over the run.
    pub fn total_forwards(&self) -> u64 {
        self.per_mds_forwards_total.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64, iops: Vec<f64>, ifv: f64) -> EpochRecord {
        EpochRecord {
            epoch,
            time_secs: (epoch + 1) * 10,
            per_mds_requests: iops.iter().map(|i| (*i * 10.0) as u64).collect(),
            total_iops: iops.iter().sum(),
            per_mds_iops: iops,
            imbalance_factor: ifv,
            migrated_inodes_cum: epoch * 100,
            forwards_cum: 0,
            active_clients: 1,
            inflight_migrations: 0,
            per_mds_resident_inodes: Vec::new(),
        }
    }

    #[test]
    fn from_stats_matches_core_math() {
        let stats = EpochStats::new(3, 10.0, vec![900, 100]);
        let rec = EpochRecord::from_stats(&stats, 40, 100.0);
        assert_eq!(rec.epoch, 3);
        assert_eq!(rec.time_secs, 40);
        assert_eq!(rec.per_mds_requests, vec![900, 100]);
        assert!((rec.total_iops - 100.0).abs() < 1e-9);
        assert_eq!(rec.per_mds_iops, vec![90.0, 10.0]);
        let expect = lunule_core::imbalance_factor(&[90.0, 10.0], 100.0);
        assert_eq!(rec.imbalance_factor, expect);
        // Cluster-state fields stay at defaults for the caller.
        assert_eq!(rec.migrated_inodes_cum, 0);
        assert_eq!(rec.active_clients, 0);
    }

    #[test]
    fn summary_statistics() {
        let r = RunResult {
            balancer: "test".into(),
            epochs: vec![
                record(0, vec![100.0, 0.0], 0.8),
                record(1, vec![50.0, 50.0], 0.1),
                record(2, vec![0.0, 0.0], 0.0), // idle epoch excluded
            ],
            client_completion_secs: vec![Some(10), Some(20), Some(30), None],
            ..RunResult::default()
        };
        assert!((r.mean_if() - 0.45).abs() < 1e-9);
        assert_eq!(r.peak_iops(), 100.0);
        assert_eq!(r.mean_iops(), 100.0);
        assert_eq!(r.migrated_inodes(), 200);
    }

    #[test]
    fn percentiles_over_finished_clients() {
        let r = RunResult {
            client_completion_secs: vec![Some(10), Some(20), Some(30), Some(40)],
            ..RunResult::default()
        };
        assert_eq!(r.jct_percentile(0.5), Some(20));
        assert_eq!(r.jct_percentile(1.0), Some(40));
        assert_eq!(r.jct_percentile(0.0), Some(10));
    }

    #[test]
    fn percentile_unavailable_when_unfinished() {
        let r = RunResult {
            client_completion_secs: vec![Some(10), None, None, None],
            ..RunResult::default()
        };
        assert_eq!(r.jct_percentile(0.99), None);
        assert_eq!(r.jct_percentile(0.25), Some(10));
    }

    #[test]
    fn empty_run_is_safe() {
        let r = RunResult::default();
        assert_eq!(r.mean_if(), 0.0);
        assert_eq!(r.peak_iops(), 0.0);
        assert_eq!(r.jct_percentile(0.5), None);
        assert_eq!(r.migrated_inodes(), 0);
    }

    #[test]
    fn serializes_to_json() {
        let r = RunResult {
            balancer: "Lunule".into(),
            epochs: vec![record(0, vec![1.0], 0.0)],
            ..RunResult::default()
        };
        use lunule_util::{FromJson, Json, ToJson};
        let s = r.to_json().to_string_compact();
        let back = RunResult::from_json(&Json::parse(&s).unwrap()).unwrap();
        assert_eq!(back.balancer, "Lunule");
        assert_eq!(back.epochs.len(), 1);
        assert_eq!(back, r);
    }
}
