//! Simulation configuration.

use lunule_faults::FaultSchedule;
use lunule_telemetry::Telemetry;

/// Configuration of the data path (OSD cluster) model, used by the
/// end-to-end experiments (Fig. 8). When absent, runs are metadata-only,
/// matching the paper's default measurement mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPathConfig {
    /// Aggregate bandwidth of the OSD cluster, bytes per simulated second.
    /// Shared fairly among all clients currently transferring data.
    pub osd_bandwidth: u64,
    /// Per-client in-flight data window, bytes: a client keeps issuing
    /// metadata ops while its outstanding data debt stays below this
    /// (clients pipeline reads; with a 1-second tick, blocking on every
    /// single file transfer would quantise each op to a full second).
    /// The client blocks once the window is exceeded, which is how a slow
    /// data path throttles metadata progress.
    pub client_window: u64,
}

impl DataPathConfig {
    /// A data path with the default 4 MiB per-client window.
    pub fn with_bandwidth(osd_bandwidth: u64) -> Self {
        DataPathConfig {
            osd_bandwidth,
            client_window: 4 << 20,
        }
    }
}

impl Default for DataPathConfig {
    fn default() -> Self {
        DataPathConfig::with_bandwidth(1 << 30)
    }
}

lunule_util::impl_json_struct!(DataPathConfig {
    osd_bandwidth,
    client_window,
});

lunule_util::impl_json_struct!(SimConfig {
    n_mds,
    mds_capacity,
    mds_capacities,
    epoch_secs,
    duration_secs,
    stop_when_done,
    migration_bw,
    migration_freeze_secs,
    migration_op_cost,
    migration_timeout_ticks,
    migration_max_retries,
    migration_backoff_ticks,
    client_rate,
    client_cache_cap,
    mds_memory_inodes,
    memory_thrash_factor,
    data_path,
    seed,
});

/// Configuration of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of MDS ranks at start (can grow via
    /// [`crate::Simulation::add_mds`]).
    pub n_mds: usize,
    /// Metadata requests one MDS can serve per simulated second. This is
    /// `C` in the urgency model and the budget gating request processing.
    pub mds_capacity: f64,
    /// Per-rank capacity overrides for heterogeneous clusters (extension
    /// beyond the paper). Ranks beyond the vector's length — and MDSs added
    /// at runtime — use `mds_capacity`.
    pub mds_capacities: Vec<f64>,
    /// Epoch (re-balance interval) length in simulated seconds. The paper's
    /// default is 10 s.
    pub epoch_secs: u64,
    /// Maximum run length in simulated seconds.
    pub duration_secs: u64,
    /// Stop early once every client has finished its op stream.
    pub stop_when_done: bool,
    /// Inodes per second one exporter can ship (shared across its active
    /// migration jobs).
    pub migration_bw: f64,
    /// Length of the final commit window during which the migrating subtree
    /// is frozen (ops targeting it stall), in seconds.
    pub migration_freeze_secs: u64,
    /// MDS request-units consumed per migrated inode, charged to both
    /// exporter and importer — the "background traffic contends with
    /// foreground requests" cost.
    pub migration_op_cost: f64,
    /// Transfer deadline per migration job, in ticks: a job still
    /// transferring this long after its (re)start times out and enters the
    /// retry/backoff path. `0` (the default) disables timeouts, preserving
    /// the pre-fault-injection behaviour.
    pub migration_timeout_ticks: u64,
    /// How many times a timed-out migration restarts before being
    /// abandoned (with its subtree staying on the exporter).
    pub migration_max_retries: u32,
    /// Base backoff before a timed-out migration restarts, in ticks;
    /// doubles on every further attempt (exponential, shift-capped).
    pub migration_backoff_ticks: u64,
    /// Maximum metadata ops one client can issue per second.
    pub client_rate: f64,
    /// Maximum dirfrag→rank entries each client caches (CephFS clients hold
    /// a bounded subtree-map view; see `lunule_sim::client`).
    pub client_cache_cap: usize,
    /// Metadata-cache memory limit per MDS, expressed as a resident-inode
    /// count (0 = unlimited). The paper's MDtest runs ended when MDSs ran
    /// out of memory; with a limit set, a rank whose authoritative inode
    /// population exceeds it degrades (cache thrash against the object
    /// store) by [`SimConfig::memory_thrash_factor`].
    pub mds_memory_inodes: u64,
    /// Effective-capacity multiplier applied while a rank is over its
    /// memory limit, in (0, 1].
    pub memory_thrash_factor: f64,
    /// Optional data path; `None` = metadata-only run.
    pub data_path: Option<DataPathConfig>,
    /// Worker threads for the cohort engine's sharded fan-out: `0` sizes
    /// from the `LUNULE_JOBS` env var / machine (see
    /// [`lunule_util::par::WorkerPool::auto`]). Excluded from the JSON dump
    /// and digest — thread count is an execution detail that never changes
    /// output bytes, like `telemetry`.
    pub jobs: usize,
    /// Master seed; all stochastic components derive from it.
    pub seed: u64,
    /// Telemetry handle the simulation (and its balancer/migrator) records
    /// into. Defaults to [`Telemetry::disabled`], which keeps the hot path
    /// to a single branch per instrumentation site. Deliberately excluded
    /// from the JSON round-trip: a handle is run state, not configuration
    /// data, so parsed configs always come back disabled.
    pub telemetry: Telemetry,
    /// Fault schedule the run replays (crashes, limps, report losses,
    /// migration stalls); empty = fault-free. Like `telemetry`, excluded
    /// from the JSON round-trip: schedules are reproduced from their seed
    /// or spec string, not from config dumps.
    pub faults: FaultSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_mds: 5,
            mds_capacity: 5_000.0,
            mds_capacities: Vec::new(),
            epoch_secs: 10,
            duration_secs: 1_800,
            stop_when_done: true,
            migration_bw: 20_000.0,
            migration_freeze_secs: 1,
            migration_op_cost: 0.05,
            migration_timeout_ticks: 0,
            migration_max_retries: 3,
            migration_backoff_ticks: 8,
            client_rate: 500.0,
            client_cache_cap: 256,
            mds_memory_inodes: 0,
            memory_thrash_factor: 0.25,
            data_path: None,
            jobs: 0,
            seed: 0xC0FFEE,
            telemetry: Telemetry::disabled(),
            faults: FaultSchedule::empty(),
        }
    }
}

/// Digest identifying a run setup for snapshot compatibility: FNV-1a over
/// the config's canonical JSON (which carries the seed) plus the fault
/// schedule's spec string (excluded from the JSON round-trip, but part of
/// what makes two runs byte-identical). A snapshot restored under a
/// different digest would silently diverge, so the container refuses it.
pub fn config_digest(cfg: &SimConfig) -> u64 {
    use lunule_util::ToJson;
    let mut canonical = cfg.to_json().to_string_compact();
    canonical.push('\n');
    canonical.push_str(&lunule_faults::format_spec(&cfg.faults));
    lunule_util::codec::fnv1a64(canonical.as_bytes())
}

impl SimConfig {
    /// Validates internal consistency; called by the simulation constructor.
    pub fn validate(&self) {
        assert!(self.n_mds >= 1, "need at least one MDS");
        assert!(self.mds_capacity > 0.0, "MDS capacity must be positive");
        assert!(
            self.mds_capacities.iter().all(|c| *c > 0.0),
            "per-rank capacities must be positive"
        );
        assert!(self.epoch_secs >= 1, "epoch must be at least one second");
        assert!(self.duration_secs >= 1, "duration must be positive");
        assert!(self.migration_bw >= 0.0, "migration bandwidth must be >= 0");
        assert!(
            self.migration_op_cost >= 0.0,
            "migration op cost must be >= 0"
        );
        if self.migration_timeout_ticks > 0 {
            assert!(
                self.migration_backoff_ticks >= 1,
                "retry backoff must be at least one tick"
            );
        }
        assert!(self.client_rate > 0.0, "client rate must be positive");
        assert!(
            self.memory_thrash_factor > 0.0 && self.memory_thrash_factor <= 1.0,
            "thrash factor must be in (0, 1]"
        );
        if let Some(dp) = &self.data_path {
            assert!(dp.osd_bandwidth > 0, "OSD bandwidth must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic]
    fn zero_mds_rejected() {
        SimConfig {
            n_mds: 0,
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn zero_osd_bandwidth_rejected() {
        SimConfig {
            data_path: Some(DataPathConfig {
                osd_bandwidth: 0,
                client_window: 0,
            }),
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    fn config_roundtrips_through_json() {
        use lunule_util::{FromJson, Json, ToJson};
        let cfg = SimConfig {
            data_path: Some(DataPathConfig::with_bandwidth(123)),
            ..SimConfig::default()
        };
        let json = cfg.to_json().to_string_pretty();
        let back = SimConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(cfg, back);
        // Missing fields keep their defaults, matching old dumps.
        let partial = SimConfig::from_json(&Json::parse(r#"{"n_mds": 3}"#).unwrap()).unwrap();
        assert_eq!(partial.n_mds, 3);
        assert_eq!(partial.epoch_secs, SimConfig::default().epoch_secs);
    }

    #[test]
    fn telemetry_defaults_disabled_and_stays_out_of_json() {
        use lunule_util::{FromJson, Json, ToJson};
        assert!(!SimConfig::default().telemetry.is_enabled());
        let cfg = SimConfig {
            telemetry: Telemetry::enabled(),
            ..SimConfig::default()
        };
        let json = cfg.to_json().to_string_compact();
        assert!(!json.contains("telemetry"), "handle must not serialise");
        let back = SimConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(!back.telemetry.is_enabled(), "parsed configs are disabled");
    }

    #[test]
    fn digest_is_stable_and_covers_seed_and_faults() {
        let base = SimConfig::default();
        assert_eq!(config_digest(&base), config_digest(&SimConfig::default()));
        let reseeded = SimConfig {
            seed: base.seed + 1,
            ..SimConfig::default()
        };
        assert_ne!(config_digest(&base), config_digest(&reseeded));
        let faulted = SimConfig {
            faults: lunule_faults::FaultPlan::new()
                .crash(10, lunule_namespace::MdsRank(1), 5)
                .build(),
            ..SimConfig::default()
        };
        assert_ne!(
            config_digest(&base),
            config_digest(&faulted),
            "fault schedules are outside the JSON dump but inside the digest"
        );
    }

    #[test]
    fn fault_schedule_stays_out_of_json() {
        use lunule_util::ToJson;
        let cfg = SimConfig {
            faults: lunule_faults::FaultPlan::new()
                .crash(10, lunule_namespace::MdsRank(1), 5)
                .build(),
            ..SimConfig::default()
        };
        let json = cfg.to_json().to_string_compact();
        assert!(!json.contains("faults"), "schedules must not serialise");
        assert!(json.contains("migration_timeout_ticks"));
    }
}
