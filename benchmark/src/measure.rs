//! One pass over a built cluster: the timed tick loop, the output checks,
//! and the probes run on the state the loop leaves behind.

use crate::probe::{self, Probe};
use crate::stats::median;
use crate::timing::{elapsed_ns, Layers, Span, Tally};
use crate::workloads::Cluster;
use lunule_namespace::{AuthorityCache, InodeId, Namespace, SubtreeMap};
use lunule_sim::RunResult;
use lunule_snapshot::Snapshot;
use lunule_util::ToJson;
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// One tick as the loop saw it.
#[derive(Clone, Debug, Default)]
pub struct Tick {
    /// Simulated tick number (the clock after the tick ran).
    pub tick: u64,
    /// Start, nanoseconds on the [`Layers`] clock.
    pub start_ns: u64,
    /// Wall time of the tick, publish and snapshot included.
    pub dur_ns: u64,
    /// `record_access*` work inside the tick.
    pub record: Tally,
    /// `next_op` work inside the tick.
    pub next_op: Tally,
    /// Coarse child spans: `core.on_epoch`, `daemon.publish`,
    /// `snapshot.capture`, `snapshot.encode`.
    pub spans: Vec<Span>,
}

impl Tick {
    /// Total duration of the child spans named `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The tick's own time: its duration minus every child span and the
    /// aggregated per-op calls.
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.spans.iter().map(|s| s.dur_ns).sum();
        self.dur_ns
            .saturating_sub(children + self.record.ns + self.next_op.ns)
    }
}

/// The cost of one state snapshot.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotCost {
    /// `Simulation::snapshot`.
    pub capture_ns: u64,
    /// `Snapshot::to_bytes`.
    pub encode_ns: u64,
}

/// What one tick loop measured.
pub struct Loop {
    /// Every tick, in order.
    pub ticks: Vec<Tick>,
    /// Wall time of the whole loop without its probe slices, seconds.
    pub loop_s: f64,
    /// Most client flows materialised in any tick.
    pub flows_max: usize,
    /// In-loop state snapshots.
    pub snapshots: Vec<SnapshotCost>,
    /// Encoded bytes of the last in-loop snapshot.
    pub last_snapshot: Option<Vec<u8>>,
}

impl Loop {
    /// Per-tick wall times, microseconds.
    pub fn tick_us(&self) -> Vec<f64> {
        self.ticks.iter().map(|t| t.dur_ns as f64 / 1e3).collect()
    }
}

/// Steps `cluster` until the run ends, timing every tick. Between ticks,
/// every [`probe::EVERY`] of loop time, it runs one `probe` slice; probe
/// time counts neither in a tick nor in the loop.
pub fn tick_loop(cluster: &mut Cluster, layers: &Layers, probe: &mut Probe) -> io::Result<Loop> {
    let mut ticks = Vec::new();
    let mut snapshots = Vec::new();
    let mut last_snapshot = None;
    let mut flows_max = 0;
    let mut record = layers.record_access.read();
    let mut next_op = layers.next_op.read();
    let loop_start = Instant::now();
    // One slice up front, so even a loop shorter than `EVERY` is probed.
    let mut probe_ns = probe.slice();
    let mut last_probe = Instant::now();
    loop {
        let start = Instant::now();
        if !cluster.step()? {
            break;
        }
        let now = cluster.sim().now();
        let mut spans = Vec::new();
        if let Some(every) = cluster.snapshot_every {
            if now.is_multiple_of(every) {
                let (cost, bytes, timed) = take_snapshot(cluster, layers);
                snapshots.push(cost);
                last_snapshot = Some(bytes);
                spans.extend(timed);
            }
        }
        let dur_ns = elapsed_ns(start);
        flows_max = flows_max.max(cluster.sim().n_flows());
        let (record_now, next_now) = (layers.record_access.read(), layers.next_op.read());
        spans.extend(layers.take_spans());
        ticks.push(Tick {
            tick: now,
            start_ns: layers.offset_ns(start),
            dur_ns,
            record: record_now.since(record),
            next_op: next_now.since(next_op),
            spans,
        });
        (record, next_op) = (record_now, next_now);
        if last_probe.elapsed() >= probe::EVERY {
            probe_ns += probe.slice();
            last_probe = Instant::now();
        }
    }
    Ok(Loop {
        ticks,
        loop_s: (elapsed_ns(loop_start) - probe_ns) as f64 / 1e9,
        flows_max,
        snapshots,
        last_snapshot,
    })
}

/// Captures and encodes a state snapshot of the cluster as it stands.
pub fn take_snapshot(cluster: &Cluster, layers: &Layers) -> (SnapshotCost, Vec<u8>, [Span; 2]) {
    let start = Instant::now();
    let snap = cluster.sim().snapshot();
    let capture_ns = elapsed_ns(start);
    let encode_start = Instant::now();
    let bytes = black_box(snap.to_bytes());
    let encode_ns = elapsed_ns(encode_start);
    let spans = [
        Span {
            name: "snapshot.capture",
            start_ns: layers.offset_ns(start),
            dur_ns: capture_ns,
        },
        Span {
            name: "snapshot.encode",
            start_ns: layers.offset_ns(encode_start),
            dur_ns: encode_ns,
        },
    ];
    (
        SnapshotCost {
            capture_ns,
            encode_ns,
        },
        bytes,
        spans,
    )
}

/// Decodes snapshot bytes, timed.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Snapshot, u64), String> {
    let start = Instant::now();
    let snap = Snapshot::from_bytes(bytes).map_err(|e| format!("snapshot decode: {e}"))?;
    Ok((snap, elapsed_ns(start)))
}

/// FNV-1a over the compact JSON of a run result: the output digest the
/// benchmark pins.
pub fn digest(result: &RunResult) -> u64 {
    lunule_util::codec::fnv1a64(result.to_json().to_string_compact().as_bytes())
}

/// Tallies output checks; a failed one is reported on stderr.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("lunule-benchmark: check failed: {}", what());
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks that hold for every seed: ops were served and every one is
/// accounted to a rank, every epoch's imbalance factor is a share, the
/// migrated-inode series never shrinks, and a run that stops when its
/// clients are done did finish them all.
pub fn check_result(checks: &mut Checks, r: &RunResult, runs_to_completion: bool) {
    checks.check(r.total_ops > 0, || "no ops served".into());
    let served: u64 = r.per_mds_requests_total.iter().sum();
    checks.check(served == r.total_ops, || {
        format!(
            "ranks served {served} ops, clients completed {}",
            r.total_ops
        )
    });
    checks.check(
        r.epochs
            .iter()
            .all(|e| (0.0..=1.0).contains(&e.imbalance_factor)),
        || "an epoch's imbalance factor lies outside [0, 1]".into(),
    );
    checks.check(
        r.epochs
            .windows(2)
            .all(|w| w[0].migrated_inodes_cum <= w[1].migrated_inodes_cum),
        || "cumulative migrated inodes decreased".into(),
    );
    if runs_to_completion {
        checks.check(r.client_completion_secs.iter().all(Option::is_some), || {
            "a client never finished its stream".into()
        });
    }
}

/// Inodes probed on the end state: a fixed-size, evenly strided sample of
/// the live arena.
pub const PROBE_INODES: usize = 65_536;

/// Mean nanoseconds per lookup of an uncached authority walk and of a warm
/// [`AuthorityCache`], over the probe set; the median of five rounds each.
pub fn probe_authority(ns: &Namespace, map: &SubtreeMap) -> (f64, f64) {
    let stride = (ns.len() / PROBE_INODES).max(1);
    let set: Vec<InodeId> = (0..ns.len())
        .step_by(stride)
        .map(InodeId::from_index)
        .filter(|id| ns.inode(*id).is_alive())
        .take(PROBE_INODES)
        .collect();
    let per_op = |f: &mut dyn FnMut(InodeId)| -> f64 {
        let rounds: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for id in &set {
                    f(*id);
                }
                elapsed_ns(start) as f64 / set.len().max(1) as f64
            })
            .collect();
        median(&rounds)
    };
    let walk = per_op(&mut |id| {
        black_box(map.authority(ns, id));
    });
    let mut cache = AuthorityCache::new();
    for id in &set {
        cache.authority(map, ns, *id);
    }
    let cached = per_op(&mut |id| {
        black_box(cache.authority(map, ns, id));
    });
    (walk, cached)
}

/// The process's peak resident set (`VmHWM`), MiB; NaN where `/proc` does
/// not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
