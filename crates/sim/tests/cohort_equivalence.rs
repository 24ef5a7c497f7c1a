//! Equivalence battery of the cohort client engine.
//!
//! The cohort engine's correctness claim is *byte-identity*, two ways:
//!
//! 1. **Golden digests** — every case below must reproduce the journal,
//!    total op count and per-rank request totals recorded in [`GOLDEN`].
//!    The table was captured from the one-struct-per-client engine, which
//!    stepped every client individually in the same rotation order and is
//!    the reference the aggregated engine was derived from. A second
//!    column pins the telemetry metrics export, recorded later from the
//!    cohort engine.
//! 2. **Grouped vs expanded** — a population built as shared-stream
//!    cohorts must journal exactly like the same population handed over
//!    as one singleton stream per client.
//!
//! The matrix runs seeds × fault schedules × simulator knobs (memory
//! pressure, data path) over a mixed read/create/remove workload, plus a
//! wide population with hundreds of routes per resolve batch and three
//! grouped populations (read-only, create-heavy, and one that a rank's
//! budget splits mid-round), plus a scan that the balancer can only
//! split by recent visit counts, plus a two-level tree whose nested
//! bounds leave clients stale entries on live fragments. [`KIND_GOLDEN`]
//! pins one case under every balancer kind, with a mid-run snapshot.
//! Every case is audited by `lunule-verify` after every tick.

use lunule_core::{make_balancer, BalancerKind};
use lunule_faults::{FaultPlan, FaultSchedule};
use lunule_namespace::{InodeId, MdsRank, Namespace};
use lunule_sim::{DataPathConfig, FixedStream, MetaOp, OpStream, SimConfig, Simulation};
use lunule_telemetry::{events_jsonl, metrics_csv, Telemetry};
use lunule_util::codec::fnv1a64;
use lunule_util::ToJson;
use lunule_verify::InvariantChecker;

const DIRS: usize = 6;
const FILES: usize = 12;
/// File slots 0..REMOVE_POOL are reserved as per-client removal victims;
/// reads only ever touch slots at or above it. Removes must be
/// client-unique AND never read afterwards: a second remove (or a read of
/// the tombstone) is stale and trips debug asserts.
const REMOVE_POOL: usize = 4;

/// Frozen outcomes, one per case: `(case, digest, metrics_digest,
/// total_ops)`. The digest is FNV-1a over the JSONL journal followed by
/// the compact JSON of the run's `RunResult`, so it also pins the per-rank
/// request totals, the per-epoch series, latency and per-client completion
/// times. The metrics digest is FNV-1a over the telemetry metrics CSV
/// (counters, gauge series and histograms), which the journal does not
/// carry.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("seed7/quiet/plain", 0x2d37_6250_d0e3_abe2, 0xeae5_c80b_4563_be8d, 200),
    ("seed7/quiet/memory", 0xaeb1_7266_8f50_22af, 0xeb0a_d75e_fc18_1e2e, 200),
    ("seed7/quiet/datapath", 0xb863_517c_4f61_97d2, 0xeae5_c80b_4563_be8d, 200),
    ("seed7/chaotic/plain", 0xf062_8d7b_37f8_a5cd, 0x6156_4d42_7327_008e, 200),
    ("seed7/chaotic/memory", 0x37bc_5cbf_24b6_e877, 0x0524_d6be_7881_a87a, 200),
    ("seed7/chaotic/datapath", 0x3cc6_5dbc_9499_edf5, 0x6156_4d42_7327_008e, 200),
    ("seed7/quiet/contended", 0x6a33_01f4_b4db_3a9d, 0xaf4d_8fe6_7521_352f, 200),
    ("seed7/chaotic/contended", 0x8b1b_a18b_80d3_60a9, 0x91ad_e969_3fe7_ce92, 200),
    ("seed42/quiet/plain", 0x2d37_6250_d0e3_abe2, 0x9406_dde7_3d6b_1024, 200),
    ("seed42/quiet/memory", 0x3b2d_c2fc_6150_4cb4, 0xd189_dc46_d993_c864, 200),
    ("seed42/quiet/datapath", 0xb863_517c_4f61_97d2, 0x9406_dde7_3d6b_1024, 200),
    ("seed42/chaotic/plain", 0xf062_8d7b_37f8_a5cd, 0x6874_7f5f_09e8_caed, 200),
    ("seed42/chaotic/memory", 0x37bc_5cbf_24b6_e877, 0x501f_dae9_476c_8cbb, 200),
    ("seed42/chaotic/datapath", 0x3cc6_5dbc_9499_edf5, 0x6874_7f5f_09e8_caed, 200),
    ("seed42/quiet/contended", 0xcf3c_cb05_df3c_cdcb, 0xd7f5_4b97_266d_bee9, 200),
    ("seed42/chaotic/contended", 0xa059_9b89_b062_a56d, 0xd4c4_9c87_03a1_1403, 200),
    ("wide320", 0x18f8_a685_584a_ef7a, 0xbe7c_a2c0_00dc_a06a, 1680),
    ("expanded8", 0x4f84_cd82_226f_d5d9, 0x6c34_e138_87ae_e209, 54),
    ("creates6", 0x24fa_dad4_8192_3a35, 0xacf3_f989_c7a8_c773, 30),
    ("contended12", 0x28da_a08c_ef4f_fa8b, 0x718e_e528_3374_02e5, 170),
    ("scan10", 0x6dbb_2c67_18cb_4618, 0xe161_2e31_2702_a680, 720),
    ("nested12", 0x1cd9_3595_a7df_328c, 0x4547_96c0_8a23_0de2, 1440),
];

/// The `seed7/chaotic/plain` case under every balancer kind: `(kind,
/// digest, metrics_digest, snapshot_digest, total_ops)`. The first two
/// digests are computed as in [`GOLDEN`]; the snapshot digest is FNV-1a
/// over `Simulation::snapshot().to_bytes()` taken between ticks
/// [`SNAPSHOT_TICK`] - 1 and [`SNAPSHOT_TICK`], so it also pins each
/// policy's saved state (heat counters, analyzer windows, knob values).
#[rustfmt::skip]
const KIND_GOLDEN: &[(BalancerKind, u64, u64, u64, u64)] = &[
    (BalancerKind::Lunule, 0xf062_8d7b_37f8_a5cd, 0x6156_4d42_7327_008e, 0x1842_6cca_9ad4_b219, 200),
    (BalancerKind::LunuleLight, 0x3c67_ff72_c490_eac8, 0x9cc8_6533_0162_1577, 0x3c89_fdc7_484e_9f7c, 200),
    (BalancerKind::Vanilla, 0x9cf0_6739_b944_fb8d, 0x215d_6354_ecdf_b9eb, 0x6d3b_d76b_a671_604a, 200),
    (BalancerKind::GreedySpill, 0x64cc_46a2_2bd4_f50c, 0x215d_6354_ecdf_b9eb, 0xf2e6_3795_fccb_9e51, 200),
    (BalancerKind::DirHash, 0x880f_4a79_bd33_2ec6, 0x017d_6a8d_f5d7_04e8, 0xdcb0_8306_b3b9_2c54, 200),
    (BalancerKind::Off, 0x8469_7671_d5f3_1065, 0xa259_3dd1_b6f8_473e, 0x572c_77e6_ef45_4d78, 200),
];

/// The tick at which [`KIND_GOLDEN`]'s snapshot is taken: after the third
/// epoch close, while the crash and limp faults are live.
const SNAPSHOT_TICK: u64 = 10;

/// What one run produced: its journal, metrics export and results.
#[derive(Debug, PartialEq)]
struct Outcome {
    journal: String,
    /// The telemetry snapshot's metrics CSV.
    metrics: String,
    /// Compact JSON of the `RunResult`.
    result: String,
    total_ops: u64,
    per_mds: Vec<u64>,
}

impl Outcome {
    fn digest(&self) -> u64 {
        fnv1a64(format!("{}{}", self.journal, self.result).as_bytes())
    }

    fn metrics_digest(&self) -> u64 {
        fnv1a64(self.metrics.as_bytes())
    }

    /// Compares this outcome with the golden entry for `case`: `Err`
    /// names every field that drifted, or the entry this run would need.
    fn golden_verdict(&self, case: &str) -> Result<(), String> {
        let digest = self.digest();
        let metrics_digest = self.metrics_digest();
        let Some(&(_, want_digest, want_metrics, want_ops)) = GOLDEN.iter().find(|g| g.0 == case)
        else {
            return Err(format!(
                "no golden entry; this run gives ({case:?}, {digest:#018x}, \
                 {metrics_digest:#018x}, {})",
                self.total_ops
            ));
        };
        let mut drift = Vec::new();
        if self.total_ops != want_ops {
            drift.push(format!("total ops {} != {want_ops}", self.total_ops));
        }
        if digest != want_digest {
            drift.push(format!(
                "journal or results drifted (per-rank requests {:?})",
                self.per_mds
            ));
        }
        if metrics_digest != want_metrics {
            drift.push("metrics export drifted".to_string());
        }
        if drift.is_empty() {
            Ok(())
        } else {
            Err(format!("{case}: {}", drift.join("; ")))
        }
    }

    /// Asserts this outcome reproduces the golden entry for `case`.
    fn assert_golden(&self, case: &str) {
        if let Err(e) = self.golden_verdict(case) {
            panic!("{e}");
        }
    }
}

/// Fails once with every drifting row of a table of `rows` rows, so a
/// fault shows how far it reaches instead of stopping at its first row.
fn assert_no_drift(rows: usize, drifted: &[String]) {
    assert!(
        drifted.is_empty(),
        "{} of {rows} golden rows drifted:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// An op stream replaying an explicit script of mixed metadata ops —
/// `FixedStream` only reads, and equivalence wants creates and removes in
/// the mix too.
#[derive(Clone, Debug)]
struct ScriptStream {
    ops: Vec<MetaOp>,
    pos: usize,
}

impl ScriptStream {
    fn new(ops: Vec<MetaOp>) -> Self {
        ScriptStream { ops, pos: 0 }
    }
}

impl OpStream for ScriptStream {
    fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.ops.len() as u64)
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        Some(Box::new(self.clone()))
    }
}

/// `DIRS` directories with `FILES` files each; returns the dir ids and
/// the file ids grouped by directory. Deterministic, so separate calls
/// yield id-compatible namespaces.
fn fixture() -> (Namespace, Vec<InodeId>, Vec<Vec<InodeId>>) {
    let mut ns = Namespace::new();
    let mut dirs = Vec::new();
    let files = (0..DIRS)
        .map(|d| {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            dirs.push(dir);
            (0..FILES)
                .map(|f| ns.create_file(dir, &format!("f{f}"), 8).unwrap())
                .collect()
        })
        .collect();
    (ns, dirs, files)
}

/// A mixed per-client script: reads spread over the shared pool, a few
/// creates under live directories, and one remove of a file only this
/// client ever touches.
fn script_for(client: usize, dirs: &[InodeId], files: &[Vec<InodeId>], seed: u64) -> Vec<MetaOp> {
    let mut ops = Vec::new();
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((client as u64) << 7) | 1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for k in 0..16 {
        let d = (next() as usize) % DIRS;
        let f = REMOVE_POOL + (next() as usize) % (FILES - REMOVE_POOL);
        ops.push(MetaOp::Read(files[d][f]));
        if k % 5 == 3 {
            ops.push(MetaOp::Create {
                parent: dirs[(next() as usize) % DIRS],
                size: 64,
            });
        }
    }
    // Client c's victim: dir (c mod DIRS), file slot (c div DIRS) — unique
    // per client for populations up to DIRS * REMOVE_POOL members.
    let d = client % DIRS;
    let f = client / DIRS;
    assert!(f < REMOVE_POOL, "population too large for the victim pool");
    ops.push(MetaOp::Remove(files[d][f]));
    ops
}

fn base_cfg(seed: u64) -> SimConfig {
    SimConfig {
        n_mds: 3,
        mds_capacity: 60.0,
        epoch_secs: 3,
        duration_secs: 21,
        stop_when_done: false,
        migration_bw: 1_000.0,
        migration_freeze_secs: 1,
        client_rate: 6.0,
        client_cache_cap: 8,
        seed,
        telemetry: Telemetry::enabled(),
        ..SimConfig::default()
    }
}

fn streams_for(n: usize, seed: u64) -> Vec<Box<dyn OpStream>> {
    let (_, dirs, files) = fixture();
    (0..n)
        .map(|c| {
            Box::new(ScriptStream::new(script_for(c, &dirs, &files, seed))) as Box<dyn OpStream>
        })
        .collect()
}

/// Steps `sim` to `deadline` (or its configured end), auditing it with
/// `checker` after every tick.
fn advance(sim: &mut Simulation, checker: &mut InvariantChecker, deadline: u64) {
    while sim.now() < deadline && sim.step() {
        checker.audit_simulation(sim);
    }
}

/// Runs a built simulation to its configured duration.
fn drive(mut sim: Simulation, checker: &mut InvariantChecker, tel: &Telemetry) -> Outcome {
    advance(&mut sim, checker, u64::MAX);
    let snap = tel.snapshot().unwrap();
    let r = sim.finish();
    Outcome {
        journal: events_jsonl(&snap),
        metrics: metrics_csv(&snap),
        result: r.to_json().to_string_compact(),
        total_ops: r.total_ops,
        per_mds: r.per_mds_requests_total,
    }
}

/// Builds and runs one simulation with one stream per client.
fn run_once(cfg: SimConfig, streams: Vec<Box<dyn OpStream>>) -> Outcome {
    run_kind(BalancerKind::Lunule, fixture().0, cfg, streams, None)
}

/// [`run_once`] under any balancer kind, on namespace `ns`. With
/// `snapshot_at`, the run stops before that tick and stores the FNV-1a
/// digest of the simulation's snapshot bytes, then runs on to its
/// configured duration.
fn run_kind(
    kind: BalancerKind,
    ns: Namespace,
    cfg: SimConfig,
    streams: Vec<Box<dyn OpStream>>,
    snapshot_at: Option<(u64, &mut u64)>,
) -> Outcome {
    let cfg = SimConfig {
        telemetry: Telemetry::enabled(),
        ..cfg
    };
    let tel = cfg.telemetry.clone();
    let balancer = make_balancer(kind, cfg.mds_capacity);
    let mut sim = Simulation::new(cfg, ns, balancer, streams);
    let mut checker = InvariantChecker::default();
    if let Some((tick, digest)) = snapshot_at {
        advance(&mut sim, &mut checker, tick);
        assert_eq!(sim.now(), tick, "run ended before the snapshot tick");
        *digest = fnv1a64(&sim.snapshot().to_bytes());
    }
    drive(sim, &mut checker, &tel)
}

/// Builds and runs one simulation from `(stream, member count)` groups.
fn run_grouped(cfg: SimConfig, groups: Vec<(Box<dyn OpStream>, u64)>) -> Outcome {
    let (ns, _, _) = fixture();
    let cfg = SimConfig {
        telemetry: Telemetry::enabled(),
        ..cfg
    };
    let tel = cfg.telemetry.clone();
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let sim = Simulation::new_grouped(cfg, ns, balancer, groups);
    drive(sim, &mut InvariantChecker::default(), &tel)
}

/// The headline matrix: seeds × fault schedules × knobs, each case checked
/// against its golden digest.
#[test]
fn matrix_matches_golden_digests() {
    type KnobFn = fn(SimConfig) -> SimConfig;
    let plain: KnobFn = |c| c;
    let memory: KnobFn = |c| SimConfig {
        mds_memory_inodes: 40,
        memory_thrash_factor: 0.5,
        ..c
    };
    let datapath: KnobFn = |c| SimConfig {
        data_path: Some(DataPathConfig {
            osd_bandwidth: 4_096,
            client_window: 1_024,
        }),
        ..c
    };
    // Budgets and the data path both bind: rotation order, partial runs
    // and data-debt splits decide the outcome.
    let contended: KnobFn = |c| SimConfig {
        mds_capacity: 25.0,
        data_path: Some(DataPathConfig {
            osd_bandwidth: 160,
            client_window: 16,
        }),
        ..c
    };
    let knobs: [(&str, KnobFn); 4] = [
        ("plain", plain),
        ("memory", memory),
        ("datapath", datapath),
        ("contended", contended),
    ];
    let schedules = [
        ("quiet", FaultPlan::new().build()),
        ("chaotic", chaotic_schedule()),
    ];
    let mut rows = 0;
    let mut drifted = Vec::new();
    for seed in [7u64, 42] {
        for (sched_label, schedule) in &schedules {
            for (knob_label, knob) in &knobs {
                let cfg = knob(SimConfig {
                    faults: schedule.clone(),
                    ..base_cfg(seed)
                });
                let case = format!("seed{seed}/{sched_label}/{knob_label}");
                rows += 1;
                if let Err(e) = run_once(cfg, streams_for(10, seed)).golden_verdict(&case) {
                    drifted.push(e);
                }
            }
        }
    }
    assert_no_drift(rows, &drifted);
}

fn chaotic_schedule() -> FaultSchedule {
    FaultPlan::new()
        .crash(4, MdsRank(1), 5)
        .limp(8, MdsRank(2), 0.5, 6)
        .build()
}

/// Every balancer kind on the `seed7/chaotic/plain` case reproduces its
/// journal, metrics and mid-run snapshot digests. Lunule's journal digest
/// is the matrix's own entry for that case.
#[test]
fn every_balancer_kind_matches_golden() {
    let kinds = [
        BalancerKind::Lunule,
        BalancerKind::LunuleLight,
        BalancerKind::Vanilla,
        BalancerKind::GreedySpill,
        BalancerKind::DirHash,
        BalancerKind::Off,
    ];
    let seed = 7u64;
    let mut missing = Vec::new();
    let mut drifted = Vec::new();
    for kind in kinds {
        let cfg = SimConfig {
            faults: chaotic_schedule(),
            ..base_cfg(seed)
        };
        let mut snapshot = 0u64;
        let out = run_kind(
            kind,
            fixture().0,
            cfg,
            streams_for(10, seed),
            Some((SNAPSHOT_TICK, &mut snapshot)),
        );
        if kind == BalancerKind::Lunule {
            if let Err(e) = out.golden_verdict("seed7/chaotic/plain") {
                drifted.push(format!("{kind} (matrix row) {e}"));
            }
        }
        let (digest, metrics) = (out.digest(), out.metrics_digest());
        let Some(&(_, want_digest, want_metrics, want_snapshot, want_ops)) =
            KIND_GOLDEN.iter().find(|g| g.0 == kind)
        else {
            missing.push(format!(
                "    (BalancerKind::{kind:?}, {digest:#018x}, {metrics:#018x}, \
                 {snapshot:#018x}, {}),",
                out.total_ops
            ));
            continue;
        };
        let mut drift = Vec::new();
        if out.total_ops != want_ops {
            drift.push(format!("total ops {} != {want_ops}", out.total_ops));
        }
        if digest != want_digest {
            drift.push("journal or results drifted".to_string());
        }
        if metrics != want_metrics {
            drift.push("metrics export drifted".to_string());
        }
        if snapshot != want_snapshot {
            drift.push("mid-run snapshot drifted".to_string());
        }
        if !drift.is_empty() {
            drifted.push(format!("{kind}: {}", drift.join("; ")));
        }
    }
    assert!(
        missing.is_empty(),
        "no golden entry; these runs give\n{}",
        missing.join("\n")
    );
    assert_no_drift(kinds.len(), &drifted);
}

/// A wide population of read-only clients, every script distinct so no two
/// cohorts ever merge. Read-only keeps multi-member explosion out of the
/// way: the point is a *large* per-round resolve batch.
fn wide_streams(n: usize, seed: u64) -> Vec<Box<dyn OpStream>> {
    let (_, _, files) = fixture();
    (0..n)
        .map(|c| {
            let mut x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((c as u64) << 9) | 1);
            let ops: Vec<MetaOp> = (0..20)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let d = (x as usize) % DIRS;
                    let f = REMOVE_POOL + ((x >> 32) as usize) % (FILES - REMOVE_POOL);
                    MetaOp::Read(files[d][f])
                })
                .collect();
            Box::new(ScriptStream::new(ops)) as Box<dyn OpStream>
        })
        .collect()
}

/// 320 distinct single-member cohorts: every round resolves hundreds of
/// routes in one batch, and the run must match its golden digest.
#[test]
fn wide_population_matches_golden() {
    let seed = 13u64;
    run_once(base_cfg(seed), wide_streams(320, seed)).assert_golden("wide320");
}

/// Grouped construction (one shared cloneable stream carrying a member
/// count) must journal identically to the same population handed over as
/// per-client streams. This pins the cohort model's aggregation semantics
/// end to end: a group of identical readers is *exactly* k copies of that
/// reader.
#[test]
fn grouped_population_matches_expanded_population() {
    let (_, _, files) = fixture();
    let read_list: Vec<InodeId> = files.iter().map(|d| d[REMOVE_POOL]).collect();
    let second_list: Vec<InodeId> = files[1][REMOVE_POOL..].to_vec();
    let grouped: Vec<(Box<dyn OpStream>, u64)> = vec![
        (
            Box::new(FixedStream::new(read_list.clone())) as Box<dyn OpStream>,
            5,
        ),
        (
            Box::new(FixedStream::new(second_list.clone())) as Box<dyn OpStream>,
            3,
        ),
    ];
    // The same population, expanded one stream per client.
    let expanded: Vec<Box<dyn OpStream>> = (0..8)
        .map(|c| {
            let list = if c < 5 {
                read_list.clone()
            } else {
                second_list.clone()
            };
            Box::new(FixedStream::new(list)) as Box<dyn OpStream>
        })
        .collect();
    let e = run_once(base_cfg(7), expanded);
    let g = run_grouped(base_cfg(7), grouped);
    assert_eq!(
        g, e,
        "grouped population must journal like the expanded one"
    );
    e.assert_golden("expanded8");
}

/// Creates force multi-member cohorts apart (created names derive from the
/// true client id, so members diverge at the moment of creation); the
/// grouped run must still match both its expanded form and the golden
/// digest exactly.
#[test]
fn grouped_creates_match_golden() {
    let (_, dirs, files) = fixture();
    let script = vec![
        MetaOp::Read(files[0][REMOVE_POOL]),
        MetaOp::Create {
            parent: dirs[2],
            size: 16,
        },
        MetaOp::Read(files[3][REMOVE_POOL + 1]),
        MetaOp::Create {
            parent: dirs[4],
            size: 16,
        },
        MetaOp::Read(files[5][REMOVE_POOL + 2]),
    ];
    let group: Vec<(Box<dyn OpStream>, u64)> =
        vec![(Box::new(ScriptStream::new(script.clone())), 6)];
    let singletons: Vec<Box<dyn OpStream>> = (0..6)
        .map(|_| Box::new(ScriptStream::new(script.clone())) as Box<dyn OpStream>)
        .collect();
    let g = run_grouped(base_cfg(11), group);
    let e = run_once(base_cfg(11), singletons);
    assert_eq!(g, e, "create-heavy group must journal like its singletons");
    g.assert_golden("creates6");
}

/// A group whose rank runs out of budget partway through it: the served
/// members advance, and the stalled rest split off mid-round into a cohort
/// whose canonical id moves up to its own lowest member. That cohort is
/// still apart at an epoch close, where the audit checks its canonical id.
/// The grouped run must match its expanded form and the golden digest.
#[test]
fn mid_round_split_matches_golden() {
    let (_, dirs, files) = fixture();
    let mut script: Vec<MetaOp> = files[0][REMOVE_POOL..]
        .iter()
        .map(|f| MetaOp::Read(*f))
        .collect();
    script.push(MetaOp::Create {
        parent: dirs[1],
        size: 16,
    });
    script.extend(files[2][REMOVE_POOL..].iter().map(|f| MetaOp::Read(*f)));
    let cfg = || SimConfig {
        mds_capacity: 8.0,
        ..base_cfg(5)
    };
    let group: Vec<(Box<dyn OpStream>, u64)> =
        vec![(Box::new(ScriptStream::new(script.clone())), 12)];
    let singletons: Vec<Box<dyn OpStream>> = (0..12)
        .map(|_| Box::new(ScriptStream::new(script.clone())) as Box<dyn OpStream>)
        .collect();
    let g = run_grouped(cfg(), group);
    let e = run_once(cfg(), singletons);
    assert_eq!(
        g, e,
        "a group split mid-round must journal like its singletons"
    );
    g.assert_golden("contended12");
}

/// Readers that each read every file once, starting at their own offset,
/// so the first epoch visits every file of a directory within one window:
/// nothing is recurrent and nothing is left unvisited, every migration
/// index reads zero, and the exporter's subtrees are chosen by recent
/// visit counts (the fallback of `LunuleBalancer::on_epoch`).
fn scan_streams(n: usize) -> Vec<Box<dyn OpStream>> {
    let (_, _, files) = fixture();
    let all: Vec<InodeId> = files.iter().flatten().copied().collect();
    (0..n)
        .map(|c| {
            let ops = (0..all.len())
                .map(|k| MetaOp::Read(all[(c * 7 + k) % all.len()]))
                .collect();
            Box::new(ScriptStream::new(ops)) as Box<dyn OpStream>
        })
        .collect()
}

/// The visit-count fallback selects at the first epoch close; a run that
/// skips it selects nothing there and drifts from the golden digest.
#[test]
fn visit_fallback_matches_golden() {
    run_once(base_cfg(3), scan_streams(10)).assert_golden("scan10");
}

/// Two levels of directories, `a{i}/b{j}`, with files only at the
/// bottom; returns the namespace and its files, directory by directory.
fn nested_fixture() -> (Namespace, Vec<InodeId>) {
    let mut ns = Namespace::new();
    let mut files = Vec::new();
    for i in 0..3 {
        let a = ns.mkdir(InodeId::ROOT, &format!("a{i}")).unwrap();
        for j in 0..3 {
            let b = ns.mkdir(a, &format!("b{j}")).unwrap();
            files.extend((0..6).map(|f| ns.create_file(b, &format!("f{f}"), 8).unwrap()));
        }
    }
    (ns, files)
}

/// Readers of [`nested_fixture`]'s files, a third of their reads on the
/// 18 files under `a0`.
fn nested_streams(n: usize, seed: u64, files: &[InodeId]) -> Vec<Box<dyn OpStream>> {
    (0..n)
        .map(|c| {
            let mut x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((c as u64) << 9) | 1);
            let ops = (0..120)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let pool = if x.is_multiple_of(3) { 18 } else { files.len() };
                    MetaOp::Read(files[((x >> 20) as usize) % pool])
                })
                .collect();
            Box::new(ScriptStream::new(ops)) as Box<dyn OpStream>
        })
        .collect()
}

/// Lunule on a two-level tree exports directories and fragments inside
/// one another, so some clients come to cache their op's live fragment
/// under the rank of the directory around it while the fragment is a
/// bound of its own on another rank. The next op there pays one forward
/// and relearns the entry. The flat [`fixture`] never leaves such an
/// entry.
#[test]
fn nested_bounds_match_golden() {
    let seed = 2;
    let cfg = SimConfig {
        n_mds: 4,
        mds_capacity: 40.0,
        duration_secs: 45,
        ..base_cfg(seed)
    };
    let (ns, files) = nested_fixture();
    let streams = nested_streams(12, seed, &files);
    run_kind(BalancerKind::Lunule, ns, cfg, streams, None).assert_golden("nested12");
}
