//! The fixed microbenchmark basket behind `BENCH.json`: hot paths of the
//! simulator, balancer, namespace, and telemetry measured under the
//! warmup + median-of-K protocol in `lunule_bench::perf`.
//!
//! Every benchmark performs a *fixed* amount of deterministic work per
//! round, so `ns_per_op` is comparable across machines of the same class
//! and across PRs on the same machine — the latter is what the CI `bench`
//! job guards via `xtask bench-diff` against `bench-baseline.json`. The
//! `tick_loop_*` cells build their simulations before timing starts, so
//! they measure ticks alone (`ns_per_op` is nanoseconds per tick).
//!
//! `--quick` selects the CI protocol (1 warmup, median of 3); the work per
//! round is identical in both modes so quick and full numbers stay
//! comparable. `--out` names either a directory (gets `BENCH.json` inside)
//! or a `.json` file path. Benchmarks run sequentially on purpose —
//! parallel timing runs would contend for cores and poison the medians —
//! so `--jobs` is accepted but ignored here.

use std::hint::black_box;
use std::process::ExitCode;

use lunule_bench::perf::to_bench_json;
use lunule_bench::{
    build_sim, default_sim, run_bench, BenchResult, CommonArgs, Protocol, ScaleSpec,
};
use lunule_core::{
    build_candidates, decide_roles, make_balancer, select_subtrees, Access, AnalyzerConfig,
    Balancer, BalancerKind, Candidate, EpochStats, ExportTask, IfModelConfig, ImbalanceFactorModel,
    LoadHistory, LunuleBalancer, LunuleConfig, MigrationPlan, OpKind, PatternAnalyzer, RoleConfig,
    SubtreeChoice,
};
use lunule_namespace::{
    build_flat_dataset, dentry_hash, AuthorityCache, FlatDataset, Frag, FragKey, FragSet, InodeId,
    MdsRank, Namespace, SubtreeMap,
};
use lunule_sim::{FixedStream, Migrator, OpStream, SimConfig, Simulation};
use lunule_telemetry::Telemetry;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// The tiny-but-representative simulation cell shared by the end-to-end
/// benchmarks: 8 clients on a Zipf read workload over 4 MDSs.
fn bench_cell() -> (WorkloadSpec, SimConfig) {
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 8,
        scale: 0.005,
        seed: 42,
    };
    let sim = SimConfig {
        n_mds: 4,
        duration_secs: 240,
        ..default_sim()
    };
    (spec, sim)
}

fn run_cell(balancer: BalancerKind, telemetry: Telemetry) -> u64 {
    let (spec, mut sim) = bench_cell();
    sim.telemetry = telemetry;
    let (ns, streams) = spec.build();
    let b = make_balancer(balancer, sim.mds_capacity);
    let r = Simulation::new(sim, ns, b, streams).run();
    r.total_ops
}

/// End-to-end simulator tick loop (issue rounds, budgets, routing).
fn sim_tick_loop(p: Protocol) -> BenchResult {
    run_bench("sim_tick_loop", p, || {
        run_cell(BalancerKind::Vanilla, Telemetry::disabled())
    })
}

/// Telemetry overhead pair: the same cell with the collector off and on.
fn telemetry_off(p: Protocol) -> BenchResult {
    run_bench("telemetry_off", p, || {
        run_cell(BalancerKind::Lunule, Telemetry::disabled())
    })
}

fn telemetry_on(p: Protocol) -> BenchResult {
    run_bench("telemetry_on", p, || {
        run_cell(BalancerKind::Lunule, Telemetry::enabled())
    })
}

/// Balancer epoch close with the IF-model math: a stream of recorded
/// accesses followed by `on_epoch` over a multi-rank namespace.
fn balancer_epoch_if(p: Protocol) -> BenchResult {
    // 40 directories of 25 files each; accesses rotate through them.
    let mut ns = Namespace::new();
    let mut files = Vec::new();
    for d in 0..40 {
        let dir = ns
            .mkdir(InodeId::ROOT, &format!("d{d}"))
            .unwrap_or(InodeId::ROOT);
        for f in 0..25 {
            if let Ok(id) = ns.create_file(dir, &format!("f{f}"), 0) {
                files.push(id);
            }
        }
    }
    let map = SubtreeMap::new(MdsRank(0));
    const N_MDS: usize = 4;
    const EPOCHS: u64 = 30;
    run_bench("balancer_epoch_if", p, || {
        let mut balancer = LunuleBalancer::new(LunuleConfig::default());
        let mut accesses = 0u64;
        for epoch in 0..EPOCHS {
            let mut requests = vec![0u64; N_MDS];
            for (i, ino) in files.iter().enumerate() {
                // Skewed: rank 0 serves most files, mimicking a hotspot.
                let rank = if i % 4 == 0 { i % N_MDS } else { 0 };
                balancer.record_access(
                    &ns,
                    Access {
                        ino: *ino,
                        served_by: MdsRank(rank as u16),
                        kind: OpKind::Read,
                    },
                );
                requests[rank] += 1;
                accesses += 1;
            }
            let stats = EpochStats::new(epoch, 10.0, requests);
            let _plan = balancer.on_epoch(&ns, &map, &stats);
        }
        accesses
    })
}

/// Dirfrag split churn plus hash→frag resolution, on a fresh set each
/// round.
fn frag_split(p: Protocol) -> BenchResult {
    const ROUNDS: u64 = 400;
    const LOOKUPS: u64 = 256;
    run_bench("frag_split", p, || {
        let mut ops = 0u64;
        for round in 0..ROUNDS {
            let mut set = FragSet::new_root();
            // Churn: root → 4 frags → 16 frags, then resolve.
            set.split(&Frag::root(), 2);
            ops += 1;
            for f in Frag::root().split(2) {
                set.split(&f, 2);
                ops += 1;
            }
            for k in 0..LOOKUPS {
                let h = dentry_hash(round.wrapping_mul(LOOKUPS) + k);
                black_box(set.frag_for_hash(h));
                ops += 1;
            }
        }
        ops
    })
}

/// A balancer that re-exports every top-level directory each epoch,
/// keeping the migration pipeline saturated regardless of load.
struct ChurnBalancer {
    dirs: Vec<InodeId>,
    n_mds: usize,
    epoch: u64,
}

impl Balancer for ChurnBalancer {
    fn name(&self) -> &'static str {
        "PerfChurn"
    }

    fn record_access(&mut self, _ns: &Namespace, _access: Access) {}

    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, _stats: &EpochStats) -> MigrationPlan {
        self.epoch += 1;
        let mut exports: Vec<ExportTask> = Vec::new();
        for (i, dir) in self.dirs.iter().enumerate() {
            let from = map.frag_authority(ns, *dir, &Frag::root());
            let to = MdsRank(((i as u64 + self.epoch) % self.n_mds as u64) as u16);
            if from == to {
                continue;
            }
            exports.push(ExportTask {
                from,
                to,
                target_amount: 1.0,
                subtrees: vec![SubtreeChoice {
                    subtree: FragKey::whole(*dir),
                    estimated_load: 1.0,
                }],
            });
        }
        MigrationPlan { exports }
    }
}

/// Migration pipeline throughput: subtrees exported/committed per epoch by
/// a balancer that always migrates; ops = inodes shipped.
fn migration_pipeline(p: Protocol) -> BenchResult {
    run_bench("migration_pipeline", p, || {
        let mut ns = Namespace::new();
        let mut dirs = Vec::new();
        for d in 0..8 {
            let dir = ns
                .mkdir(InodeId::ROOT, &format!("m{d}"))
                .unwrap_or(InodeId::ROOT);
            for f in 0..200 {
                let _ = ns.create_file(dir, &format!("f{f}"), 0);
            }
            dirs.push(dir);
        }
        let sim = SimConfig {
            n_mds: 4,
            epoch_secs: 5,
            duration_secs: 150,
            stop_when_done: false,
            migration_bw: 50_000.0,
            ..default_sim()
        };
        let balancer = Box::new(ChurnBalancer {
            dirs,
            n_mds: sim.n_mds,
            epoch: 0,
        });
        let r = Simulation::new(sim, ns, balancer, Vec::new()).run();
        r.migrated_inodes()
    })
}

/// Cohorts, ticks before timing and timed ticks of each commit-heavy
/// simulation.
const COMMIT_COHORTS: usize = 1_024;
const COMMIT_WARMUP_TICKS: u64 = 10;
const COMMIT_TICKS: u64 = 40;

/// A simulation whose ticks are mostly migration commits handed to many
/// client caches: 1,024 single-member cohorts, each of which reads one
/// file in each of 8 of the 64 leaf directories under 8 parents and then
/// finishes, keeping those 8 directories cached. [`ChurnBalancer`]
/// re-exports every leaf each 2-tick epoch, so each epoch commits a
/// batch of about 60 jobs whose cache hand-off visits every cohort. The
/// reads finish during the [`COMMIT_WARMUP_TICKS`] run before timing.
fn commit_cohorts_sim() -> Simulation {
    let mut ns = Namespace::new();
    let mut exported = Vec::new();
    let mut leaves = Vec::new();
    for p in 0..8 {
        let parent = ns.mkdir_total(InodeId::ROOT, &format!("p{p}"));
        for d in 0..8 {
            let leaf = ns.mkdir_total(parent, &format!("d{d}"));
            let files: Vec<InodeId> = (0..16)
                .map(|f| ns.create_file_total(leaf, &format!("f{f}"), 0))
                .collect();
            exported.push(leaf);
            leaves.push(files);
        }
    }
    let groups: Vec<(Box<dyn OpStream>, u64)> = (0..COMMIT_COHORTS)
        .map(|g| {
            let reads = (0..8)
                .map(|k| leaves[(g + 8 * k) % leaves.len()][g % 16])
                .collect();
            (Box::new(FixedStream::new(reads)) as Box<dyn OpStream>, 1)
        })
        .collect();
    let cfg = SimConfig {
        n_mds: 16,
        mds_capacity: 20_000.0,
        epoch_secs: 2,
        duration_secs: COMMIT_WARMUP_TICKS + COMMIT_TICKS,
        stop_when_done: false,
        migration_bw: 50_000.0,
        ..default_sim()
    };
    let balancer = Box::new(ChurnBalancer {
        dirs: exported,
        n_mds: cfg.n_mds,
        epoch: 0,
    });
    let mut sim = Simulation::new_grouped(cfg, ns, balancer, groups);
    sim.run_until(COMMIT_WARMUP_TICKS);
    sim
}

/// Migration commit across many cohorts, simulations built and warmed
/// before timing as in [`tick_loop`]; `ns_per_op` is the cost of one
/// tick, most of it the commit batches' cache hand-off.
fn migration_commit_cohorts(p: Protocol) -> BenchResult {
    let mut sims: Vec<Simulation> = (0..p.warmup + p.rounds)
        .map(|_| commit_cohorts_sim())
        .collect();
    let mut next = sims.iter_mut();
    run_bench("migration_commit_cohorts", p, || {
        next.next().map_or(0, step_to_end)
    })
}

/// Ranks, exporting ranks, directories, files per directory and timed
/// epoch closes of [`epoch_close_plan`]. Each exporter sheds eight
/// importers' worth of load, so every epoch close pairs 64 times; with no
/// reads between closes, the third would find the indices decayed.
const PLAN_RANKS: usize = 72;
const PLAN_EXPORTERS: usize = 8;
const PLAN_DIRS: usize = 288;
const PLAN_FILES: usize = 128;
const PLAN_EPOCHS: u64 = 2;

/// One epoch close's inputs and the migrator its plan goes to.
struct PlanFixture {
    ns: Namespace,
    map: SubtreeMap,
    balancer: LunuleBalancer,
    migrator: Migrator,
}

/// An aged, fragmented cluster: [`PLAN_DIRS`] directories of
/// [`PLAN_FILES`] files dealt round-robin over [`PLAN_RANKS`] ranks,
/// every third one split into 2, 4 or 8 fragments with its last fragment
/// delegated to the next rank; and a Lunule balancer that saw three idle
/// windows of reads over all, half and a third of every directory.
fn plan_fixture() -> PlanFixture {
    let mut ns = Namespace::new();
    // The root, and every directory it keeps, sits on an importer.
    let mut map = SubtreeMap::new(MdsRank::from_index(PLAN_RANKS - 1));
    let mut files = Vec::new();
    for d in 0..PLAN_DIRS {
        let dir = ns.mkdir_total(InodeId::ROOT, &format!("d{d}"));
        let kids: Vec<InodeId> = (0..PLAN_FILES)
            .map(|f| ns.create_file_total(dir, &format!("f{f}"), 0))
            .collect();
        map.set_authority(FragKey::whole(dir), MdsRank::from_index(d % PLAN_RANKS));
        if d % 3 == 0 {
            let by = 1 + (d / 3 % 3) as u8;
            let frags = ns.split_frag(dir, &Frag::root(), by).unwrap_or_default();
            if let Some(&frag) = frags.last() {
                let next = MdsRank::from_index((d + 1) % PLAN_RANKS);
                map.set_authority(FragKey { dir, frag }, next);
            }
        }
        files.push(kids);
    }
    map.simplify(&ns);
    let mut balancer = LunuleBalancer::new(LunuleConfig::for_capacity(40.0));
    for window in 0..3 {
        for kids in &files {
            for f in kids.iter().step_by(1 + window) {
                let access = Access {
                    ino: *f,
                    served_by: MdsRank(0),
                    kind: OpKind::Read,
                };
                balancer.record_access(&ns, access);
            }
        }
        let idle = EpochStats::new(window as u64, 10.0, vec![0; PLAN_RANKS]);
        black_box(balancer.on_epoch(&ns, &map, &idle));
    }
    PlanFixture {
        ns,
        map,
        balancer,
        migrator: Migrator::new(50_000.0, 1, 0.0),
    }
}

/// The skewed load report of timed epoch `epoch`: the exporters at 18 of
/// their 40 IOPS, the other ranks idle.
fn plan_stats(epoch: u64) -> EpochStats {
    let requests = (0..PLAN_RANKS)
        .map(|r| if r < PLAN_EXPORTERS { 180 } else { 0 })
        .collect();
    EpochStats::new(3 + epoch, 10.0, requests)
}

/// Epoch close on an aged, fragmented map: Lunule's `on_epoch` (candidate
/// walk, 64 pairings, selection) plus the migrator's `enqueue_plan`
/// (fragment splits, inode counts, overlap tests) for [`PLAN_EPOCHS`]
/// closes per round, fixtures built before timing; `ns_per_op` is the
/// cost of one close.
fn epoch_close_plan(p: Protocol) -> BenchResult {
    let mut fixtures: Vec<PlanFixture> = (0..p.warmup + p.rounds).map(|_| plan_fixture()).collect();
    let mut next = fixtures.iter_mut();
    run_bench("epoch_close_plan", p, || {
        let Some(fx) = next.next() else {
            return 0;
        };
        for epoch in 0..PLAN_EPOCHS {
            let plan = fx.balancer.on_epoch(&fx.ns, &fx.map, &plan_stats(epoch));
            fx.migrator.enqueue_plan(&mut fx.ns, &fx.map, &plan, epoch);
        }
        PLAN_EPOCHS
    })
}

/// The deep-namespace fixture shared by the authority benchmarks: a
/// 12-level directory chain with authority boundaries at three depths and
/// 64 files at the bottom.
fn authority_fixture() -> (Namespace, SubtreeMap, Vec<InodeId>) {
    let mut ns = Namespace::new();
    let mut dir = InodeId::ROOT;
    let mut levels = Vec::new();
    for d in 0..12 {
        dir = ns.mkdir(dir, &format!("l{d}")).unwrap_or(dir);
        levels.push(dir);
    }
    let files: Vec<InodeId> = (0..64)
        .filter_map(|f| ns.create_file(dir, &format!("f{f}"), 0).ok())
        .collect();
    let mut map = SubtreeMap::new(MdsRank(0));
    map.set_authority(FragKey::whole(levels[3]), MdsRank(1));
    map.set_authority(FragKey::whole(levels[7]), MdsRank(2));
    map.set_authority(FragKey::whole(levels[10]), MdsRank(3));
    (ns, map, files)
}

/// Subtree-authority resolution as the simulator performs it per op: a
/// tick-scoped [`AuthorityCache`] memoizes the walk, so the steady state is
/// one paged-map probe instead of a parent-link climb. The cache is rebuilt
/// every round (`sync` + cold misses) exactly like a tick boundary after a
/// subtree-map mutation, so the number includes the amortized fill cost.
fn authority_resolve(p: Protocol) -> BenchResult {
    let (ns, map, files) = authority_fixture();
    const REPS: u64 = 2_000;
    run_bench("authority_resolve", p, || {
        let mut auth = AuthorityCache::new();
        let mut ops = 0u64;
        for _ in 0..REPS {
            for ino in &files {
                black_box(auth.authority(&map, &ns, *ino));
                ops += 1;
            }
        }
        ops
    })
}

/// Per-op routing as the simulator performs it: the fragment a dentry
/// hashes into and the rank serving it, through a fresh
/// [`AuthorityCache`] per round. The fixture's bottom directory is split
/// into four fragments, one of them pinned to its own rank, so every
/// lookup scans a four-entry route table.
fn child_route(p: Protocol) -> BenchResult {
    let (mut ns, mut map, files) = authority_fixture();
    let dir = files
        .first()
        .and_then(|f| ns.inode(*f).parent())
        .unwrap_or(InodeId::ROOT);
    let frags = ns.split_frag(dir, &Frag::root(), 2).unwrap_or_default();
    if let Some(frag) = frags.get(1) {
        map.set_authority(FragKey { dir, frag: *frag }, MdsRank(4));
    }
    let hashes: Vec<u32> = files.iter().map(|f| dentry_hash(f.raw())).collect();
    const REPS: u64 = 2_000;
    run_bench("child_route", p, || {
        let mut auth = AuthorityCache::new();
        let mut ops = 0u64;
        for _ in 0..REPS {
            for &hash in &hashes {
                black_box(auth.child_route(&map, &ns, dir, hash));
                ops += 1;
            }
        }
        ops
    })
}

/// The uncached walk the cache replaced — kept as the reference cell so
/// the memoization win stays visible (and honest) in BENCH.json.
fn authority_walk(p: Protocol) -> BenchResult {
    let (ns, map, files) = authority_fixture();
    const REPS: u64 = 2_000;
    run_bench("authority_walk", p, || {
        let mut ops = 0u64;
        for _ in 0..REPS {
            for ino in &files {
                black_box(map.authority(&ns, *ino));
                ops += 1;
            }
        }
        ops
    })
}

/// Epoch-close candidate aggregation at 10^6 inodes: 1,000 directories of
/// 1,000 files, each directory's root fragment pinned round-robin over 128
/// ranks, every tenth directory split into four fragments pinned the same
/// way. The namespace is built once, outside the timed closure; ops = calls
/// of `build_candidates`, so `ns_per_op` is the cost of one aggregation.
fn build_candidates_1m(p: Protocol) -> BenchResult {
    const DIRS: usize = 1_000;
    const FILES: usize = 1_000;
    const RANKS: usize = 128;
    const CALLS: u64 = 20;
    let mut ns = Namespace::new();
    let mut map = SubtreeMap::new(MdsRank(0));
    let mut pins = 0usize;
    let mut pin = |map: &mut SubtreeMap, key: FragKey| {
        map.set_authority(key, MdsRank::from_index(pins % RANKS));
        pins += 1;
    };
    for d in 0..DIRS {
        let dir = ns
            .mkdir(InodeId::ROOT, &format!("d{d:04}"))
            .unwrap_or(InodeId::ROOT);
        for f in 0..FILES {
            let _ = ns.create_file(dir, &format!("f{f:06}"), 0);
        }
        if d % 10 == 0 {
            for frag in ns.split_frag(dir, &Frag::root(), 2).unwrap_or_default() {
                pin(&mut map, FragKey { dir, frag });
            }
        } else {
            pin(&mut map, FragKey::whole(dir));
        }
    }
    let local = |d: InodeId| (d.raw() % 97 + 1) as f64;
    run_bench("build_candidates_1m", p, || {
        for _ in 0..CALLS {
            black_box(build_candidates(&ns, &map, &local));
        }
        CALLS
    })
}

/// Ticks each tick-loop simulation runs: 20 epochs of 2 s.
const TICK_LOOP_TICKS: u64 = 40;

/// The shape of the tick-loop cells: a megascale-style cohort run of 64
/// groups over 256 directories of 32 files on 128 ranks. At 1k clients
/// the loop is dominated by migration work, at 100k by cohort issue
/// rounds over the same namespace.
fn tick_loop_spec(clients: u64) -> ScaleSpec {
    ScaleSpec {
        clients,
        groups: 64,
        dirs: 256,
        files_per_dir: 32,
        n_mds: 128,
        duration_secs: TICK_LOOP_TICKS,
        epoch_secs: 2,
        seed: 42,
    }
}

/// Steps `sim` until its configured duration ends; returns the ticks run.
fn step_to_end(sim: &mut Simulation) -> u64 {
    let mut ticks = 0;
    while sim.step() {
        ticks += 1;
    }
    ticks
}

/// The tick loop alone: one simulation per round is built before timing
/// starts, and each round steps the next one to the end, so neither
/// `build_sim` nor the drop is timed. ops = ticks, so `ns_per_op` is the
/// cost of one tick.
fn tick_loop(name: &str, clients: u64, p: Protocol) -> BenchResult {
    let spec = tick_loop_spec(clients);
    let mut sims: Vec<Simulation> = (0..p.warmup + p.rounds)
        .map(|_| build_sim(&spec, Telemetry::disabled()))
        .collect();
    let mut next = sims.iter_mut();
    run_bench(name, p, || next.next().map_or(0, step_to_end))
}

/// Ticks each sparse-round simulation runs.
const SPARSE_TICKS: u64 = 40;

/// A tick loop whose rounds are mostly sparse: 200 singleton Zipf readers
/// on 8 ranks of capacity 500, each allowed the default 500 ops per tick.
/// Ranks run out of budget long before the clients run out of rate, and
/// once a rank is drained every client routed to it sits out the tick,
/// so most rounds serve a handful of the 200 cohorts (about 12 on
/// average, over ~225 rounds per tick).
fn sparse_sim() -> Simulation {
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 200,
        scale: 0.05,
        seed: 42,
    };
    let cfg = SimConfig {
        n_mds: 8,
        mds_capacity: 500.0,
        duration_secs: SPARSE_TICKS,
        stop_when_done: false,
        seed: 42,
        ..SimConfig::default()
    };
    let (ns, streams) = spec.build();
    let b = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    Simulation::new(cfg, ns, b, streams)
}

/// The sparse-round tick loop alone, simulations built before timing as
/// in [`tick_loop`]; `ns_per_op` is the cost of one tick.
fn tick_loop_sparse(p: Protocol) -> BenchResult {
    let mut sims: Vec<Simulation> = (0..p.warmup + p.rounds).map(|_| sparse_sim()).collect();
    let mut next = sims.iter_mut();
    run_bench("tick_loop_sparse_c200_m8", p, || {
        next.next().map_or(0, step_to_end)
    })
}

/// Ticks each cold-arena simulation runs before timing starts, and then
/// while timed.
const COLD_WARMUP_TICKS: u64 = 200;
const COLD_TICKS: u64 = 40;

/// A tick loop whose per-op records do not fit in cache: 200 singleton
/// Zipf readers over 300,000 files on 16 ranks, configured like the
/// benchmark's zipf_read. The inode arena (56 B a record, ~16 MiB) and the
/// analyzer's per-inode table (~7 MiB) are several times a 4 MiB L2, so
/// each op's inode and visit record are cache misses, which
/// `tick_loop_sparse_c200_m8`'s ~100,000 inodes mostly are not. The first
/// ticks serve everything from rank 0 until the balancer spreads the
/// load, so each simulation runs [`COLD_WARMUP_TICKS`] before timing.
fn cold_sim() -> Simulation {
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 200,
        scale: 0.15,
        seed: 42,
    };
    let cfg = SimConfig {
        n_mds: 16,
        mds_capacity: 500.0,
        epoch_secs: 10,
        duration_secs: COLD_WARMUP_TICKS + COLD_TICKS,
        stop_when_done: false,
        migration_bw: 5_000.0,
        migration_op_cost: 0.02,
        client_rate: 50.0,
        client_cache_cap: 256,
        seed: 42,
        ..SimConfig::default()
    };
    let (ns, streams) = spec.build();
    let b = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let mut sim = Simulation::new(cfg, ns, b, streams);
    sim.run_until(COLD_WARMUP_TICKS);
    sim
}

/// The cold-arena tick loop alone, simulations built before timing as in
/// [`tick_loop`]; `ns_per_op` is the cost of one tick.
fn tick_loop_cold(p: Protocol) -> BenchResult {
    let mut sims: Vec<Simulation> = (0..p.warmup + p.rounds).map(|_| cold_sim()).collect();
    let mut next = sims.iter_mut();
    run_bench("tick_loop_cold_c200_m16", p, || {
        next.next().map_or(0, step_to_end)
    })
}

/// Ticks each mixed simulation runs before timing starts, and then while
/// timed.
const MIXED_WARMUP_TICKS: u64 = 200;
const MIXED_TICKS: u64 = 40;

/// service_mixed's shape at a small scale: the four-way mixture (CNN,
/// NLP, Web and Zipf groups of 50 singleton clients, ~59,000 inodes) on
/// 8 ranks of capacity 500, an epoch every 20 ticks. The Web clients
/// read across many directories, so their route caches fill to the
/// 256-entry cap, which no other cell's clients do; each simulation runs
/// [`MIXED_WARMUP_TICKS`] before timing to get them there.
fn mixed_sim() -> Simulation {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Mixed,
        clients: 200,
        scale: 0.02,
        seed: 42,
    };
    let cfg = SimConfig {
        n_mds: 8,
        mds_capacity: 500.0,
        epoch_secs: 20,
        duration_secs: MIXED_WARMUP_TICKS + MIXED_TICKS,
        stop_when_done: false,
        seed: 42,
        ..SimConfig::default()
    };
    let (ns, streams) = spec.build();
    let b = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let mut sim = Simulation::new(cfg, ns, b, streams);
    sim.run_until(MIXED_WARMUP_TICKS);
    sim
}

/// The mixed tick loop alone, simulations built and warmed before timing
/// as in [`tick_loop`]; `ns_per_op` is the cost of one tick.
fn tick_loop_mixed(p: Protocol) -> BenchResult {
    let mut sims: Vec<Simulation> = (0..p.warmup + p.rounds).map(|_| mixed_sim()).collect();
    let mut next = sims.iter_mut();
    run_bench("tick_loop_mixed_c200_m8", p, || {
        next.next().map_or(0, step_to_end)
    })
}

/// Ticks each stalled-cohort simulation runs before timing starts (long
/// enough for the balancer to spread the groups over the ranks and for
/// them to split), and the ticks timed: eight of them close an epoch.
const STALLED_WARMUP_TICKS: u64 = 300;
const STALLED_TICKS: u64 = 40;

/// A grouped population that asks for some 80 times what the cluster
/// serves: 256 groups of 2,000 members over 1,000 directories of 32
/// files, on 64 ranks of capacity 500, an epoch every 5 ticks. Once the
/// groups have split, most cohorts stall on a spent rank every tick, so
/// most routes and cohort states carry over unchanged from one tick, and
/// one epoch close, to the next.
fn stalled_sim() -> Simulation {
    let spec = ScaleSpec {
        clients: 512_000,
        groups: 256,
        dirs: 1_000,
        files_per_dir: 32,
        n_mds: 64,
        duration_secs: STALLED_WARMUP_TICKS + STALLED_TICKS,
        epoch_secs: 5,
        seed: 42,
    };
    let mut sim = build_sim(&spec, Telemetry::disabled());
    sim.run_until(STALLED_WARMUP_TICKS);
    sim
}

/// The stalled-cohort tick loop alone, epoch closes included,
/// simulations built and warmed before timing as in [`tick_loop`];
/// `ns_per_op` is the cost of one tick.
fn tick_loop_stalled(p: Protocol) -> BenchResult {
    let mut sims: Vec<Simulation> = (0..p.warmup + p.rounds).map(|_| stalled_sim()).collect();
    let mut next = sims.iter_mut();
    run_bench("tick_loop_stalled_cohorts", p, || {
        next.next().map_or(0, step_to_end)
    })
}

/// A flat dataset of `dirs` directories of `files_per_dir` files, with its
/// directories and its files in scan order.
fn flat_fixture(dirs: usize, files_per_dir: usize) -> (Namespace, Vec<InodeId>, Vec<InodeId>) {
    let mut ns = Namespace::new();
    let ds = build_flat_dataset(
        &mut ns,
        "bench",
        FlatDataset {
            dirs,
            files_per_dir,
            file_size: 1,
        },
    );
    let dir_ids = ds.dirs.iter().map(|(d, _)| *d).collect();
    (ns, dir_ids, ds.files_in_scan_order())
}

/// Analyzer state after a partial scan of a flat 200 × 50 dataset: every
/// second file visited. A full scan leaves no unvisited file, so α = β = 0
/// and every mIndex reads 0; half a scan gives every directory a live
/// index.
fn analyzer_fixture() -> (Namespace, Vec<InodeId>, PatternAnalyzer) {
    let (ns, dirs, files) = flat_fixture(200, 50);
    let mut an = PatternAnalyzer::new(AnalyzerConfig::default());
    for f in files.iter().step_by(2) {
        an.record_access(&ns, *f, false);
    }
    (ns, dirs, an)
}

/// Load units the selector cell asks the candidates to cover.
const SELECT_AMOUNT: f64 = 500.0;

/// The selector's input: mIndex-weighted candidates over the analyzer
/// fixture, all on one rank.
fn selection_fixture() -> (Namespace, Vec<Candidate>) {
    let (ns, _, an) = analyzer_fixture();
    let map = SubtreeMap::new(MdsRank(0));
    let candidates = build_candidates(&ns, &map, &|d| an.mindex_of(d));
    (ns, candidates)
}

/// The pattern analyzer's per-access update, in steady state: one
/// analyzer is carried across rounds over a flat 100 × 100 dataset, so
/// after the warmup every access is a repeat in the current window.
fn record_access(p: Protocol) -> BenchResult {
    let (ns, _, files) = flat_fixture(100, 100);
    let mut an = PatternAnalyzer::new(AnalyzerConfig::default());
    const PASSES: u64 = 10;
    run_bench("record_access", p, || {
        for _ in 0..PASSES {
            for f in &files {
                an.record_access(&ns, *f, false);
            }
        }
        PASSES * files.len() as u64
    })
}

/// One mIndex lookup, the local load fed into candidate aggregation.
fn mindex_of(p: Protocol) -> BenchResult {
    let (_, dirs, an) = analyzer_fixture();
    const PASSES: u64 = 500;
    run_bench("mindex_of", p, || {
        for _ in 0..PASSES {
            for d in &dirs {
                black_box(an.mindex_of(black_box(*d)));
            }
        }
        PASSES * dirs.len() as u64
    })
}

/// The IF model over 16 ranks' loads.
fn imbalance_factor_16(p: Protocol) -> BenchResult {
    let model = ImbalanceFactorModel::new(IfModelConfig::default());
    let loads: Vec<f64> = (0..16).map(|i| (i * 37 % 100) as f64 * 50.0).collect();
    const CALLS: u64 = 100_000;
    run_bench("imbalance_factor_16", p, || {
        for _ in 0..CALLS {
            black_box(model.imbalance_factor(black_box(&loads)));
        }
        CALLS
    })
}

/// Algorithm 1 (role decision) over 16 ranks with a full load history.
fn decide_roles_16(p: Protocol) -> BenchResult {
    let cfg = RoleConfig::default();
    let loads: Vec<f64> = (0..16).map(|i| ((i * 61) % 97) as f64 * 40.0).collect();
    let mut history = LoadHistory::new(6);
    for e in 0..6u64 {
        history.push(&EpochStats::new(
            e,
            10.0,
            loads.iter().map(|l| (*l * 10.0) as u64).collect(),
        ));
    }
    const CALLS: u64 = 10_000;
    run_bench("decide_roles_16", p, || {
        for _ in 0..CALLS {
            black_box(decide_roles(black_box(&loads), &history, &cfg));
        }
        CALLS
    })
}

/// Subtree selection over the analyzer fixture's candidates; ops = calls.
fn select_subtrees_cell(p: Protocol) -> BenchResult {
    let (ns, candidates) = selection_fixture();
    const CALLS: u64 = 1_000;
    run_bench("select_subtrees", p, || {
        for _ in 0..CALLS {
            black_box(select_subtrees(&ns, black_box(&candidates), SELECT_AMOUNT));
        }
        CALLS
    })
}

/// Root-ward inode chain of every file in a flat 100 × 100 dataset.
fn path_chain(p: Protocol) -> BenchResult {
    let (ns, _, files) = flat_fixture(100, 100);
    run_bench("path_chain", p, || {
        for f in &files {
            black_box(ns.path_chain(black_box(*f)));
        }
        files.len() as u64
    })
}

/// Dirfrag containment over the `path_chain` fixture's files: each file
/// against the whole dataset root (inside, two steps up) and against the
/// left half of the first directory (outside for most files, a walk to
/// `/`). ops = containment checks.
fn in_dirfrag(p: Protocol) -> BenchResult {
    let (ns, dirs, files) = flat_fixture(100, 100);
    let root = ns.inode(dirs[0]).parent().unwrap_or(InodeId::ROOT);
    let (left, _) = Frag::root().split_in_two();
    let keys = [(root, Frag::root()), (dirs[0], left)];
    run_bench("in_dirfrag", p, || {
        for f in &files {
            for (dir, frag) in &keys {
                black_box(ns.in_dirfrag(*dir, frag, black_box(*f)));
            }
        }
        (files.len() * keys.len()) as u64
    })
}

/// File creation: each round fills a fresh directory with 10,000 files
/// whose names are formatted before timing starts.
fn create_file(p: Protocol) -> BenchResult {
    let names: Vec<String> = (0..10_000).map(|f| format!("f{f}")).collect();
    run_bench("create_file", p, || {
        let mut ns = Namespace::new();
        let dir = ns.mkdir_total(InodeId::ROOT, "bench");
        for name in &names {
            black_box(ns.create_file_total(dir, name, 0));
        }
        names.len() as u64
    })
}

/// Files in the directory each unlink cell empties.
const UNLINK_FILES: usize = 10_000;

/// Unlinking: each round empties its own directory of 10,000 files, built
/// before timing starts, in creation order (`fifo`, mdtest's remove
/// phase) or in reverse. ops = unlinks.
fn unlink(name: &str, fifo: bool, p: Protocol) -> BenchResult {
    let mut dirs: Vec<(Namespace, Vec<InodeId>)> = (0..p.warmup + p.rounds)
        .map(|_| {
            let (ns, _, mut files) = flat_fixture(1, UNLINK_FILES);
            if !fifo {
                files.reverse();
            }
            (ns, files)
        })
        .collect();
    let mut next = dirs.iter_mut();
    run_bench(name, p, || {
        let Some((ns, files)) = next.next() else {
            return 0;
        };
        for f in files.iter() {
            black_box(ns.unlink(*f).is_ok());
        }
        files.len() as u64
    })
}

/// Snapshot decoding of a namespace section: a flat 20 × 5,000 dataset
/// encoded once, decoded (and so checked) every round. ops = inodes, so
/// `ns_per_op` is the restore cost per inode.
fn namespace_decode(p: Protocol) -> BenchResult {
    let (ns, _, _) = flat_fixture(20, 5_000);
    let mut e = lunule_util::codec::Encoder::new();
    ns.encode(&mut e);
    let bytes = e.into_bytes();
    run_bench("namespace_decode", p, || {
        let mut d = lunule_util::codec::Decoder::new(&bytes);
        Namespace::decode(&mut d).map_or(0, |back| back.len() as u64)
    })
}

/// Writing a whole-simulation snapshot, capture and byte layout with its
/// checksums, of a flat 20 × 5,000 namespace after 20 ticks of Zipf-like
/// reads from 64 clients. ops = inodes, so `ns_per_op` is the encode cost
/// per inode.
fn snapshot_encode(p: Protocol) -> BenchResult {
    let (ns, _, files) = flat_fixture(20, 5_000);
    let inodes = ns.len() as u64;
    let streams: Vec<Box<dyn lunule_sim::OpStream>> = (0..64)
        .map(|c| {
            let reads = files.iter().skip(c * 7).step_by(997).copied().collect();
            Box::new(lunule_sim::FixedStream::new(reads)) as Box<dyn lunule_sim::OpStream>
        })
        .collect();
    let cfg = SimConfig {
        n_mds: 8,
        duration_secs: 20,
        stop_when_done: false,
        ..default_sim()
    };
    let b = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let mut sim = Simulation::new(cfg, ns, b, streams);
    step_to_end(&mut sim);
    run_bench("snapshot_encode_ns_per_inode", p, || {
        black_box(sim.snapshot().to_bytes());
        inodes
    })
}

fn main() -> ExitCode {
    let args = CommonArgs::parse();
    let protocol = if args.quick {
        Protocol::quick()
    } else {
        Protocol::full()
    };
    let results = vec![
        sim_tick_loop(protocol),
        balancer_epoch_if(protocol),
        frag_split(protocol),
        migration_pipeline(protocol),
        migration_commit_cohorts(protocol),
        epoch_close_plan(protocol),
        telemetry_off(protocol),
        telemetry_on(protocol),
        authority_resolve(protocol),
        authority_walk(protocol),
        child_route(protocol),
        build_candidates_1m(protocol),
        tick_loop("tick_loop_c1k_m128", 1_000, protocol),
        tick_loop("tick_loop_c100k_m128", 100_000, protocol),
        tick_loop_sparse(protocol),
        tick_loop_cold(protocol),
        tick_loop_mixed(protocol),
        tick_loop_stalled(protocol),
        record_access(protocol),
        mindex_of(protocol),
        imbalance_factor_16(protocol),
        decide_roles_16(protocol),
        select_subtrees_cell(protocol),
        path_chain(protocol),
        in_dirfrag(protocol),
        create_file(protocol),
        unlink("unlink_fifo", true, protocol),
        unlink("unlink_lifo", false, protocol),
        namespace_decode(protocol),
        snapshot_encode(protocol),
    ];

    println!(
        "{:<20} {:>12} {:>14} {:>14}",
        "bench", "iters", "ns/op", "ops/sec"
    );
    for r in &results {
        println!(
            "{:<20} {:>12} {:>14.1} {:>14.0}",
            r.bench, r.iters, r.ns_per_op, r.ops_per_sec
        );
    }

    if let Some(out) = &args.out_dir {
        let path = if out.ends_with(".json") {
            std::path::PathBuf::from(out)
        } else {
            if let Err(e) = std::fs::create_dir_all(out) {
                eprintln!("perf: cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
            std::path::Path::new(out).join("BENCH.json")
        };
        let json = to_bench_json(&results).to_string_pretty();
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mindex_fixture_gives_every_directory_a_live_index() {
        let (_, dirs, an) = analyzer_fixture();
        assert!(!dirs.is_empty());
        for d in &dirs {
            assert!(an.mindex_of(*d) > 0.0, "directory {d:?} reads mIndex 0");
        }
    }

    /// Every timed close of the plan fixture pairs 64 times and plans
    /// exports, the first one splits fragments, and jobs start.
    #[test]
    fn plan_fixture_pairs_64_times_and_plans() {
        let mut fx = plan_fixture();
        let tel = Telemetry::enabled();
        fx.balancer.attach_telemetry(tel.clone());
        for epoch in 0..PLAN_EPOCHS {
            let plan = fx.balancer.on_epoch(&fx.ns, &fx.map, &plan_stats(epoch));
            assert!(plan.exports.len() >= PLAN_EXPORTERS, "epoch {epoch}");
            let generation = fx.ns.generation();
            fx.migrator.enqueue_plan(&mut fx.ns, &fx.map, &plan, epoch);
            if epoch == 0 {
                assert!(fx.ns.generation() > generation, "no fragment split");
            }
        }
        assert!(fx.migrator.counters().started_jobs > 0);
        let journal = lunule_telemetry::events_jsonl(&tel.snapshot().unwrap());
        let decisions = journal.matches("\"pairings\":64").count();
        assert_eq!(decisions, PLAN_EPOCHS as usize, "{journal}");
    }

    #[test]
    fn selection_fixture_selects_subtrees() {
        let (ns, candidates) = selection_fixture();
        let chosen = select_subtrees(&ns, &candidates, SELECT_AMOUNT);
        assert!(
            !chosen.is_empty(),
            "{} candidates, none selected",
            candidates.len()
        );
    }

    #[test]
    fn in_dirfrag_fixture_hits_and_misses() {
        let (ns, dirs, files) = flat_fixture(100, 100);
        let root = ns.inode(dirs[0]).parent().unwrap_or(InodeId::ROOT);
        assert!(files.iter().all(|f| ns.in_dirfrag(root, &Frag::root(), *f)));
        let (left, _) = Frag::root().split_in_two();
        let hits = files
            .iter()
            .filter(|f| ns.in_dirfrag(dirs[0], &left, **f))
            .count();
        assert!(
            hits > 0 && hits < 100,
            "{hits} of the first directory's 100 files"
        );
    }

    #[test]
    fn unlink_and_decode_fixtures_do_their_work() {
        let p = Protocol {
            warmup: 0,
            rounds: 1,
        };
        for fifo in [true, false] {
            assert_eq!(unlink("unlink", fifo, p).iters, UNLINK_FILES as u64);
        }
        assert_eq!(namespace_decode(p).iters, 1 + 1 + 20 + 20 * 5_000);
    }

    #[test]
    fn child_route_and_snapshot_cells_do_their_work() {
        let p = Protocol {
            warmup: 0,
            rounds: 1,
        };
        assert_eq!(child_route(p).iters, 2_000 * 64);
        assert_eq!(snapshot_encode(p).iters, 1 + 1 + 20 + 20 * 5_000);
    }

    #[test]
    fn sparse_sim_runs_many_rounds_per_tick() {
        let mut sim = sparse_sim();
        assert_eq!(step_to_end(&mut sim), SPARSE_TICKS);
        // Each round serves a client at most once, so more than four ops
        // per client per tick means the ticks run several rounds.
        assert!(
            sim.total_ops() > 4 * 200 * SPARSE_TICKS,
            "{} ops in {SPARSE_TICKS} ticks",
            sim.total_ops()
        );
    }

    #[test]
    fn cold_sim_spans_a_large_arena_and_serves_every_tick() {
        let mut sim = cold_sim();
        assert!(
            sim.namespace().len() >= 250_000,
            "{} inodes",
            sim.namespace().len()
        );
        assert_eq!(step_to_end(&mut sim), COLD_TICKS);
        assert!(sim.total_ops() > 200 * COLD_TICKS, "{}", sim.total_ops());
    }

    #[test]
    fn mixed_sim_fills_the_web_caches_and_serves_every_tick() {
        let mut sim = mixed_sim();
        let mut web = Vec::new();
        sim.cohorts().for_each_state(|c, _| {
            // Client `i` runs group `i % 4`, and group 2 is Web.
            if c.id % 4 == 2 {
                web.push(c.cache_len());
            }
        });
        assert_eq!(web.len(), 50);
        let narrowest = web.iter().min().copied().unwrap_or(0);
        assert!(narrowest >= 240, "a Web cache holds {narrowest} entries");
        assert_eq!(step_to_end(&mut sim), MIXED_TICKS);
        assert!(!sim.all_done());
        assert!(sim.total_ops() > 200 * MIXED_TICKS, "{}", sim.total_ops());
    }

    #[test]
    fn commit_cohorts_sim_commits_batches_into_every_cohort() {
        let mut sim = commit_cohorts_sim();
        let set = sim.cohorts();
        assert_eq!(set.n_cohorts(), COMMIT_COHORTS);
        set.for_each_state(|c, _| {
            assert!(c.finished(), "cohort {} still reading", c.id);
            assert_eq!(c.cache_len(), 8, "cohort {}", c.id);
        });
        let before = sim.migration_counters().completed_jobs;
        assert_eq!(step_to_end(&mut sim), COMMIT_TICKS);
        let committed = sim.migration_counters().completed_jobs - before;
        // Every 2-tick epoch commits a batch of about 60 jobs.
        assert!(
            committed >= 50 * COMMIT_TICKS / 2,
            "{committed} jobs in {COMMIT_TICKS} ticks"
        );
    }

    #[test]
    fn tick_loop_sims_run_every_tick_and_serve_ops() {
        for clients in [1_000, 100_000] {
            let mut sim = build_sim(&tick_loop_spec(clients), Telemetry::disabled());
            assert_eq!(step_to_end(&mut sim), TICK_LOOP_TICKS, "{clients} clients");
            assert_eq!(sim.now(), TICK_LOOP_TICKS);
            assert!(sim.total_ops() > 0, "{clients} clients served no ops");
        }
    }
}
