//! Allocator calls per simulated tick, counted by a test-only global
//! allocator.
//!
//! The allocator forwards every request to [`System`] and, while the
//! calling thread has counting switched on, counts each `alloc`,
//! `alloc_zeroed` and `realloc` (frees are not counted). The switch and
//! the counter are thread-local, so tests running in parallel on other
//! threads never add to each other's counts.
//!
//! Two properties are asserted on a cohort fixture where nothing splits
//! (rank capacity far above demand, every route cached after warm-up):
//! a plain tick allocates nothing, and the calls of an epoch tick do not
//! grow when the same namespace carries 8x more cohort groups. Epoch
//! ticks over origins split into several idle cohorts make no more calls
//! than that fixture's. A create fixture serves creates: once warm, its calls are the geometric growth
//! of a few buffers, not one or more per create. The
//! ignored `tick_loop_shapes` test prints the counts of the `perf`
//! tick-loop cells' shapes; run it with
//! `cargo test --release --test alloc_count -- --ignored --nocapture`.

// A global allocator is an `unsafe impl`; this file is its only home.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lunule::core::{make_balancer, BalancerKind};
use lunule::namespace::{build_private_dirs, Namespace};
use lunule::sim::{FixedStream, OpStream, SimConfig, Simulation};
use lunule::telemetry::Telemetry;
use lunule::workloads::MdtestFullStream;
use lunule_bench::{build_namespace, build_sim, ScaleSpec};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised, destructor-free thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while running `f`.
fn calls_during(f: impl FnOnce()) -> u64 {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    CALLS.with(Cell::get)
}

/// Per-tick allocator calls of `ticks` steps, split into plain ticks and
/// ticks that close an epoch.
struct TickCalls {
    plain: Vec<u64>,
    epoch: Vec<u64>,
}

fn count_ticks(sim: &mut Simulation, ticks: u64) -> TickCalls {
    let epoch_secs = sim.config().epoch_secs;
    let mut out = TickCalls {
        plain: Vec::with_capacity(64),
        epoch: Vec::with_capacity(64),
    };
    for _ in 0..ticks {
        let closes_epoch = (sim.now() + 1).is_multiple_of(epoch_secs);
        let mut stepped = false;
        let calls = calls_during(|| stepped = sim.step());
        assert!(stepped, "the fixture must outlast the measured ticks");
        if closes_epoch {
            out.epoch.push(calls);
        } else {
            out.plain.push(calls);
        }
    }
    out
}

const EPOCH_SECS: u64 = 2;
const WARMUP_TICKS: u64 = 20;
const MEASURED_TICKS: u64 = 40;

/// A cohort fixture where nothing splits: `groups` read-only groups of
/// 1,000 clients over the `perf` tick-loop namespace on 16 ranks whose
/// capacity no tick can exhaust. Each group's stream repeats its targets
/// for longer than the run, so no member finishes and the route caches
/// are warm once every target was read once.
fn steady_sim(groups: usize) -> Simulation {
    let spec = ScaleSpec {
        clients: 1_000 * groups as u64,
        groups,
        dirs: 64,
        files_per_dir: 32,
        n_mds: 16,
        duration_secs: WARMUP_TICKS + MEASURED_TICKS,
        epoch_secs: EPOCH_SECS,
        seed: 42,
    };
    let (ns, targets) = build_namespace(&spec);
    assert_eq!(targets.len(), groups);
    let cfg = SimConfig {
        n_mds: spec.n_mds,
        mds_capacity: 1e9,
        epoch_secs: EPOCH_SECS,
        duration_secs: spec.duration_secs,
        stop_when_done: false,
        client_rate: 5.0,
        seed: spec.seed,
        ..SimConfig::default()
    };
    let ops_per_client = 5 * spec.duration_secs as usize;
    let streams: Vec<(Box<dyn OpStream>, u64)> = targets
        .into_iter()
        .map(|ids| {
            let ops = ids.iter().copied().cycle().take(ops_per_client).collect();
            (Box::new(FixedStream::new(ops)) as Box<dyn OpStream>, 1_000)
        })
        .collect();
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    Simulation::new_grouped(cfg, ns, balancer, streams)
}

fn steady_counts(groups: usize) -> TickCalls {
    let mut sim = steady_sim(groups);
    for _ in 0..WARMUP_TICKS {
        assert!(sim.step());
    }
    let counts = count_ticks(&mut sim, MEASURED_TICKS);
    assert_eq!(sim.n_flows(), groups, "the fixture must not split");
    counts
}

#[test]
fn plain_ticks_do_not_allocate_once_warm() {
    let counts = steady_counts(8);
    assert_eq!(counts.plain.len(), 20);
    assert!(
        counts.plain.iter().all(|&c| c == 0),
        "allocator calls per plain tick: {:?}",
        counts.plain
    );
}

#[test]
fn epoch_close_calls_do_not_grow_with_cohort_groups() {
    let few = steady_counts(8);
    let many = steady_counts(64);
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    println!(
        "epoch ticks: 8 groups {} calls, 64 groups {} calls",
        sum(&few.epoch),
        sum(&many.epoch)
    );
    assert_eq!(few.epoch.len(), many.epoch.len());
    assert!(
        sum(&many.epoch) <= sum(&few.epoch),
        "epoch ticks with 64 groups made {} allocator calls, with 8 groups {}",
        sum(&many.epoch),
        sum(&few.epoch)
    );
}

/// The steady fixture's namespace and groups, but each member reads only
/// its group's first two targets, on ranks of capacity `capacity`. Below
/// demand, each tick serves a slice of the rotated member order, so the
/// members of a group finish over several ticks and each origin keeps one
/// cohort per finishing tick: finished cohorts that sit out every tick
/// and never re-merge. Returned once every member has finished.
fn idle_split_sim(capacity: f64) -> Simulation {
    let spec = ScaleSpec {
        clients: 8_000,
        groups: 8,
        dirs: 64,
        files_per_dir: 32,
        n_mds: 16,
        duration_secs: 1_000,
        epoch_secs: EPOCH_SECS,
        seed: 42,
    };
    let (ns, targets) = build_namespace(&spec);
    let cfg = SimConfig {
        n_mds: spec.n_mds,
        mds_capacity: capacity,
        epoch_secs: EPOCH_SECS,
        duration_secs: spec.duration_secs,
        stop_when_done: false,
        client_rate: 5.0,
        seed: spec.seed,
        ..SimConfig::default()
    };
    let streams: Vec<(Box<dyn OpStream>, u64)> = targets
        .into_iter()
        .map(|ids| {
            let ops = ids.into_iter().take(2).collect();
            (Box::new(FixedStream::new(ops)) as Box<dyn OpStream>, 1_000)
        })
        .collect();
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let mut sim = Simulation::new_grouped(cfg, ns, balancer, streams);
    while !sim.all_done() {
        assert!(sim.now() < 500 && sim.step(), "members must finish");
    }
    sim
}

/// The merge over cohorts it already found distinct, and that have not
/// changed since, skips them without allocating: with several idle
/// cohorts per origin, the epoch ticks make no more allocator calls than
/// those of [`epoch_close_calls_do_not_grow_with_cohort_groups`]' fixture,
/// where nothing splits.
#[test]
fn merging_unchanged_split_cohorts_does_not_allocate() {
    let mut split = idle_split_sim(300.0);
    assert!(
        split.n_flows() >= 4 * 8,
        "the fixture must keep several cohorts per origin: {} flows",
        split.n_flows()
    );
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    let split_calls = sum(&count_ticks(&mut split, MEASURED_TICKS).epoch);
    let steady_calls = sum(&steady_counts(8).epoch);
    println!(
        "epoch ticks: {} idle split cohorts {split_calls} calls, steady fixture {steady_calls}",
        split.n_flows()
    );
    assert!(
        split_calls <= steady_calls,
        "epoch ticks over idle split cohorts made {split_calls} allocator calls, \
         the steady fixture's {steady_calls}"
    );
}

/// Clients of the create fixture, each creating into a private directory.
const CREATE_CLIENTS: usize = 10;
/// Creates each client issues per tick (`client_rate`, 1-second ticks).
const CREATES_PER_TICK: u64 = 10;

/// The create phase of an mdtest cycle: `CREATE_CLIENTS` singleton
/// clients, each with 100,000 files to create into its own directory, on
/// 4 ranks whose capacity no tick exhausts. No epoch closes during the
/// run, so every tick only serves creates.
fn create_sim() -> Simulation {
    let mut ns = Namespace::new();
    let dirs = build_private_dirs(&mut ns, "mdtest", CREATE_CLIENTS, 0, 0);
    let cfg = SimConfig {
        n_mds: 4,
        mds_capacity: 1e9,
        epoch_secs: 1_000,
        duration_secs: 500,
        stop_when_done: false,
        client_rate: CREATES_PER_TICK as f64,
        seed: 42,
        ..SimConfig::default()
    };
    let streams: Vec<Box<dyn OpStream>> = dirs
        .dirs
        .iter()
        .map(|(dir, _)| Box::new(MdtestFullStream::new(*dir, 100_000)) as Box<dyn OpStream>)
        .collect();
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    Simulation::new(cfg, ns, balancer, streams)
}

/// Served creates, after warm-up, that the create test counts across.
const MEASURED_CREATES: u64 = 1_000;

#[test]
fn served_creates_only_grow_buffers() {
    let mut sim = create_sim();
    for _ in 0..WARMUP_TICKS {
        assert!(sim.step());
    }
    let ticks = MEASURED_CREATES / (CREATE_CLIENTS as u64 * CREATES_PER_TICK);
    let ops_before = sim.total_ops();
    let calls = calls_during(|| {
        for _ in 0..ticks {
            assert!(sim.step());
        }
    });
    assert_eq!(sim.total_ops() - ops_before, MEASURED_CREATES);
    println!("{MEASURED_CREATES} served creates: {calls} allocator calls");
    // The namespace arena, the name arena, each client's child list, the
    // analyzer's visit records and each stream's created list grow
    // geometrically; a per-create `String` alone would be 1,000 calls.
    assert!(
        calls <= 64,
        "{MEASURED_CREATES} served creates made {calls} allocator calls"
    );
}

fn median(v: &[u64]) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    s.get(s.len() / 2).copied().unwrap_or(0)
}

/// The shapes of the `perf` tick-loop cells (`tick_loop_c1k_m128`,
/// `tick_loop_c100k_m128`): 64 groups over 256 directories of 32 files on
/// 128 ranks, 40 ticks of 2-second epochs, telemetry off.
#[test]
#[ignore = "measurement: prints allocator calls per tick of the perf tick-loop shapes"]
fn tick_loop_shapes() {
    for clients in [1_000, 100_000] {
        let spec = ScaleSpec {
            clients,
            groups: 64,
            dirs: 256,
            files_per_dir: 32,
            n_mds: 128,
            duration_secs: 40,
            epoch_secs: 2,
            seed: 42,
        };
        let mut sim = build_sim(&spec, Telemetry::disabled());
        let counts = count_ticks(&mut sim, spec.duration_secs);
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        println!(
            "clients {clients}: plain ticks {} (median {}, total {}, max {}); \
             epoch ticks {} (median {}, total {}, max {}); flows at end {}",
            counts.plain.len(),
            median(&counts.plain),
            sum(&counts.plain),
            counts.plain.iter().max().copied().unwrap_or(0),
            counts.epoch.len(),
            median(&counts.epoch),
            sum(&counts.epoch),
            counts.epoch.iter().max().copied().unwrap_or(0),
            sim.n_flows(),
        );
    }
}
