//! Cross-crate integration tests: full workload → balancer → simulation
//! pipelines at small scale, checking the paper's qualitative claims and
//! the simulator's conservation invariants.

use lunule::core::{make_balancer, AnalyzerConfig, BalancerKind, LunuleBalancer, LunuleConfig};
use lunule::namespace::InodeId;
use lunule::sim::{RunResult, SimConfig, Simulation};
use lunule::workloads::{WorkloadKind, WorkloadSpec};

fn small_sim(n_mds: usize) -> SimConfig {
    SimConfig {
        n_mds,
        mds_capacity: 200.0,
        epoch_secs: 5,
        duration_secs: 600,
        stop_when_done: true,
        migration_bw: 3_000.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        client_rate: 40.0,
        client_cache_cap: 256,
        mds_capacities: Vec::new(),
        mds_memory_inodes: 0,
        memory_thrash_factor: 0.25,
        data_path: None,
        seed: 11,
        ..SimConfig::default()
    }
}

fn run(kind: WorkloadKind, balancer: BalancerKind, clients: usize, scale: f64) -> RunResult {
    let spec = WorkloadSpec {
        kind,
        clients,
        scale,
        seed: 1234,
    };
    let (ns, streams) = spec.build();
    let b = make_balancer(balancer, 200.0);
    Simulation::new(small_sim(5), ns, b, streams).run()
}

#[test]
fn deterministic_runs() {
    let a = run(WorkloadKind::ZipfRead, BalancerKind::Lunule, 10, 0.01);
    let b = run(WorkloadKind::ZipfRead, BalancerKind::Lunule, 10, 0.01);
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.per_mds_requests_total, b.per_mds_requests_total);
    assert_eq!(a.per_mds_forwards_total, b.per_mds_forwards_total);
    assert_eq!(a.client_completion_secs, b.client_completion_secs);
    let if_a: Vec<f64> = a.epochs.iter().map(|e| e.imbalance_factor).collect();
    let if_b: Vec<f64> = b.epochs.iter().map(|e| e.imbalance_factor).collect();
    assert_eq!(if_a, if_b);
}

#[test]
fn all_requested_ops_are_served() {
    // Zipf at this scale: 10 clients x ops_per_client; every op must be
    // served exactly once (closed loop, no drops).
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 10,
        scale: 0.01,
        seed: 9,
    };
    let (ns, streams) = spec.build();
    let expected: u64 = streams.iter().filter_map(|s| s.len_hint()).sum();
    let r = Simulation::new(
        SimConfig {
            duration_secs: 3_000,
            ..small_sim(3)
        },
        ns,
        make_balancer(BalancerKind::Lunule, 200.0),
        streams,
    )
    .run();
    assert_eq!(r.total_ops, expected, "no op may be lost or duplicated");
    let served: u64 = r.per_mds_requests_total.iter().sum();
    assert_eq!(served, expected, "per-MDS serve counts must add up");
    assert!(r.client_completion_secs.iter().all(Option::is_some));
}

#[test]
fn lunule_balances_scans_that_defeat_vanilla() {
    // The paper's core claim (Figs 6a/7a): on a scan workload the built-in
    // balancer leaves the cluster imbalanced while Lunule spreads it.
    let vanilla = run(WorkloadKind::Cnn, BalancerKind::Vanilla, 12, 0.005);
    let lunule = run(WorkloadKind::Cnn, BalancerKind::Lunule, 12, 0.005);
    assert!(
        lunule.mean_if() < vanilla.mean_if(),
        "Lunule IF {} must beat Vanilla IF {}",
        lunule.mean_if(),
        vanilla.mean_if()
    );
    assert!(
        lunule.mean_iops() > vanilla.mean_iops() * 1.3,
        "Lunule IOPS {} must clearly beat Vanilla {}",
        lunule.mean_iops(),
        vanilla.mean_iops()
    );
}

#[test]
fn sibling_propagation_carries_the_scan_win() {
    // The ablation's load-bearing mechanism: without sibling propagation
    // the migration index carries no forward-looking signal on a scan, so
    // Lunule's CNN throughput falls to Vanilla's (below it at this scale),
    // while the full system stays clearly above it.
    let spec = WorkloadSpec {
        kind: WorkloadKind::Cnn,
        clients: 12,
        scale: 0.005,
        seed: 1234,
    };
    let no_sibling = {
        let (ns, streams) = spec.build();
        let balancer = LunuleBalancer::new(LunuleConfig {
            analyzer: AnalyzerConfig {
                sibling_probability: 0.0,
            },
            ..LunuleConfig::for_capacity(200.0)
        });
        Simulation::new(small_sim(5), ns, Box::new(balancer), streams).run()
    };
    let vanilla = run(WorkloadKind::Cnn, BalancerKind::Vanilla, 12, 0.005);
    let lunule = run(WorkloadKind::Cnn, BalancerKind::Lunule, 12, 0.005);
    assert!(
        no_sibling.mean_iops() < vanilla.mean_iops() * 1.1,
        "without sibling propagation Lunule IOPS {} must fall to Vanilla's {}",
        no_sibling.mean_iops(),
        vanilla.mean_iops()
    );
    assert!(
        lunule.mean_iops() > vanilla.mean_iops() * 1.3,
        "full Lunule IOPS {} must clearly beat Vanilla {}",
        lunule.mean_iops(),
        vanilla.mean_iops()
    );
}

/// Migrated inodes of Lunule on CNN, stock and with `tweak` applied, on
/// the ablation grid's cluster (`single_workloads`: 5 ranks of capacity
/// 500, 10 s epochs, 100 clients) at half its scale. The claims below
/// hold on that grid; smaller runs need not show them (DESIGN §9).
fn cnn_migrated(tweak: impl FnOnce(&mut LunuleConfig)) -> (u64, u64) {
    let run = |cfg: LunuleConfig| {
        let spec = WorkloadSpec {
            kind: WorkloadKind::Cnn,
            clients: 100,
            scale: 0.05,
            seed: 42,
        };
        let (ns, streams) = spec.build();
        let sim = SimConfig {
            mds_capacity: 500.0,
            epoch_secs: 10,
            duration_secs: 1_800,
            migration_bw: 5_000.0,
            client_rate: 50.0,
            seed: 42,
            ..small_sim(5)
        };
        let balancer = Box::new(LunuleBalancer::new(cfg));
        Simulation::new(sim, ns, balancer, streams)
            .run()
            .migrated_inodes()
    };
    let mut ablated = LunuleConfig::for_capacity(500.0);
    tweak(&mut ablated);
    (run(LunuleConfig::for_capacity(500.0)), run(ablated))
}

#[test]
fn future_load_correction_curbs_cnn_migration() {
    // EXPERIMENTS' ablation: without the importer future-load correction,
    // CNN migrates >= 1.5x the inodes of full Lunule (2.0x on the grid).
    let (full, ablated) = cnn_migrated(|c| c.ablate_future_load = true);
    assert!(
        ablated * 2 >= full * 3,
        "without the future-load correction CNN must migrate >= 1.5x the inodes: {ablated} vs {full}"
    );
}

#[test]
fn migration_cap_curbs_cnn_migration() {
    // EXPERIMENTS' ablation: without Algorithm 1's per-epoch migration
    // cap, CNN migrates >= 1.5x the inodes of full Lunule (3.0x on the grid).
    let (full, uncapped) = cnn_migrated(|c| c.roles.migration_capacity = f64::MAX);
    assert!(
        uncapped * 2 >= full * 3,
        "without the migration cap CNN must migrate >= 1.5x the inodes: {uncapped} vs {full}"
    );
}

#[test]
fn greedyspill_is_worst_on_scans() {
    let greedy = run(WorkloadKind::Cnn, BalancerKind::GreedySpill, 12, 0.005);
    let lunule = run(WorkloadKind::Cnn, BalancerKind::Lunule, 12, 0.005);
    assert!(
        greedy.mean_if() > 0.5,
        "GreedySpill stays imbalanced on scans"
    );
    assert!(lunule.mean_if() < greedy.mean_if());
}

#[test]
fn urgency_suppresses_benign_imbalance() {
    // Few idle clients: the cluster is skewed but far from capacity, so
    // Lunule must not migrate (the Fig 12b observation).
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 2,
        scale: 0.005,
        seed: 3,
    };
    let (ns, streams) = spec.build();
    let cfg = SimConfig {
        mds_capacity: 10_000.0, // huge headroom -> low urgency
        client_rate: 10.0,
        ..small_sim(5)
    };
    let r = Simulation::new(
        cfg.clone(),
        ns,
        make_balancer(BalancerKind::Lunule, 10_000.0),
        streams,
    )
    .run();
    assert_eq!(
        r.migrated_inodes(),
        0,
        "benign imbalance must not trigger migration"
    );
}

#[test]
fn dirhash_spreads_inodes_but_not_requests() {
    let r = run(WorkloadKind::Web, BalancerKind::DirHash, 20, 0.01);
    assert_eq!(r.migrated_inodes(), 0, "static pinning never migrates");
    // Request load is skewed: max rank way above min rank.
    let max = r.per_mds_requests_total.iter().max().unwrap();
    let min = r.per_mds_requests_total.iter().min().unwrap();
    assert!(
        *max as f64 > 1.5 * (*min as f64 + 1.0),
        "hash pinning cannot balance request load: {:?}",
        r.per_mds_requests_total
    );
    // And its traversals cross authority boundaries on every cold path.
    // (The throughput comparison against Lunule lives in the full-scale
    // fig13 experiment — at this toy scale the cluster is under-saturated
    // and ordering is noise.)
    assert!(r.total_forwards() > 0);
    assert!(
        r.total_forwards() as f64 / r.total_ops as f64 > 0.05,
        "fine-grained pinning must forward a meaningful share: {}/{}",
        r.total_forwards(),
        r.total_ops
    );
}

#[test]
fn namespace_grows_under_create_workloads_and_stays_consistent() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::MdCreate,
        clients: 6,
        scale: 0.002,
        seed: 77,
    };
    let (ns, streams) = spec.build();
    let before = ns.len();
    let expected_creates: u64 = streams.iter().filter_map(|s| s.len_hint()).sum();
    let (ns2, streams2) = spec.build();
    assert_eq!(ns2.len(), before, "builders are deterministic");
    drop(ns2);
    let mut sim = Simulation::new(
        SimConfig {
            duration_secs: 2_000,
            ..small_sim(3)
        },
        ns,
        make_balancer(BalancerKind::Lunule, 200.0),
        streams2,
    );
    sim.run_until(2_000);
    assert!(sim.namespace().invariants_hold());
    let r = sim.finish();
    assert_eq!(r.final_inodes as u64, before as u64 + expected_creates);
    drop(streams);
}

#[test]
fn full_mdtest_cycle_returns_namespace_to_start() {
    // Create -> stat -> remove: the namespace must end exactly where it
    // began, with every op served, under an actively balancing cluster.
    let spec = WorkloadSpec {
        kind: WorkloadKind::MdFull,
        clients: 6,
        scale: 0.002,
        seed: 13,
    };
    let (ns, streams) = spec.build();
    let live_before = ns.live_count();
    let mut sim = Simulation::new(
        SimConfig {
            duration_secs: 4_000,
            ..small_sim(4)
        },
        ns,
        make_balancer(BalancerKind::Lunule, 200.0),
        streams,
    );
    sim.run_until(4_000);
    assert!(sim.namespace().invariants_hold());
    assert_eq!(
        sim.namespace().live_count(),
        live_before,
        "every created file must have been removed again"
    );
    let r = sim.finish();
    // 200 files per client x 3 phases x 6 clients.
    assert_eq!(r.total_ops, 6 * 200 * 3);
    assert!(r.client_completion_secs.iter().all(Option::is_some));
}

#[test]
fn cluster_expansion_increases_throughput() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 20,
        scale: 0.3,
        seed: 5,
    };
    let (ns, streams) = spec.build();
    let cfg = SimConfig {
        n_mds: 2,
        stop_when_done: false,
        duration_secs: 800,
        ..small_sim(2)
    };
    let mut sim = Simulation::new(
        cfg.clone(),
        ns,
        make_balancer(BalancerKind::Lunule, 200.0),
        streams,
    );
    sim.run_until(400);
    sim.add_mds();
    sim.add_mds();
    sim.run_until(800);
    let r = sim.finish();
    let mean = |lo: u64, hi: u64| {
        let v: Vec<f64> = r
            .epochs
            .iter()
            .filter(|e| e.time_secs > lo && e.time_secs <= hi)
            .map(|e| e.total_iops)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let before = mean(100, 400);
    let after = mean(500, 800);
    assert!(
        after > before * 1.2,
        "expansion must raise throughput: {before} -> {after}"
    );
}

#[test]
fn frozen_subtrees_and_migration_never_lose_authority() {
    // After any run, every inode must resolve to a valid rank.
    let r = run(WorkloadKind::Mixed, BalancerKind::Lunule, 8, 0.004);
    assert!(r.total_ops > 0);
    let spec = WorkloadSpec {
        kind: WorkloadKind::Mixed,
        clients: 8,
        scale: 0.004,
        seed: 1234,
    };
    let (ns, streams) = spec.build();
    let mut sim = Simulation::new(
        small_sim(5),
        ns,
        make_balancer(BalancerKind::Lunule, 200.0),
        streams,
    );
    sim.run_until(300);
    let ns_ref = sim.namespace();
    let map = sim.subtree_map();
    for idx in (0..ns_ref.len()).step_by(97) {
        let rank = map.authority(ns_ref, InodeId::from_index(idx));
        assert!(rank.index() < 5, "dangling authority {rank:?}");
    }
    assert!(map.invariants_hold());
}

#[test]
fn data_path_dilutes_metadata_gains() {
    // With a slow data path, both balancers converge toward data-bound
    // completion times (the Fig 8 Web observation).
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 8,
        scale: 0.005,
        seed: 21,
    };
    let jct = |balancer, dp: Option<lunule::sim::DataPathConfig>| {
        let (ns, streams) = spec.build();
        let cfg = SimConfig {
            data_path: dp,
            duration_secs: 40_000,
            ..small_sim(5)
        };
        let r = Simulation::new(cfg.clone(), ns, make_balancer(balancer, 200.0), streams).run();
        r.jct_percentile(1.0).expect("run must finish") as f64
    };
    let slow_data = Some(lunule::sim::DataPathConfig {
        osd_bandwidth: 2_000_000,
        client_window: 64 << 10,
    });
    let meta_vanilla = jct(BalancerKind::Vanilla, None);
    let meta_lunule = jct(BalancerKind::Lunule, None);
    let data_vanilla = jct(BalancerKind::Vanilla, slow_data);
    let data_lunule = jct(BalancerKind::Lunule, slow_data);
    let meta_gap = (meta_vanilla - meta_lunule).abs() / meta_vanilla;
    let data_gap = (data_vanilla - data_lunule).abs() / data_vanilla;
    assert!(
        data_gap <= meta_gap + 0.05,
        "data path must not amplify the balancer gap: meta {meta_gap:.3} vs data {data_gap:.3}"
    );
    assert!(
        data_vanilla > meta_vanilla,
        "data path lengthens completion"
    );
}
