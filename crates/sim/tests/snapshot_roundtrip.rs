//! Crash-safety integration tests for `Simulation::{snapshot, restore}`:
//! a restore-determinism matrix (fault schedules × snapshot ticks), a
//! randomized snapshot→restore→snapshot byte-stability property, and a
//! section-tampering battery proving corrupted state is refused with typed
//! errors rather than panics or silent drift. Every run is audited by
//! `lunule-verify` after every tick, restored runs included.

use lunule_core::{make_balancer, BalancerKind};
use lunule_faults::FaultPlan;
use lunule_namespace::{InodeId, MdsRank, Namespace};
use lunule_sim::{FixedStream, OpStream, SimConfig, Simulation};
use lunule_snapshot::SnapshotError;
use lunule_telemetry::{events_jsonl, Telemetry};
use lunule_util::propcheck;
use lunule_verify::InvariantChecker;

fn base_cfg() -> SimConfig {
    SimConfig {
        n_mds: 3,
        mds_capacity: 100.0,
        epoch_secs: 2,
        duration_secs: 24,
        stop_when_done: false,
        migration_bw: 1_000.0,
        migration_freeze_secs: 1,
        client_rate: 50.0,
        seed: 7,
        telemetry: Telemetry::enabled(),
        ..SimConfig::default()
    }
}

fn fixture(files: usize) -> (Namespace, Vec<InodeId>) {
    let mut ns = Namespace::new();
    let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
    let ids = (0..files)
        .map(|i| ns.create_file(d, &format!("f{i}"), 4).unwrap())
        .collect();
    (ns, ids)
}

fn streams(files: usize, n: usize) -> Vec<Box<dyn OpStream>> {
    let (_, ids) = fixture(files);
    (0..n)
        .map(|_| Box::new(FixedStream::new(ids.clone())) as Box<dyn OpStream>)
        .collect()
}

/// Steps `sim` to `deadline`, auditing it after every tick.
fn run_audited(sim: &mut Simulation, deadline: u64) {
    let mut checker = InvariantChecker::default();
    while sim.now() < deadline && sim.step() {
        checker.audit_simulation(sim);
    }
}

fn build(cfg: SimConfig, files: usize, n_clients: usize) -> Simulation {
    let (ns, _) = fixture(files);
    Simulation::new(
        cfg.clone(),
        ns,
        make_balancer(BalancerKind::Lunule, cfg.mds_capacity),
        streams(files, n_clients),
    )
}

/// Every cell of the (fault schedule × snapshot tick) matrix restores into
/// a run whose stitched journal and final results are byte-identical to an
/// uninterrupted reference — a kill is recoverable at any tick, with or
/// without faults in flight.
#[test]
fn restore_matrix_is_byte_identical_across_faults_and_ticks() {
    type ConfigFn = fn() -> SimConfig;
    let quiet: ConfigFn = base_cfg;
    let chaotic: ConfigFn = || SimConfig {
        faults: FaultPlan::new()
            .crash(5, MdsRank(1), 6)
            .limp(9, MdsRank(2), 0.5, 8)
            .build(),
        ..base_cfg()
    };
    let schedules = [("quiet", quiet), ("chaotic", chaotic)];
    for (label, cfg) in schedules {
        let mut reference = build(cfg(), 240, 2);
        run_audited(&mut reference, 24);
        let full = events_jsonl(&reference.telemetry().snapshot().unwrap());
        let ref_result = reference.finish();

        for snap_tick in [1u64, 6, 13, 23] {
            let mut first = build(cfg(), 240, 2);
            run_audited(&mut first, snap_tick);
            let snap = first.snapshot();
            assert_eq!(snap.tick, snap_tick);
            let pre = events_jsonl(&first.telemetry().snapshot().unwrap());
            drop(first); // the "kill"

            let mut resumed = Simulation::restore(
                cfg(),
                make_balancer(BalancerKind::Lunule, cfg().mds_capacity),
                streams(240, 2),
                &snap,
            )
            .unwrap();
            assert_eq!(resumed.now(), snap_tick);
            run_audited(&mut resumed, 24);
            let post = events_jsonl(&resumed.telemetry().snapshot().unwrap());
            assert_eq!(
                format!("{pre}{post}"),
                full,
                "{label}: stitch at tick {snap_tick} must equal the reference"
            );
            assert_eq!(
                resumed.finish().per_mds_requests_total,
                ref_result.per_mds_requests_total,
                "{label}: results must survive a restore at tick {snap_tick}"
            );
        }
    }
}

/// Randomized property: for arbitrary (seed, size, snapshot tick),
/// snapshot→restore→snapshot is byte-stable and the restored run's journal
/// continues byte-identically. Byte-stability is the stronger form of the
/// idempotence CI relies on: re-snapshotting a restored run must not drift
/// by even one byte, or chained restores would diverge.
#[test]
fn snapshot_restore_snapshot_is_byte_stable_for_random_cut_points() {
    propcheck::run(16, |rng| {
        let files = rng.gen_range(40..240);
        let seed = rng.gen_range(1..1_000) as u64;
        let cfg = || SimConfig { seed, ..base_cfg() };
        let snap_tick = rng.gen_range(1..24) as u64;

        let mut reference = build(cfg(), files, 2);
        run_audited(&mut reference, 24);
        let full = events_jsonl(&reference.telemetry().snapshot().unwrap());

        let mut first = build(cfg(), files, 2);
        run_audited(&mut first, snap_tick);
        let s1 = first.snapshot();
        let pre = events_jsonl(&first.telemetry().snapshot().unwrap());
        drop(first);

        let resumed = Simulation::restore(
            cfg(),
            make_balancer(BalancerKind::Lunule, cfg().mds_capacity),
            streams(files, 2),
            &s1,
        )
        .unwrap();
        let s2 = resumed.snapshot();
        assert_eq!(
            s1.to_bytes(),
            s2.to_bytes(),
            "snapshot -> restore -> snapshot must be byte-stable \
             (seed={seed}, files={files}, tick={snap_tick})"
        );

        let mut resumed = Simulation::restore(
            cfg(),
            make_balancer(BalancerKind::Lunule, cfg().mds_capacity),
            streams(files, 2),
            &s2,
        )
        .unwrap();
        run_audited(&mut resumed, 24);
        let post = events_jsonl(&resumed.telemetry().snapshot().unwrap());
        assert_eq!(
            format!("{pre}{post}"),
            full,
            "journal must continue byte-identically (seed={seed}, tick={snap_tick})"
        );
    });
}

/// The tamper battery: every section of a valid snapshot is, in turn,
/// truncated, padded with trailing garbage, and removed outright. All
/// three corruptions of all sections must come back as typed
/// [`SnapshotError`]s — never a panic, never a silently accepted restore.
/// (Bit-flips inside the container are caught earlier, by the per-section
/// checksums in `Snapshot::from_bytes`; this battery attacks the layer
/// *above* the checksums, where payload bytes are valid but wrong.)
#[test]
fn tampered_sections_are_refused_with_typed_errors() {
    let mut sim = build(base_cfg(), 120, 2);
    run_audited(&mut sim, 9);
    let snap = sim.snapshot();
    let restore = |snap: &lunule_snapshot::Snapshot| {
        Simulation::restore(
            base_cfg(),
            make_balancer(BalancerKind::Lunule, base_cfg().mds_capacity),
            streams(120, 2),
            snap,
        )
    };
    assert!(restore(&snap).is_ok(), "pristine snapshot must restore");

    let n_sections = snap.sections.len();
    assert!(n_sections >= 8, "expected the full section roster");
    for i in 0..n_sections {
        let name = snap.sections[i].name.clone();

        // A strict prefix of the payload: decoding runs out of bytes.
        let mut truncated = snap.clone();
        let keep = truncated.sections[i].payload.len() / 2;
        truncated.sections[i].payload.truncate(keep);
        let err = match restore(&truncated) {
            Ok(_) => panic!("truncated '{name}' section must be refused"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SnapshotError::Decode { .. }),
            "truncated '{name}': expected a decode error, got {err}"
        );

        // Trailing garbage: decoding succeeds but exhaustion check fails.
        let mut padded = snap.clone();
        padded.sections[i].payload.extend_from_slice(&[0xAB; 4]);
        let err = match restore(&padded) {
            Ok(_) => panic!("padded '{name}' section must be refused"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SnapshotError::Decode { .. }),
            "padded '{name}': expected a decode error, got {err}"
        );

        // The section is simply gone.
        let mut missing = snap.clone();
        missing.sections.remove(i);
        let err = match restore(&missing) {
            Ok(_) => panic!("missing '{name}' section must be refused"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SnapshotError::MissingSection { .. }),
            "missing '{name}': expected MissingSection, got {err}"
        );
    }
}

// --- Cohort-model snapshot coverage -------------------------------------
//
// The simulator aggregates identical clients into cohorts, and its
// snapshots carry them in one "cohorts" section. The batteries below pin
// that section three ways: it is present (so the generic tamper loop above
// provably exercises it), it survives snapshot→restore→snapshot without a
// byte of drift for multi-member groups, and structurally-wrong restores
// (wrong stream arity, tampered payload) are refused with typed errors.

fn grouped_streams(files: usize) -> Vec<(Box<dyn OpStream>, u64)> {
    let (_, ids) = fixture(files);
    let half = ids.len() / 2;
    vec![
        (
            Box::new(FixedStream::new(ids[..half].to_vec())) as Box<dyn OpStream>,
            5,
        ),
        (
            Box::new(FixedStream::new(ids[half..].to_vec())) as Box<dyn OpStream>,
            3,
        ),
    ]
}

fn grouped_build(cfg: SimConfig, files: usize) -> Simulation {
    let (ns, _) = fixture(files);
    Simulation::new_grouped(
        cfg.clone(),
        ns,
        make_balancer(BalancerKind::Lunule, cfg.mds_capacity),
        grouped_streams(files),
    )
}

fn grouped_restore_streams(files: usize) -> Vec<Box<dyn OpStream>> {
    grouped_streams(files).into_iter().map(|(s, _)| s).collect()
}

/// A grouped population's snapshot carries the "cohorts" section (and no
/// per-client "clients" section), and its stream count reads back through
/// the sizing accessor the daemon restores with.
#[test]
fn grouped_snapshot_carries_the_cohort_section() {
    let mut sim = grouped_build(base_cfg(), 120);
    run_audited(&mut sim, 9);
    let snap = sim.snapshot();
    let names: Vec<&str> = snap.sections.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"cohorts"), "roster: {names:?}");
    assert!(
        !names.contains(&"clients"),
        "cohort snapshots must not also carry a per-client clients section"
    );
    assert_eq!(lunule_sim::snapshot_stream_count(&snap).unwrap(), 2);
}

/// Multi-member cohorts survive snapshot→restore→snapshot byte-stably at
/// random cut points, and the restored run's journal continues
/// byte-identically — the grouped twin of the per-client property above.
#[test]
fn grouped_cohort_restore_is_byte_stable_for_random_cut_points() {
    propcheck::run(8, |rng| {
        let files = rng.gen_range(40..200);
        let seed = rng.gen_range(1..1_000) as u64;
        let cfg = || SimConfig { seed, ..base_cfg() };
        let snap_tick = rng.gen_range(1..24) as u64;

        let mut reference = grouped_build(cfg(), files);
        run_audited(&mut reference, 24);
        let full = events_jsonl(&reference.telemetry().snapshot().unwrap());

        let mut first = grouped_build(cfg(), files);
        run_audited(&mut first, snap_tick);
        let s1 = first.snapshot();
        let pre = events_jsonl(&first.telemetry().snapshot().unwrap());
        drop(first);

        let resumed = Simulation::restore(
            cfg(),
            make_balancer(BalancerKind::Lunule, cfg().mds_capacity),
            grouped_restore_streams(files),
            &s1,
        )
        .unwrap();
        let s2 = resumed.snapshot();
        assert_eq!(
            s1.to_bytes(),
            s2.to_bytes(),
            "grouped snapshot -> restore -> snapshot must be byte-stable \
             (seed={seed}, files={files}, tick={snap_tick})"
        );

        let mut resumed = Simulation::restore(
            cfg(),
            make_balancer(BalancerKind::Lunule, cfg().mds_capacity),
            grouped_restore_streams(files),
            &s2,
        )
        .unwrap();
        run_audited(&mut resumed, 24);
        let post = events_jsonl(&resumed.telemetry().snapshot().unwrap());
        assert_eq!(
            format!("{pre}{post}"),
            full,
            "grouped journal must continue byte-identically \
             (seed={seed}, tick={snap_tick})"
        );
    });
}

/// Structurally-wrong grouped restores are refused with typed errors: a
/// stream arity that doesn't match the snapshot's group count, and the
/// three standard corruptions of the "cohorts" payload itself.
#[test]
fn grouped_cohort_section_tampering_is_refused() {
    let mut sim = grouped_build(base_cfg(), 120);
    run_audited(&mut sim, 9);
    let snap = sim.snapshot();
    let restore = |snap: &lunule_snapshot::Snapshot, n_streams: usize| {
        Simulation::restore(
            base_cfg(),
            make_balancer(BalancerKind::Lunule, base_cfg().mds_capacity),
            grouped_restore_streams(120)
                .into_iter()
                .take(n_streams)
                .collect(),
            snap,
        )
    };
    assert!(restore(&snap, 2).is_ok(), "pristine snapshot must restore");
    assert!(
        restore(&snap, 1).is_err(),
        "restoring 2 groups with 1 stream must be refused"
    );

    let i = snap
        .sections
        .iter()
        .position(|s| s.name == "cohorts")
        .expect("cohorts section present");

    let mut truncated = snap.clone();
    let keep = truncated.sections[i].payload.len() / 2;
    truncated.sections[i].payload.truncate(keep);
    assert!(
        matches!(restore(&truncated, 2), Err(SnapshotError::Decode { .. })),
        "truncated cohorts payload must be a decode error"
    );

    let mut padded = snap.clone();
    padded.sections[i].payload.extend_from_slice(&[0xAB; 4]);
    assert!(
        matches!(restore(&padded, 2), Err(SnapshotError::Decode { .. })),
        "padded cohorts payload must be a decode error"
    );

    let mut missing = snap.clone();
    missing.sections.remove(i);
    assert!(
        matches!(
            restore(&missing, 2),
            Err(SnapshotError::MissingSection { .. })
        ),
        "missing cohorts section must be refused"
    );
}
