//! The four pinned workloads and the cluster each one drives.
//!
//! Every input is fixed here (or in the checked-in `.lds` sessions) and
//! generated from the seed alone; nothing is read from the repository's
//! bench harness, so editing its presets cannot shift a workload.

use crate::timing::{Layers, TimedBalancer, TimedStream, TimedSubscriber};
use lunule_core::{make_balancer, Balancer, BalancerKind};
use lunule_daemon::{Daemon, JsonlWriter, ScriptSource, Session, Subscriber};
use lunule_namespace::{build_private_dirs, InodeId, Namespace};
use lunule_sim::{FixedStream, OpStream, RunResult, SimConfig, Simulation};
use lunule_snapshot::Snapshot;
use lunule_telemetry::Telemetry;
use lunule_util::DetRng;
use lunule_workloads::{client_seed, MdtestFullStream, WorkloadKind, WorkloadSpec};
use std::io;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// The daemon session of `service_mixed`.
const SERVICE_SESSION: &str = include_str!("../service_mixed.lds");
/// The same session shrunk for `--smoke`.
const SERVICE_SMOKE_SESSION: &str = include_str!("../service_smoke.lds");

/// State snapshots `service_mixed` takes per run, evenly spaced.
const SERVICE_SNAPSHOTS: u64 = 12;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Filebench-Zipfian reads: the per-op path (issue rounds, authority
    /// cache, `record_access_n`, `next_op`) dominates.
    ZipfRead,
    /// mdtest create/stat/remove in an aged namespace: the namespace write
    /// and unlink paths plus heavy migration.
    MdCycle,
    /// A million clients in cohorts on 128 ranks: epoch close dominates,
    /// and the only workload where resolve fans out in parallel.
    MegaCohort,
    /// A scripted daemon session with faults, growth, journal streaming
    /// and periodic state snapshots.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ZipfRead,
        Workload::MdCycle,
        Workload::MegaCohort,
        Workload::ServiceMixed,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfRead => "zipf_read",
            Workload::MdCycle => "md_cycle",
            Workload::MegaCohort => "mega_cohort",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Looks a workload up by its CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload journals telemetry as configured. Only the
    /// daemon session does: streaming the journal is part of what it is.
    pub fn journals(self) -> bool {
        self == Workload::ServiceMixed
    }
}

/// Which layers get timing delegates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wrap {
    /// Wrap the balancer in a [`TimedBalancer`].
    pub balancer: bool,
    /// Wrap every op stream in a [`TimedStream`].
    pub streams: bool,
}

impl Wrap {
    /// The traced pass: every delegate on.
    pub const ALL: Wrap = Wrap {
        balancer: true,
        streams: true,
    };
}

/// How to build one run.
#[derive(Clone)]
pub struct BuildOpts {
    /// Workload seed.
    pub seed: u64,
    /// Shrunken inputs (`--smoke`).
    pub smoke: bool,
    /// Journal telemetry and stream it through a [`JsonlWriter`] into a
    /// byte-counting sink, behind a [`TimedSubscriber`].
    pub telemetry: bool,
    /// Timing delegates for the balancer and the streams.
    pub wrap: Wrap,
    /// Where every delegate records.
    pub layers: Arc<Layers>,
}

/// What the tick loop drives.
enum Stepper {
    Sim(Box<Simulation>),
    Daemon(Box<Daemon<ScriptSource>>),
}

/// A built run, ready to step.
pub struct Cluster {
    stepper: Stepper,
    /// Journal subscriber and cursor when the loop itself publishes (the
    /// daemon publishes on its own).
    journal: Option<(Box<dyn Subscriber>, usize)>,
    /// Ticks between in-loop state snapshots, if the workload takes them.
    pub snapshot_every: Option<u64>,
    /// Bytes of JSONL journal serialised so far.
    pub journal_bytes: Arc<AtomicU64>,
}

impl Cluster {
    /// The simulation under the loop.
    pub fn sim(&self) -> &Simulation {
        match &self.stepper {
            Stepper::Sim(sim) => sim,
            Stepper::Daemon(daemon) => daemon.sim(),
        }
    }

    /// Runs one tick and publishes its journal events. Returns `false`
    /// (without running a tick) once the run is over.
    pub fn step(&mut self) -> io::Result<bool> {
        match &mut self.stepper {
            Stepper::Daemon(daemon) => daemon.tick_once(),
            Stepper::Sim(sim) => {
                if !sim.step() {
                    return Ok(false);
                }
                if let Some((sub, cursor)) = &mut self.journal {
                    let (batch, next) = sim.telemetry().events_since(*cursor);
                    *cursor = next;
                    if !batch.is_empty() {
                        sub.on_events(&batch)?;
                    }
                }
                Ok(true)
            }
        }
    }

    /// Ends the run (flushing a partial epoch and the journal tail).
    pub fn finish(self) -> io::Result<RunResult> {
        match self.stepper {
            Stepper::Daemon(daemon) => daemon.finish(),
            Stepper::Sim(sim) => {
                let telemetry = sim.telemetry().clone();
                let result = sim.finish();
                if let Some((mut sub, cursor)) = self.journal {
                    let (tail, _) = telemetry.events_since(cursor);
                    if !tail.is_empty() {
                        sub.on_events(&tail)?;
                    }
                    sub.flush()?;
                }
                Ok(result)
            }
        }
    }
}

/// A `Write` sink that keeps only a byte count: the journal is serialised
/// exactly as a file sink would serialise it, without disk I/O.
struct CountingSink(Arc<AtomicU64>);

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A built run plus what building it cost.
pub struct Built {
    /// The run.
    pub cluster: Cluster,
    /// Seconds spent generating workload inputs (namespace and streams).
    pub inputs_s: f64,
    /// Seconds from nothing to a cluster ready to step.
    pub setup_s: f64,
}

/// Workload inputs before any delegate is attached.
struct Inputs {
    cfg: SimConfig,
    ns: Namespace,
    balancer: Box<dyn Balancer>,
    /// Op streams with their member counts (1 unless clients are cohorts).
    groups: Vec<(Box<dyn OpStream>, u64)>,
    /// Streams held back for the session's `clients@T:N` commands.
    pool: Vec<Box<dyn OpStream>>,
    /// The daemon session, for the daemon workload.
    session: Option<Session>,
}

/// Builds a run of `w`.
pub fn build(w: Workload, o: &BuildOpts) -> Result<Built, String> {
    let start = Instant::now();
    let telemetry = telemetry_handle(o.telemetry);
    let journal_bytes = Arc::new(AtomicU64::new(0));
    let mut journal = o.telemetry.then(|| {
        let writer = JsonlWriter::new(CountingSink(Arc::clone(&journal_bytes)));
        TimedSubscriber::wrap(Box::new(writer), Arc::clone(&o.layers))
    });
    let inputs_s;
    let stepper = if w == Workload::ServiceMixed && o.wrap == Wrap::default() {
        // Unwrapped, the session builds itself, exactly as the daemon
        // binary does. The traced pass rebuilds it piecewise below, and
        // its digest must match this one.
        let session = session(o.seed, o.smoke)?;
        let (sim, pool) = session.build(telemetry);
        inputs_s = start.elapsed().as_secs_f64();
        Stepper::Daemon(daemon(sim, pool, &session, journal.take()))
    } else {
        let Inputs {
            cfg,
            ns,
            balancer,
            groups,
            pool,
            session,
        } = inputs(w, o.seed, o.smoke, telemetry)?;
        inputs_s = start.elapsed().as_secs_f64();
        let balancer = if o.wrap.balancer {
            TimedBalancer::wrap(balancer, Arc::clone(&o.layers))
        } else {
            balancer
        };
        let wrap_stream = |s: Box<dyn OpStream>| {
            if o.wrap.streams {
                TimedStream::wrap(s, Arc::clone(&o.layers))
            } else {
                s
            }
        };
        let groups = groups
            .into_iter()
            .map(|(s, n)| (wrap_stream(s), n))
            .collect();
        let pool = pool.into_iter().map(wrap_stream).collect();
        let sim = Simulation::new_grouped(cfg, ns, balancer, groups);
        match session {
            Some(session) => Stepper::Daemon(daemon(sim, pool, &session, journal.take())),
            None => Stepper::Sim(Box::new(sim)),
        }
    };
    let snapshot_every = match &stepper {
        Stepper::Daemon(d) => Some((d.sim().config().duration_secs / SERVICE_SNAPSHOTS).max(1)),
        Stepper::Sim(_) => None,
    };
    Ok(Built {
        cluster: Cluster {
            stepper,
            journal: journal.map(|sub| (sub, 0)),
            snapshot_every,
            journal_bytes,
        },
        inputs_s,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Rebuilds `w` from a state snapshot, the way a restarted service would:
/// the same inputs, all dynamic state from `snap`.
pub fn restore(
    w: Workload,
    seed: u64,
    smoke: bool,
    telemetry: bool,
    snap: &Snapshot,
) -> Result<Simulation, String> {
    let handle = telemetry_handle(telemetry);
    if w == Workload::ServiceMixed {
        let (sim, _pool) = session(seed, smoke)?
            .build_restored(handle, snap)
            .map_err(|e| format!("restore: {e}"))?;
        return Ok(sim);
    }
    let i = inputs(w, seed, smoke, handle)?;
    let streams = i.groups.into_iter().map(|(s, _)| s).collect();
    Simulation::restore(i.cfg, i.balancer, streams, snap).map_err(|e| format!("restore: {e}"))
}

fn telemetry_handle(on: bool) -> Telemetry {
    if on {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

fn daemon(
    sim: Simulation,
    pool: Vec<Box<dyn OpStream>>,
    session: &Session,
    journal: Option<Box<dyn Subscriber>>,
) -> Box<Daemon<ScriptSource>> {
    let mut daemon = Daemon::new(sim, pool, ScriptSource::new(session.commands.clone()));
    if let Some(sub) = journal {
        daemon.subscribe(sub);
    }
    Box::new(daemon)
}

/// The checked-in session with its seed replaced by the workload seed.
fn session(seed: u64, smoke: bool) -> Result<Session, String> {
    let text = if smoke {
        SERVICE_SMOKE_SESSION
    } else {
        SERVICE_SESSION
    };
    let mut session = Session::parse(text).map_err(|e| format!("service session: {e}"))?;
    session.seed = seed;
    Ok(session)
}

/// Settings shared by the three simulator-driven workloads: the bench
/// harness's experiment defaults (MDS capacity 500, 10 s epochs), written
/// out here so the benchmark does not move when those defaults do.
fn base_config(seed: u64, telemetry: Telemetry) -> SimConfig {
    SimConfig {
        mds_capacity: 500.0,
        epoch_secs: 10,
        duration_secs: 100_000,
        stop_when_done: true,
        migration_bw: 5_000.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        client_rate: 50.0,
        client_cache_cap: 256,
        seed,
        // Worker count comes from `LUNULE_JOBS`, which the benchmark pins
        // in each child process.
        jobs: 0,
        telemetry,
        ..SimConfig::default()
    }
}

fn inputs(w: Workload, seed: u64, smoke: bool, telemetry: Telemetry) -> Result<Inputs, String> {
    let lunule = |cap: f64| make_balancer(BalancerKind::Lunule, cap);
    let singles = |streams: Vec<Box<dyn OpStream>>| streams.into_iter().map(|s| (s, 1)).collect();
    Ok(match w {
        Workload::ZipfRead => {
            // 200 clients keep every issue round under the cohort engine's
            // 256-request parallel-resolve cutoff, so this workload never
            // fans out; scale 0.6 gives each 6,000 files and 72,000 reads.
            let (clients, scale) = if smoke { (20, 0.04) } else { (200, 0.6) };
            let spec = WorkloadSpec {
                kind: WorkloadKind::ZipfRead,
                clients,
                scale,
                seed,
            };
            let (ns, streams) = spec.build();
            let cfg = SimConfig {
                n_mds: 16,
                ..base_config(seed, telemetry)
            };
            Inputs {
                balancer: lunule(cfg.mds_capacity),
                cfg,
                ns,
                groups: singles(streams),
                pool: Vec::new(),
                session: None,
            }
        }
        Workload::MdCycle => {
            let (dirs, files, clients, per_client) = if smoke {
                (40, 40, 20, 100)
            } else {
                (1_000, 1_000, 200, 10_000)
            };
            // An aged namespace nobody reads, then one private directory
            // per client. Each client creates, stats and removes between
            // 75% and 125% of `per_client` files, drawn from the seed, so
            // clients finish at seed-dependent times.
            let mut ns = Namespace::new();
            let aged = ns.mkdir_total(InodeId::ROOT, "aged");
            age(&mut ns, aged, 0..dirs, files);
            let mut rng = DetRng::seed_from_u64(seed);
            let streams = build_private_dirs(&mut ns, "mdtest_full", clients, 0, 0)
                .dirs
                .into_iter()
                .map(|(dir, _)| {
                    let count = per_client * 3 / 4 + rng.gen_range(0..per_client / 2 + 1);
                    Box::new(MdtestFullStream::new(dir, count as u64)) as Box<dyn OpStream>
                })
                .collect();
            let cfg = SimConfig {
                n_mds: 8,
                ..base_config(seed, telemetry)
            };
            Inputs {
                balancer: lunule(cfg.mds_capacity),
                cfg,
                ns,
                groups: singles(streams),
                pool: Vec::new(),
                session: None,
            }
        }
        Workload::MegaCohort => {
            let (clients, groups, dirs, files, ticks, ranks) = if smoke {
                (20_000u64, 320, 320, 20, 60, 32)
            } else {
                (1_000_000u64, 512, 1_000, 1_000, 2_000, 128)
            };
            let mut ns = Namespace::new();
            let dir_ids = age(&mut ns, InodeId::ROOT, 0..dirs, files);
            // Group g owns the directories d with d % groups == g and reads
            // eight files of each, drawn by its own seeded generator.
            let per_group = clients / groups as u64;
            let groups: Vec<(Box<dyn OpStream>, u64)> = (0..groups)
                .map(|g| {
                    let mut rng = DetRng::seed_from_u64(client_seed(seed, g as u64));
                    let picks = dir_ids
                        .iter()
                        .skip(g)
                        .step_by(groups)
                        .flat_map(|d| {
                            let owned = ns.inode(*d).children();
                            (0..8)
                                .map(|_| owned[rng.gen_range(0..owned.len())])
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    let count = if g + 1 == groups {
                        clients - per_group * (groups as u64 - 1)
                    } else {
                        per_group
                    };
                    (
                        Box::new(FixedStream::new(picks)) as Box<dyn OpStream>,
                        count,
                    )
                })
                .collect();
            let cfg = SimConfig {
                n_mds: ranks,
                duration_secs: ticks,
                stop_when_done: false,
                migration_bw: 50_000.0,
                client_rate: 5.0,
                ..base_config(seed, telemetry)
            };
            Inputs {
                balancer: lunule(cfg.mds_capacity),
                cfg,
                ns,
                groups,
                pool: Vec::new(),
                session: None,
            }
        }
        Workload::ServiceMixed => {
            // `Session::build`, piece by piece, so delegates can be
            // attached; the config digest check below keeps it honest.
            let session = session(seed, smoke)?;
            let spec = WorkloadSpec {
                kind: session.workload,
                clients: session.clients + session.extra_clients,
                scale: session.scale,
                seed: session.seed,
            };
            let (ns, mut streams) = spec.build();
            let pool = streams.split_off(session.clients.min(streams.len()));
            let cfg = SimConfig {
                n_mds: session.n_mds,
                mds_capacity: session.capacity,
                epoch_secs: session.epoch,
                duration_secs: session.duration,
                stop_when_done: false,
                seed: session.seed,
                telemetry,
                faults: session.faults.clone(),
                ..SimConfig::default()
            };
            if lunule_sim::config::config_digest(&cfg) != session.digest() {
                return Err("service session: piecewise config differs from Session::build".into());
            }
            Inputs {
                balancer: make_balancer(session.balancer, session.capacity),
                cfg,
                ns,
                groups: singles(streams),
                pool,
                session: Some(session),
            }
        }
    })
}

/// Creates directories `d<i>` for `i` in `dirs` under `parent`, each with
/// `files` empty files, and returns the directory ids.
fn age(ns: &mut Namespace, parent: InodeId, dirs: Range<usize>, files: usize) -> Vec<InodeId> {
    dirs.map(|d| {
        let dir = ns.mkdir_total(parent, &format!("d{d}"));
        for f in 0..files {
            ns.create_file_total(dir, &format!("f{f}"), 0);
        }
        dir
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{digest, take_snapshot, tick_loop};
    use crate::probe::Probe;
    use lunule_telemetry::{events_jsonl, Snapshot as Journal};
    use std::sync::atomic::Ordering::Relaxed;

    struct Smoke {
        digest: u64,
        layers: Arc<Layers>,
        journal: Option<(String, u64)>,
    }

    /// One smoke pass of `w` with the given delegates.
    fn smoke(w: Workload, seed: u64, wrap: Wrap, telemetry: bool) -> Smoke {
        let layers = Layers::new();
        let opts = BuildOpts {
            seed,
            smoke: true,
            telemetry,
            wrap,
            layers: Arc::clone(&layers),
        };
        let mut cluster = build(w, &opts).expect("smoke build").cluster;
        tick_loop(&mut cluster, &layers, &mut Probe::default()).expect("smoke loop");
        let handle = cluster.sim().telemetry().clone();
        let bytes = Arc::clone(&cluster.journal_bytes);
        let result = cluster.finish().expect("smoke finish");
        let journal = handle.snapshot().map(|events| {
            let exported = events_jsonl(&Journal {
                events: events.events,
                ..Journal::default()
            });
            (exported, bytes.load(Relaxed))
        });
        Smoke {
            digest: digest(&result),
            layers,
            journal,
        }
    }

    #[test]
    fn each_timing_delegate_keeps_the_smoke_digest() {
        let only_balancer = Wrap {
            balancer: true,
            streams: false,
        };
        let only_streams = Wrap {
            balancer: false,
            streams: true,
        };
        for w in Workload::ALL {
            let plain = smoke(w, 7, Wrap::default(), false);
            let balancer = smoke(w, 7, only_balancer, false);
            assert_eq!(balancer.digest, plain.digest, "{}: balancer", w.name());
            assert!(balancer.layers.record_access.read().items > 0);
            let streams = smoke(w, 7, only_streams, false);
            assert_eq!(streams.digest, plain.digest, "{}: streams", w.name());
            assert!(streams.layers.next_op.read().calls > 0);
            // The subscriber delegate forwards the journal byte for byte.
            let journaled = smoke(w, 7, Wrap::ALL, true);
            assert_eq!(journaled.digest, plain.digest, "{}: subscriber", w.name());
            assert!(journaled.layers.publish.read().calls > 0);
            let (exported, streamed) = journaled.journal.expect("telemetry on");
            assert_eq!(
                streamed,
                exported.len() as u64,
                "{}: journal bytes",
                w.name()
            );
        }
    }

    #[test]
    fn the_seed_changes_inputs_and_only_the_seed_does() {
        for w in Workload::ALL {
            let a = smoke(w, 1, Wrap::default(), false).digest;
            assert_eq!(
                a,
                smoke(w, 1, Wrap::default(), false).digest,
                "{}",
                w.name()
            );
            assert_ne!(
                a,
                smoke(w, 2, Wrap::default(), false).digest,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn end_state_snapshots_restore_byte_identically() {
        for w in Workload::ALL {
            let layers = Layers::new();
            let opts = BuildOpts {
                seed: 3,
                smoke: true,
                telemetry: w.journals(),
                wrap: Wrap::default(),
                layers: Arc::clone(&layers),
            };
            let mut cluster = build(w, &opts).expect("smoke build").cluster;
            tick_loop(&mut cluster, &layers, &mut Probe::default()).expect("smoke loop");
            let (_, bytes, _) = take_snapshot(&cluster, &layers);
            let snap = Snapshot::from_bytes(&bytes).expect("decodes");
            let restored = restore(w, 3, true, w.journals(), &snap).expect("restores");
            assert_eq!(restored.snapshot().to_bytes(), bytes, "{}", w.name());
        }
    }
}
