//! Snapshot and restore: the simulation's state codec.
//!
//! [`Simulation::snapshot`] writes every piece of deterministic state into
//! named sections of a [`Snapshot`] container; [`Simulation::restore`]
//! reads them back, so a restored run continues byte-identically.

use crate::client::Client;
use crate::cluster::Simulation;
use crate::cohort::{Cohort, CohortSet, Interval, MergeScratch};
use crate::config::SimConfig;
use crate::latency::LatencyHistogram;
use crate::mds::MdsState;
use crate::migration::Migrator;
use crate::request::OpStream;
use crate::results::EpochRecord;
use lunule_core::Balancer;
use lunule_faults::FaultKind;
use lunule_namespace::{Namespace, SubtreeMap};
use lunule_snapshot::{Snapshot, SnapshotError};
use lunule_util::codec::{CodecError, Decoder, Encoder};
use lunule_util::convert::{u32_to_usize, usize_to_u64};

impl Simulation {
    /// Captures the complete simulation state into a snapshot container.
    ///
    /// A snapshot is always taken *between* ticks: everything tick
    /// `self.now() - 1` did is included, nothing of tick `self.now()` has
    /// happened yet. Restoring via [`Simulation::restore`] and stepping on
    /// produces the byte-identical telemetry journal an uninterrupted run
    /// would have written — that is the contract the daemon's crash-safety
    /// and the warm-started benches rely on.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new(
            self.tick,
            self.cfg.seed,
            crate::config::config_digest(&self.cfg),
        );

        let mut e = Encoder::new();
        self.ns.encode(&mut e);
        snap.push_section("namespace", e.into_bytes());

        let mut e = Encoder::new();
        self.map.encode(&mut e);
        snap.push_section("subtrees", e.into_bytes());

        // MDS budgets/counters plus the incremental residency ledger (kept
        // verbatim rather than recomputed, so restarts cannot drift).
        let mut e = Encoder::new();
        e.put_seq(&self.mds, |e, m| {
            e.put_f64(m.capacity);
            e.put_f64(m.budget);
            e.put_u64(m.served_epoch);
            e.put_u64(m.forwards_epoch);
            e.put_u64(m.served_total);
            e.put_u64(m.forwards_total);
        });
        e.put_seq(&self.resident, |e, r| e.put_u64(*r));
        snap.push_section("mds", e.into_bytes());

        let mut e = Encoder::new();
        encode_cohorts(&self.cohorts, &mut e);
        snap.push_section("cohorts", e.into_bytes());

        let mut e = Encoder::new();
        self.migrator.save_state(&mut e);
        snap.push_section("migrator", e.into_bytes());

        // The policy name is written alongside its state so a restore with
        // the wrong balancer fails loudly instead of misreading the bytes.
        let mut e = Encoder::new();
        e.put_str(self.balancer.name());
        self.balancer.save_state(&mut e);
        snap.push_section("balancer", e.into_bytes());

        let mut e = Encoder::new();
        self.latency.encode(&mut e);
        e.put_seq(&self.epochs, |e, r| r.encode(e));
        snap.push_section("results", e.into_bytes());

        let mut e = Encoder::new();
        e.put_usize(self.fault_cursor);
        e.put_seq(&self.pending_faults, |e, k| k.encode(e));
        e.put_seq(&self.down_until, |e, v| {
            e.put_option(v, |e, (recover_at, crashed_at)| {
                e.put_u64(*recover_at);
                e.put_u64(*crashed_at);
            });
        });
        e.put_seq(&self.saved_capacity, |e, c| e.put_f64(*c));
        e.put_seq(&self.limp, |e, v| {
            e.put_option(v, |e, (factor, until)| {
                e.put_f64(*factor);
                e.put_u64(*until);
            });
        });
        e.put_seq(&self.report_loss_until, |e, t| e.put_u64(*t));
        snap.push_section("faults", e.into_bytes());

        // Stamping position plus cumulative migration journal counts; the
        // restored run's fresh journal continues from this position and the
        // ledger audit offsets its counts by these totals.
        let (clock, seq) = self.telemetry.clock_position();
        let (starts, commits, abandons) = self.migration_journal_counts();
        let mut e = Encoder::new();
        e.put_u64(clock);
        e.put_u64(seq);
        e.put_u64(starts);
        e.put_u64(commits);
        e.put_u64(abandons);
        snap.push_section("telemetry", e.into_bytes());

        snap
    }

    /// Rebuilds a simulation from a snapshot and continues byte-identically.
    ///
    /// The caller supplies the same *inputs* the original run was built
    /// from — the configuration (whose digest must match the snapshot's),
    /// a freshly constructed balancer of the same policy, and one freshly
    /// built op stream per original client — and the snapshot supplies all
    /// *state*: the namespace replaces whatever the streams were built
    /// against, stream cursors/RNG positions are replayed via
    /// [`OpStream::load_state`], and the balancer's dynamic state via
    /// [`Balancer::load_state`] (its `setup` hook does **not** run again).
    /// No `RunStart` event is re-emitted; telemetry stamping resumes from
    /// the saved position.
    pub fn restore(
        cfg: SimConfig,
        mut balancer: Box<dyn Balancer>,
        streams: Vec<Box<dyn OpStream>>,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        cfg.validate();
        snap.check_digest(crate::config::config_digest(&cfg))?;
        if snap.seed != cfg.seed {
            return Err(SnapshotError::DigestMismatch {
                found: snap.seed,
                expected: cfg.seed,
            });
        }
        let telemetry = cfg.telemetry.clone();

        let ns = decode_section(snap, "namespace", Namespace::decode)?;
        let map = decode_section(snap, "subtrees", SubtreeMap::decode)?;

        let (mds, resident) = decode_section(snap, "mds", |d| {
            let mds = d.get_seq("mds states", |d| {
                let mut m = MdsState::new(1.0);
                m.capacity = d.get_f64("mds.capacity")?;
                m.budget = d.get_f64("mds.budget")?;
                m.served_epoch = d.get_u64("mds.served_epoch")?;
                m.forwards_epoch = d.get_u64("mds.forwards_epoch")?;
                m.served_total = d.get_u64("mds.served_total")?;
                m.forwards_total = d.get_u64("mds.forwards_total")?;
                if !m.capacity.is_finite()
                    || m.capacity < 0.0
                    || !m.budget.is_finite()
                    || m.budget < 0.0
                {
                    return Err(CodecError::Invalid {
                        what: "mds.capacity",
                    });
                }
                Ok(m)
            })?;
            let resident = d.get_seq("mds residency", |d| d.get_u64("mds.resident"))?;
            // The cluster only ever grows, and every parallel ledger is
            // indexed by rank.
            if mds.len() < cfg.n_mds || resident.len() != mds.len() {
                return Err(CodecError::Invalid { what: "mds.count" });
            }
            Ok((mds, resident))
        })?;
        let n_ranks = mds.len();
        if map.root_rank().index() >= n_ranks
            || map.all_entries().iter().any(|(_, r)| r.index() >= n_ranks)
        {
            return Err(SnapshotError::Decode {
                section: "subtrees",
                source: CodecError::Invalid {
                    what: "subtree rank",
                },
            });
        }

        // Client state: `streams` carries one stream per client *group*,
        // not per member.
        let cohorts = decode_section(snap, "cohorts", |d| decode_cohorts(d, streams))?;

        let mut migrator = Migrator::from_config(&cfg, &telemetry);
        decode_section(snap, "migrator", |d| migrator.load_state(d))?;

        balancer.attach_telemetry(telemetry.clone());
        decode_section(snap, "balancer", |d| {
            let name = d.get_str("balancer.name")?;
            if name != balancer.name() {
                return Err(CodecError::Invalid {
                    what: "balancer.name",
                });
            }
            balancer.load_state(d)
        })?;

        let (latency, epochs) = decode_section(snap, "results", |d| {
            let latency = LatencyHistogram::decode(d)?;
            let epochs = d.get_seq("epoch records", EpochRecord::decode)?;
            Ok((latency, epochs))
        })?;

        let (fault_cursor, pending_faults, down_until, saved_capacity, limp, report_loss_until) =
            decode_section(snap, "faults", |d| {
                let cursor = d.get_usize("fault.cursor")?;
                if cursor > cfg.faults.events().len() {
                    return Err(CodecError::Invalid {
                        what: "fault.cursor",
                    });
                }
                let pending = d.get_seq("fault.pending", FaultKind::decode)?;
                let down = d.get_seq("fault.down", |d| {
                    d.get_option("fault.down_until", |d| {
                        Ok((
                            d.get_u64("fault.recover_at")?,
                            d.get_u64("fault.crashed_at")?,
                        ))
                    })
                })?;
                let saved = d.get_seq("fault.saved_capacity", |d| {
                    d.get_f64("fault.saved_capacity")
                })?;
                let limp = d.get_seq("fault.limp", |d| {
                    d.get_option("fault.limp_entry", |d| {
                        Ok((
                            d.get_f64("fault.limp_factor")?,
                            d.get_u64("fault.limp_until")?,
                        ))
                    })
                })?;
                let loss = d.get_seq("fault.report_loss", |d| d.get_u64("fault.report_loss"))?;
                if down.len() != n_ranks
                    || saved.len() != n_ranks
                    || limp.len() != n_ranks
                    || loss.len() != n_ranks
                {
                    return Err(CodecError::Invalid {
                        what: "fault.ranks",
                    });
                }
                Ok((cursor, pending, down, saved, limp, loss))
            })?;

        let (clock, seq, journal_base) = decode_section(snap, "telemetry", |d| {
            let clock = d.get_u64("telemetry.clock")?;
            let seq = d.get_u64("telemetry.seq")?;
            let base = (
                d.get_u64("telemetry.migration_start")?,
                d.get_u64("telemetry.migration_commit")?,
                d.get_u64("telemetry.migration_abandon")?,
            );
            Ok((clock, seq, base))
        })?;
        telemetry.restore_clock_position(clock, seq);

        Ok(Simulation {
            mds,
            migrator,
            latency,
            resident,
            cohorts,
            balancer,
            ns,
            map,
            tick: snap.tick,
            epochs,
            telemetry,
            fault_cursor,
            pending_faults,
            down_until,
            saved_capacity,
            limp,
            report_loss_until,
            journal_base,
            name_scratch: String::new(),
            round_scratch: Default::default(),
            handoff: Default::default(),
            auth_cache: lunule_namespace::AuthorityCache::new(),
            op_ledger: crate::tick_ledger::TickOpLedger::default(),
            profiler: Default::default(),
            cfg,
        })
    }
}

/// Writes a cohort set's persistent state.
///
/// Cohorts are written in canonical-member-id order, *not* internal index
/// order: indices depend on the split/merge history (an uninterrupted run
/// and a restored one can interleave slots differently), while the lowest
/// member id of each cohort is a stable name. Ordering by it keeps
/// snapshots of equal logical state byte-identical — the property the
/// snapshot round-trip battery pins.
fn encode_cohorts(set: &CohortSet, e: &mut Encoder) {
    e.put_usize(set.n_groups);
    e.put_usize(set.n_clients);
    let mut order: Vec<usize> = (0..set.cohorts.len())
        .filter(|&c| set.cohorts[c].count > 0)
        .collect();
    // How many live cohorts each origin currently has: the restore side
    // needs this *before* decoding a cohort to know whether the origin's
    // freshly built stream can be moved in or must be cloned.
    let mut per_origin = vec![0usize; set.n_groups];
    for &c in &order {
        per_origin[u32_to_usize(set.cohorts[c].origin)] += 1;
    }
    e.put_seq(&per_origin, |e, n| e.put_usize(*n));
    order.sort_by_key(|&c| set.cohorts[c].state.id);
    e.put_seq(&order, |e, &c| {
        let co = &set.cohorts[c];
        e.put_u32(co.origin);
        let ivs: Vec<(usize, usize)> = set
            .intervals
            .iter()
            .filter(|iv| iv.cohort == c)
            .map(|iv| (iv.start, iv.len))
            .collect();
        e.put_seq(&ivs, |e, (start, len)| {
            e.put_usize(*start);
            e.put_usize(*len);
        });
        co.state.encode(e);
    });
}

/// Rebuilds a cohort set from snapshot bytes plus one freshly built op
/// stream per original client *group*. An origin that still has a single
/// cohort takes its group stream directly; origins that split clone the
/// stream per cohort (the stream cursor is then overwritten by the state
/// replay inside [`Client::decode`], so clones land at the right position).
fn decode_cohorts(
    d: &mut Decoder<'_>,
    streams: Vec<Box<dyn OpStream>>,
) -> Result<CohortSet, CodecError> {
    let n_groups = d.get_usize("cohorts.groups")?;
    let n_clients = d.get_usize("cohorts.members")?;
    if n_groups != streams.len() {
        return Err(CodecError::Invalid {
            what: "cohorts.groups",
        });
    }
    let per_origin = d.get_seq("cohorts.per_origin", |d| d.get_usize("cohorts.per_origin"))?;
    if per_origin.len() != n_groups {
        return Err(CodecError::Invalid {
            what: "cohorts.per_origin",
        });
    }
    let mut masters: Vec<Option<Box<dyn OpStream>>> = streams.into_iter().map(Some).collect();
    let mut cohorts: Vec<Cohort> = Vec::new();
    let mut intervals: Vec<Interval> = Vec::new();
    d.get_seq("cohorts", |d| {
        let origin = d.get_u32("cohort.origin")?;
        let og = u32_to_usize(origin);
        if og >= n_groups {
            return Err(CodecError::Invalid {
                what: "cohort.origin",
            });
        }
        let ivs = d.get_seq("cohort.intervals", |d| {
            let start = d.get_usize("interval.start")?;
            let len = d.get_usize("interval.len")?;
            if len == 0 {
                return Err(CodecError::Invalid {
                    what: "interval.len",
                });
            }
            Ok((start, len))
        })?;
        let members: u64 = ivs.iter().map(|&(_, len)| usize_to_u64(len)).sum();
        let stream = if per_origin[og] == 1 {
            let m = masters[og].take().ok_or(CodecError::Invalid {
                what: "cohort.origin",
            })?;
            // Even a lone cohort must stay splittable if it has members
            // to diverge.
            if members > 1 && m.try_clone_box().is_none() {
                return Err(CodecError::Invalid {
                    what: "cohort.stream",
                });
            }
            m
        } else {
            masters[og]
                .as_ref()
                .and_then(|m| m.try_clone_box())
                .ok_or(CodecError::Invalid {
                    what: "cohort.stream",
                })?
        };
        let state = Client::decode(d, stream)?;
        let slot = cohorts.len();
        for (start, len) in ivs {
            intervals.push(Interval {
                start,
                len,
                cohort: slot,
            });
        }
        cohorts.push(Cohort {
            state,
            origin,
            count: members,
        });
        Ok(())
    })?;
    intervals.sort_by_key(|iv| iv.start);
    let set = CohortSet {
        cohorts,
        intervals,
        n_clients,
        n_groups,
        merge: MergeScratch::default(),
    };
    set.check_invariants()
        .map_err(|_| CodecError::Invalid { what: "cohorts" })?;
    Ok(set)
}

/// Reads the number of op streams [`Simulation::restore`] expects for a
/// snapshot: the client *group* count (one stream per group, however
/// many cohorts the group has split into).
pub fn snapshot_stream_count(snap: &Snapshot) -> Result<usize, SnapshotError> {
    let mut d = Decoder::new(snap.require_section("cohorts")?);
    d.get_usize("cohorts.groups")
        .map_err(|source| SnapshotError::Decode {
            section: "cohorts",
            source,
        })
}

/// Runs a section decoder, mapping codec failures (including trailing
/// bytes) to a [`SnapshotError::Decode`] that names the section.
fn decode_section<T>(
    snap: &Snapshot,
    section: &'static str,
    f: impl FnOnce(&mut Decoder<'_>) -> Result<T, CodecError>,
) -> Result<T, SnapshotError> {
    let payload = snap.require_section(section)?;
    let mut d = Decoder::new(payload);
    let value = f(&mut d).map_err(|source| SnapshotError::Decode { section, source })?;
    d.finish()
        .map_err(|source| SnapshotError::Decode { section, source })?;
    Ok(value)
}
