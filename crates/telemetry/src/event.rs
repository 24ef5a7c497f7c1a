//! Typed event records for the journal.
//!
//! Every interesting state transition in the stack maps to one [`Event`]
//! variant; the collector stamps each with the simulated tick and an
//! intra-tick sequence number to form an [`EventRecord`]. Events carry only
//! plain integers/floats/strings so this crate depends on nothing but
//! `lunule-util` — higher layers translate their domain types (ranks,
//! fragment keys) into these fields at the emission site.
//!
//! Serialisation is a flat JSON object with a `"type"` tag holding the
//! snake-case kind name, e.g.
//! `{"t":120,"seq":3,"type":"migration_start","from":0,"to":2,...}` — one
//! such object per line in the JSONL export.

use lunule_util::json::{FromJson, Json, JsonError, ToJson};

/// One structured journal entry, before timestamping.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A simulation run began.
    RunStart {
        /// Number of MDS ranks at start.
        n_mds: u32,
    },
    /// A simulated tick began (the clock was advanced to it).
    TickStart,
    /// A balance epoch closed and its statistics were recorded.
    EpochClose {
        /// The epoch index (1-based, matching `EpochRecord::epoch`).
        epoch: u64,
        /// Imbalance factor computed over this epoch's per-MDS IOPS.
        imbalance_factor: f64,
        /// Cluster-wide served IOPS for the epoch.
        total_iops: f64,
        /// Number of subtree exports the balancer planned this epoch.
        plan_subtrees: u64,
    },
    /// A named phase span opened (paired with `PhaseEnd` by name + order).
    PhaseBegin {
        /// Span name, e.g. `"balancer.epoch"`.
        name: String,
    },
    /// A named phase span closed.
    PhaseEnd {
        /// Span name matching the `PhaseBegin`.
        name: String,
    },
    /// The balancer's per-epoch decision outcome.
    Decision {
        /// The epoch index the decision was made for.
        epoch: u64,
        /// The imbalance factor the decision was based on.
        imbalance_factor: f64,
        /// Whether migration was triggered (threshold exceeded).
        triggered: bool,
        /// Number of exporter/importer pairings formed.
        pairings: u64,
        /// Total subtrees chosen for export across all pairings.
        subtrees: u64,
        /// Candidate subtrees considered before selection.
        candidates: u64,
    },
    /// A migration job was enqueued and began transferring.
    MigrationStart {
        /// Exporting rank.
        from: u32,
        /// Importing rank.
        to: u32,
        /// Root directory inode of the migrating subtree.
        dir: u64,
        /// Fragment id value bits of the subtree root frag.
        frag_value: u32,
        /// Fragment id bit count of the subtree root frag.
        frag_bits: u32,
        /// Inodes in the subtree when the job started.
        inodes: u64,
    },
    /// A migration job finished its commit phase; authority switched.
    MigrationCommit {
        /// Exporting rank.
        from: u32,
        /// Importing rank.
        to: u32,
        /// Root directory inode of the migrated subtree.
        dir: u64,
        /// Inodes transferred.
        inodes: u64,
        /// Ticks from start to commit (transfer + freeze window).
        duration_ticks: u64,
    },
    /// A migration job was abandoned (e.g. one endpoint drained).
    MigrationAbandon {
        /// Exporting rank.
        from: u32,
        /// Importing rank.
        to: u32,
        /// Root directory inode of the subtree.
        dir: u64,
        /// Inodes already moved when the job was dropped.
        moved: u64,
    },
    /// A directory fragment was split to carve out a migration root.
    FragSplit {
        /// Directory inode whose fragment split.
        dir: u64,
        /// Fragment id value bits of the fragment that was split.
        value: u32,
        /// Fragment id bit count before the split.
        bits: u32,
    },
    /// A new MDS rank joined the cluster.
    MdsAdd {
        /// The rank that was added.
        rank: u32,
    },
    /// An MDS rank was drained and its subtrees failed over.
    MdsDrain {
        /// The rank that was drained.
        rank: u32,
        /// Subtree roots re-homed onto surviving ranks.
        subtrees_failed_over: u64,
    },
    /// A batch of clients joined mid-run.
    ClientsAdd {
        /// Number of clients added.
        count: u64,
    },
    /// A scheduled fault fired (emitted once per fault, alongside any
    /// kind-specific event such as `RankCrashed`).
    FaultInjected {
        /// Fault taxonomy label: `crash`, `limp`, `report_loss`, or
        /// `migration_stall`.
        kind: String,
        /// Rank the fault targets.
        rank: u32,
        /// Principal magnitude (ticks or epochs, per `kind`).
        param: u64,
    },
    /// An MDS rank crashed: capacity zeroed, subtrees failed over.
    RankCrashed {
        /// The rank that went down.
        rank: u32,
        /// Scheduled outage length in ticks.
        down_ticks: u64,
    },
    /// A crashed MDS rank rejoined the cluster (empty, to be re-filled).
    RankRecovered {
        /// The rank that came back.
        rank: u32,
        /// Actual ticks the rank spent down.
        down_ticks: u64,
    },
    /// A migration job exceeded its transfer deadline.
    MigrationTimedOut {
        /// Exporting rank.
        from: u32,
        /// Importing rank.
        to: u32,
        /// Root directory inode of the subtree.
        dir: u64,
        /// Retry attempts already made when the timeout fired (0 on first).
        attempt: u32,
        /// Inodes moved when the deadline passed.
        moved: u64,
    },
    /// A balancer tuning knob was changed at runtime (daemon control
    /// plane).
    KnobSet {
        /// Knob name, e.g. `"if_threshold"`.
        name: String,
        /// The new value.
        value: f64,
    },
    /// A timed-out migration job was re-queued after backoff.
    MigrationRetried {
        /// Exporting rank.
        from: u32,
        /// Importing rank.
        to: u32,
        /// Root directory inode of the subtree.
        dir: u64,
        /// Retry attempt number this restart begins (1-based).
        attempt: u32,
        /// Backoff the job waited before restarting, in ticks.
        backoff_ticks: u64,
    },
}

impl Event {
    /// The snake-case kind tag used in serialised records and by
    /// [`crate::Telemetry::count_kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::TickStart => "tick_start",
            Event::EpochClose { .. } => "epoch_close",
            Event::PhaseBegin { .. } => "phase_begin",
            Event::PhaseEnd { .. } => "phase_end",
            Event::Decision { .. } => "decision",
            Event::MigrationStart { .. } => "migration_start",
            Event::MigrationCommit { .. } => "migration_commit",
            Event::MigrationAbandon { .. } => "migration_abandon",
            Event::FragSplit { .. } => "frag_split",
            Event::MdsAdd { .. } => "mds_add",
            Event::MdsDrain { .. } => "mds_drain",
            Event::ClientsAdd { .. } => "clients_add",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RankCrashed { .. } => "rank_crashed",
            Event::RankRecovered { .. } => "rank_recovered",
            Event::KnobSet { .. } => "knob_set",
            Event::MigrationTimedOut { .. } => "migration_timeout",
            Event::MigrationRetried { .. } => "migration_retry",
        }
    }

    /// The variant's payload as ordered `(key, value)` JSON fields,
    /// excluding the `"type"` tag.
    fn payload(&self) -> Vec<(String, Json)> {
        fn field(name: &str, v: impl ToJson) -> (String, Json) {
            (name.to_string(), v.to_json())
        }
        match self {
            Event::RunStart { n_mds } => vec![field("n_mds", n_mds)],
            Event::TickStart => Vec::new(),
            Event::EpochClose {
                epoch,
                imbalance_factor,
                total_iops,
                plan_subtrees,
            } => vec![
                field("epoch", epoch),
                field("imbalance_factor", imbalance_factor),
                field("total_iops", total_iops),
                field("plan_subtrees", plan_subtrees),
            ],
            Event::PhaseBegin { name } => vec![field("name", name)],
            Event::PhaseEnd { name } => vec![field("name", name)],
            Event::Decision {
                epoch,
                imbalance_factor,
                triggered,
                pairings,
                subtrees,
                candidates,
            } => vec![
                field("epoch", epoch),
                field("imbalance_factor", imbalance_factor),
                field("triggered", triggered),
                field("pairings", pairings),
                field("subtrees", subtrees),
                field("candidates", candidates),
            ],
            Event::MigrationStart {
                from,
                to,
                dir,
                frag_value,
                frag_bits,
                inodes,
            } => vec![
                field("from", from),
                field("to", to),
                field("dir", dir),
                field("frag_value", frag_value),
                field("frag_bits", frag_bits),
                field("inodes", inodes),
            ],
            Event::MigrationCommit {
                from,
                to,
                dir,
                inodes,
                duration_ticks,
            } => vec![
                field("from", from),
                field("to", to),
                field("dir", dir),
                field("inodes", inodes),
                field("duration_ticks", duration_ticks),
            ],
            Event::MigrationAbandon {
                from,
                to,
                dir,
                moved,
            } => vec![
                field("from", from),
                field("to", to),
                field("dir", dir),
                field("moved", moved),
            ],
            Event::FragSplit { dir, value, bits } => vec![
                field("dir", dir),
                field("value", value),
                field("bits", bits),
            ],
            Event::MdsAdd { rank } => vec![field("rank", rank)],
            Event::MdsDrain {
                rank,
                subtrees_failed_over,
            } => vec![
                field("rank", rank),
                field("subtrees_failed_over", subtrees_failed_over),
            ],
            Event::ClientsAdd { count } => vec![field("count", count)],
            Event::FaultInjected { kind, rank, param } => vec![
                field("kind", kind),
                field("rank", rank),
                field("param", param),
            ],
            Event::RankCrashed { rank, down_ticks } => {
                vec![field("rank", rank), field("down_ticks", down_ticks)]
            }
            Event::RankRecovered { rank, down_ticks } => {
                vec![field("rank", rank), field("down_ticks", down_ticks)]
            }
            Event::MigrationTimedOut {
                from,
                to,
                dir,
                attempt,
                moved,
            } => vec![
                field("from", from),
                field("to", to),
                field("dir", dir),
                field("attempt", attempt),
                field("moved", moved),
            ],
            Event::KnobSet { name, value } => {
                vec![field("name", name), field("value", value)]
            }
            Event::MigrationRetried {
                from,
                to,
                dir,
                attempt,
                backoff_ticks,
            } => vec![
                field("from", from),
                field("to", to),
                field("dir", dir),
                field("attempt", attempt),
                field("backoff_ticks", backoff_ticks),
            ],
        }
    }
}

fn req<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    let field = v
        .get(key)
        .ok_or_else(|| JsonError::new(format!("event missing field '{key}'")))?;
    T::from_json(field)
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut fields = vec![("type".to_string(), Json::Str(self.kind().to_string()))];
        fields.extend(self.payload());
        Json::Obj(fields)
    }
}

impl FromJson for Event {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind: String = req(v, "type")?;
        match kind.as_str() {
            "run_start" => Ok(Event::RunStart {
                n_mds: req(v, "n_mds")?,
            }),
            "tick_start" => Ok(Event::TickStart),
            "epoch_close" => Ok(Event::EpochClose {
                epoch: req(v, "epoch")?,
                imbalance_factor: req(v, "imbalance_factor")?,
                total_iops: req(v, "total_iops")?,
                plan_subtrees: req(v, "plan_subtrees")?,
            }),
            "phase_begin" => Ok(Event::PhaseBegin {
                name: req(v, "name")?,
            }),
            "phase_end" => Ok(Event::PhaseEnd {
                name: req(v, "name")?,
            }),
            "decision" => Ok(Event::Decision {
                epoch: req(v, "epoch")?,
                imbalance_factor: req(v, "imbalance_factor")?,
                triggered: req(v, "triggered")?,
                pairings: req(v, "pairings")?,
                subtrees: req(v, "subtrees")?,
                candidates: req(v, "candidates")?,
            }),
            "migration_start" => Ok(Event::MigrationStart {
                from: req(v, "from")?,
                to: req(v, "to")?,
                dir: req(v, "dir")?,
                frag_value: req(v, "frag_value")?,
                frag_bits: req(v, "frag_bits")?,
                inodes: req(v, "inodes")?,
            }),
            "migration_commit" => Ok(Event::MigrationCommit {
                from: req(v, "from")?,
                to: req(v, "to")?,
                dir: req(v, "dir")?,
                inodes: req(v, "inodes")?,
                duration_ticks: req(v, "duration_ticks")?,
            }),
            "migration_abandon" => Ok(Event::MigrationAbandon {
                from: req(v, "from")?,
                to: req(v, "to")?,
                dir: req(v, "dir")?,
                moved: req(v, "moved")?,
            }),
            "frag_split" => Ok(Event::FragSplit {
                dir: req(v, "dir")?,
                value: req(v, "value")?,
                bits: req(v, "bits")?,
            }),
            "mds_add" => Ok(Event::MdsAdd {
                rank: req(v, "rank")?,
            }),
            "mds_drain" => Ok(Event::MdsDrain {
                rank: req(v, "rank")?,
                subtrees_failed_over: req(v, "subtrees_failed_over")?,
            }),
            "clients_add" => Ok(Event::ClientsAdd {
                count: req(v, "count")?,
            }),
            "fault_injected" => Ok(Event::FaultInjected {
                kind: req(v, "kind")?,
                rank: req(v, "rank")?,
                param: req(v, "param")?,
            }),
            "rank_crashed" => Ok(Event::RankCrashed {
                rank: req(v, "rank")?,
                down_ticks: req(v, "down_ticks")?,
            }),
            "rank_recovered" => Ok(Event::RankRecovered {
                rank: req(v, "rank")?,
                down_ticks: req(v, "down_ticks")?,
            }),
            "knob_set" => Ok(Event::KnobSet {
                name: req(v, "name")?,
                value: req(v, "value")?,
            }),
            "migration_timeout" => Ok(Event::MigrationTimedOut {
                from: req(v, "from")?,
                to: req(v, "to")?,
                dir: req(v, "dir")?,
                attempt: req(v, "attempt")?,
                moved: req(v, "moved")?,
            }),
            "migration_retry" => Ok(Event::MigrationRetried {
                from: req(v, "from")?,
                to: req(v, "to")?,
                dir: req(v, "dir")?,
                attempt: req(v, "attempt")?,
                backoff_ticks: req(v, "backoff_ticks")?,
            }),
            other => Err(JsonError::new(format!("unknown event type '{other}'"))),
        }
    }
}

/// An [`Event`] stamped with the deterministic clock.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Simulated tick the event was emitted at.
    pub t: u64,
    /// Intra-tick emission index (resets to 0 at each clock advance).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl ToJson for EventRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t".to_string(), self.t.to_json()),
            ("seq".to_string(), self.seq.to_json()),
        ];
        if let Json::Obj(event_fields) = self.event.to_json() {
            fields.extend(event_fields);
        }
        Json::Obj(fields)
    }
}

impl FromJson for EventRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(EventRecord {
            t: req(v, "t")?,
            seq: req(v, "seq")?,
            event: Event::from_json(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Event> {
        vec![
            Event::RunStart { n_mds: 5 },
            Event::TickStart,
            Event::EpochClose {
                epoch: 3,
                imbalance_factor: 0.42,
                total_iops: 1250.5,
                plan_subtrees: 2,
            },
            Event::PhaseBegin {
                name: "balancer.epoch".into(),
            },
            Event::PhaseEnd {
                name: "balancer.epoch".into(),
            },
            Event::Decision {
                epoch: 3,
                imbalance_factor: 0.42,
                triggered: true,
                pairings: 2,
                subtrees: 4,
                candidates: 17,
            },
            Event::MigrationStart {
                from: 0,
                to: 2,
                dir: 99,
                frag_value: 1,
                frag_bits: 1,
                inodes: 300,
            },
            Event::MigrationCommit {
                from: 0,
                to: 2,
                dir: 99,
                inodes: 300,
                duration_ticks: 12,
            },
            Event::MigrationAbandon {
                from: 0,
                to: 2,
                dir: 99,
                moved: 120,
            },
            Event::FragSplit {
                dir: 99,
                value: 0,
                bits: 1,
            },
            Event::MdsAdd { rank: 4 },
            Event::MdsDrain {
                rank: 1,
                subtrees_failed_over: 6,
            },
            Event::ClientsAdd { count: 32 },
            Event::FaultInjected {
                kind: "crash".into(),
                rank: 1,
                param: 60,
            },
            Event::RankCrashed {
                rank: 1,
                down_ticks: 60,
            },
            Event::RankRecovered {
                rank: 1,
                down_ticks: 61,
            },
            Event::KnobSet {
                name: "if_threshold".into(),
                value: 0.15,
            },
            Event::MigrationTimedOut {
                from: 0,
                to: 2,
                dir: 99,
                attempt: 0,
                moved: 120,
            },
            Event::MigrationRetried {
                from: 0,
                to: 2,
                dir: 99,
                attempt: 1,
                backoff_ticks: 8,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for (i, event) in all_variants().into_iter().enumerate() {
            let record = EventRecord {
                t: 10 + i as u64,
                seq: i as u64,
                event,
            };
            let line = record.to_json().to_string_compact();
            let parsed = Json::parse(&line).unwrap();
            let back = EventRecord::from_json(&parsed).unwrap();
            assert_eq!(back, record, "variant {i} failed round trip: {line}");
        }
    }

    #[test]
    fn kind_tags_are_unique() {
        let variants = all_variants();
        let mut kinds: Vec<&str> = variants.iter().map(Event::kind).collect();
        let total = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), total);
    }

    #[test]
    fn record_serialises_flat_with_type_tag() {
        let record = EventRecord {
            t: 120,
            seq: 3,
            event: Event::MdsAdd { rank: 7 },
        };
        let line = record.to_json().to_string_compact();
        assert_eq!(line, r#"{"t":120,"seq":3,"type":"mds_add","rank":7}"#);
    }

    #[test]
    fn unknown_type_is_rejected() {
        let v = Json::parse(r#"{"t":0,"seq":0,"type":"warp_core_breach"}"#).unwrap();
        assert!(EventRecord::from_json(&v).is_err());
    }

    #[test]
    fn missing_payload_field_is_rejected() {
        let v = Json::parse(r#"{"t":0,"seq":0,"type":"mds_add"}"#).unwrap();
        assert!(EventRecord::from_json(&v).is_err());
    }
}
