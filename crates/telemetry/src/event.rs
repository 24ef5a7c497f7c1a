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
//!
//! Each variant is declared once, in the `events!` table below: its docs,
//! its tag and its typed fields. The table generates the enum,
//! [`Event::kind`], the payload and the JSON codec, whose keys are the
//! field names in declaration order, so a new field is one line there.

use lunule_util::json::{FromJson, Json, JsonError, ToJson};

/// Generates [`Event`] from a table of `Variant "tag" { field: Type, .. }`
/// entries (the braces are left out for a unit variant): the enum,
/// [`Event::kind`], [`Event::payload`] and [`FromJson`].
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident $tag:literal $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty),* $(,)?
        })?
    ),* $(,)?) => {
        /// One structured journal entry, before timestamping.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $(
                $(#[$doc])*
                $variant $({ $($(#[$field_doc])* $field: $ty),* })?,
            )*
        }

        impl Event {
            /// The snake-case kind tag used in serialised records and by
            /// [`crate::Telemetry::count_kind`].
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }

            /// The variant's payload as ordered `(key, value)` JSON fields,
            /// excluding the `"type"` tag.
            pub(crate) fn payload(&self) -> Vec<(String, Json)> {
                match self {
                    $(Event::$variant $({ $($field),* })? => vec![
                        $($((stringify!($field).to_string(), $field.to_json())),*)?
                    ],)*
                }
            }
        }

        impl FromJson for Event {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let kind: String = req(v, "type")?;
                match kind.as_str() {
                    $($tag => Ok(Event::$variant $({
                        $($field: req(v, stringify!($field))?),*
                    })?),)*
                    other => Err(JsonError::new(format!("unknown event type '{other}'"))),
                }
            }
        }
    };
}

events! {
    /// A simulation run began.
    RunStart "run_start" {
        /// Number of MDS ranks at start.
        n_mds: u32,
    },
    /// A simulated tick began (the clock was advanced to it).
    TickStart "tick_start",
    /// A balance epoch closed and its statistics were recorded.
    EpochClose "epoch_close" {
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
    PhaseBegin "phase_begin" {
        /// Span name, e.g. `"balancer.epoch"`.
        name: String,
    },
    /// A named phase span closed.
    PhaseEnd "phase_end" {
        /// Span name matching the `PhaseBegin`.
        name: String,
    },
    /// The balancer's per-epoch decision outcome.
    Decision "decision" {
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
    MigrationStart "migration_start" {
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
    MigrationCommit "migration_commit" {
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
    MigrationAbandon "migration_abandon" {
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
    FragSplit "frag_split" {
        /// Directory inode whose fragment split.
        dir: u64,
        /// Fragment id value bits of the fragment that was split.
        value: u32,
        /// Fragment id bit count before the split.
        bits: u32,
    },
    /// A new MDS rank joined the cluster.
    MdsAdd "mds_add" {
        /// The rank that was added.
        rank: u32,
    },
    /// An MDS rank was drained and its subtrees failed over.
    MdsDrain "mds_drain" {
        /// The rank that was drained.
        rank: u32,
        /// Subtree roots re-homed onto surviving ranks.
        subtrees_failed_over: u64,
    },
    /// A batch of clients joined mid-run.
    ClientsAdd "clients_add" {
        /// Number of clients added.
        count: u64,
    },
    /// A scheduled fault fired (emitted once per fault, alongside any
    /// kind-specific event such as `RankCrashed`).
    FaultInjected "fault_injected" {
        /// Fault taxonomy label: `crash`, `limp`, `report_loss`, or
        /// `migration_stall`.
        kind: String,
        /// Rank the fault targets.
        rank: u32,
        /// Principal magnitude (ticks or epochs, per `kind`).
        param: u64,
    },
    /// An MDS rank crashed: capacity zeroed, subtrees failed over.
    RankCrashed "rank_crashed" {
        /// The rank that went down.
        rank: u32,
        /// Scheduled outage length in ticks.
        down_ticks: u64,
    },
    /// A crashed MDS rank rejoined the cluster (empty, to be re-filled).
    RankRecovered "rank_recovered" {
        /// The rank that came back.
        rank: u32,
        /// Actual ticks the rank spent down.
        down_ticks: u64,
    },
    /// A migration job exceeded its transfer deadline.
    MigrationTimedOut "migration_timeout" {
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
    KnobSet "knob_set" {
        /// Knob name, e.g. `"if_threshold"`.
        name: String,
        /// The new value.
        value: f64,
    },
    /// A timed-out migration job was re-queued after backoff.
    MigrationRetried "migration_retry" {
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

fn req<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    let field = v
        .get(key)
        .ok_or_else(|| JsonError::new(format!("event missing field '{key}'")))?;
    T::from_json(field)
}

impl Event {
    /// `head`, then the `"type"` tag, then the payload, in one vector.
    fn fields_after<const N: usize>(&self, head: [(String, Json); N]) -> Vec<(String, Json)> {
        let payload = self.payload();
        let mut fields = Vec::with_capacity(N + 1 + payload.len());
        fields.extend(head);
        fields.push(("type".to_string(), Json::Str(self.kind().to_string())));
        fields.extend(payload);
        fields
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        Json::Obj(self.fields_after([]))
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
        Json::Obj(self.event.fields_after([
            ("t".to_string(), self.t.to_json()),
            ("seq".to_string(), self.seq.to_json()),
        ]))
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

    /// The compact line of each [`all_variants`] entry stamped `t: 120`,
    /// `seq: 3`, in the same order: the tag, every key and the key order
    /// are the journal's contract.
    const VARIANT_LINES: [&str; 19] = [
        r#"{"t":120,"seq":3,"type":"run_start","n_mds":5}"#,
        r#"{"t":120,"seq":3,"type":"tick_start"}"#,
        r#"{"t":120,"seq":3,"type":"epoch_close","epoch":3,"imbalance_factor":0.42,"total_iops":1250.5,"plan_subtrees":2}"#,
        r#"{"t":120,"seq":3,"type":"phase_begin","name":"balancer.epoch"}"#,
        r#"{"t":120,"seq":3,"type":"phase_end","name":"balancer.epoch"}"#,
        r#"{"t":120,"seq":3,"type":"decision","epoch":3,"imbalance_factor":0.42,"triggered":true,"pairings":2,"subtrees":4,"candidates":17}"#,
        r#"{"t":120,"seq":3,"type":"migration_start","from":0,"to":2,"dir":99,"frag_value":1,"frag_bits":1,"inodes":300}"#,
        r#"{"t":120,"seq":3,"type":"migration_commit","from":0,"to":2,"dir":99,"inodes":300,"duration_ticks":12}"#,
        r#"{"t":120,"seq":3,"type":"migration_abandon","from":0,"to":2,"dir":99,"moved":120}"#,
        r#"{"t":120,"seq":3,"type":"frag_split","dir":99,"value":0,"bits":1}"#,
        r#"{"t":120,"seq":3,"type":"mds_add","rank":4}"#,
        r#"{"t":120,"seq":3,"type":"mds_drain","rank":1,"subtrees_failed_over":6}"#,
        r#"{"t":120,"seq":3,"type":"clients_add","count":32}"#,
        r#"{"t":120,"seq":3,"type":"fault_injected","kind":"crash","rank":1,"param":60}"#,
        r#"{"t":120,"seq":3,"type":"rank_crashed","rank":1,"down_ticks":60}"#,
        r#"{"t":120,"seq":3,"type":"rank_recovered","rank":1,"down_ticks":61}"#,
        r#"{"t":120,"seq":3,"type":"knob_set","name":"if_threshold","value":0.15}"#,
        r#"{"t":120,"seq":3,"type":"migration_timeout","from":0,"to":2,"dir":99,"attempt":0,"moved":120}"#,
        r#"{"t":120,"seq":3,"type":"migration_retry","from":0,"to":2,"dir":99,"attempt":1,"backoff_ticks":8}"#,
    ];

    #[test]
    fn record_serialises_flat_with_type_tag() {
        let variants = all_variants();
        assert_eq!(variants.len(), VARIANT_LINES.len());
        for (event, expected) in variants.into_iter().zip(VARIANT_LINES) {
            let record = EventRecord {
                t: 120,
                seq: 3,
                event,
            };
            assert_eq!(record.to_json().to_string_compact(), expected);
        }
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

    #[test]
    fn wrong_typed_payload_field_is_rejected() {
        let v = Json::parse(r#"{"t":0,"seq":0,"type":"mds_add","rank":"x"}"#).unwrap();
        assert!(EventRecord::from_json(&v).is_err());
    }
}
