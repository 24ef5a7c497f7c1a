//! The fault taxonomy and the tick-sorted schedule type.

use lunule_namespace::MdsRank;

/// One kind of injected fault.
///
/// Every variant names the rank it targets and its tick-based parameters;
/// nothing here references wall time. The simulator decides what each
/// fault *means* (see `lunule-sim`); this crate only describes schedules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The rank crashes: it serves nothing, abandons in-flight migrations
    /// touching it, and its subtrees fail over to the survivors. It
    /// recovers (empty, to be re-filled by the balancer) after
    /// `down_ticks` ticks.
    Crash {
        /// Rank that goes down.
        rank: MdsRank,
        /// Ticks until the rank rejoins the cluster.
        down_ticks: u64,
    },
    /// The rank "limps": its per-tick budget is multiplied by `factor`
    /// (in `(0, 1]`) for `duration_ticks` ticks — a slow disk or a noisy
    /// neighbour, not an outage.
    Limp {
        /// Rank that degrades.
        rank: MdsRank,
        /// Effective-capacity multiplier while limping.
        factor: f64,
        /// How long the degradation lasts, in ticks.
        duration_ticks: u64,
    },
    /// The rank's per-epoch load report is dropped for the next `epochs`
    /// balance epochs: the balancer sees no fresh number and must fall
    /// back to its last-known-good load (with an age cap).
    ReportLoss {
        /// Rank whose reports go missing.
        rank: MdsRank,
        /// Number of consecutive epochs the report is lost for.
        epochs: u64,
    },
    /// The rank's outbound migration stream stalls (zero export bandwidth)
    /// for `duration_ticks` ticks — long enough stalls trip the migration
    /// timeout and exercise the retry/backoff path.
    MigrationStall {
        /// Exporting rank whose transfers stall.
        rank: MdsRank,
        /// How long exports make no progress, in ticks.
        duration_ticks: u64,
    },
}

impl FaultKind {
    /// The rank this fault targets.
    pub fn rank(&self) -> MdsRank {
        match self {
            FaultKind::Crash { rank, .. }
            | FaultKind::Limp { rank, .. }
            | FaultKind::ReportLoss { rank, .. }
            | FaultKind::MigrationStall { rank, .. } => *rank,
        }
    }

    /// Snake-case label used in telemetry events and spec strings.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Limp { .. } => "limp",
            FaultKind::ReportLoss { .. } => "report_loss",
            FaultKind::MigrationStall { .. } => "migration_stall",
        }
    }

    /// The fault's principal magnitude (ticks or epochs), for telemetry.
    pub fn param(&self) -> u64 {
        match self {
            FaultKind::Crash { down_ticks, .. } => *down_ticks,
            FaultKind::Limp { duration_ticks, .. } => *duration_ticks,
            FaultKind::ReportLoss { epochs, .. } => *epochs,
            FaultKind::MigrationStall { duration_ticks, .. } => *duration_ticks,
        }
    }

    /// Serialises the fault for a snapshot section (operator-queued faults
    /// are part of a run's restorable state).
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        match self {
            FaultKind::Crash { rank, down_ticks } => {
                e.put_u8(0);
                e.put_u16(rank.0);
                e.put_u64(*down_ticks);
            }
            FaultKind::Limp {
                rank,
                factor,
                duration_ticks,
            } => {
                e.put_u8(1);
                e.put_u16(rank.0);
                e.put_f64(*factor);
                e.put_u64(*duration_ticks);
            }
            FaultKind::ReportLoss { rank, epochs } => {
                e.put_u8(2);
                e.put_u16(rank.0);
                e.put_u64(*epochs);
            }
            FaultKind::MigrationStall {
                rank,
                duration_ticks,
            } => {
                e.put_u8(3);
                e.put_u16(rank.0);
                e.put_u64(*duration_ticks);
            }
        }
    }

    /// Inverse of [`FaultKind::encode`]; rejects unknown variant tags and
    /// out-of-range limp factors.
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<Self, lunule_util::codec::CodecError> {
        use lunule_util::codec::CodecError;
        let tag = d.get_u8("fault.tag")?;
        let rank = MdsRank(d.get_u16("fault.rank")?);
        match tag {
            0 => Ok(FaultKind::Crash {
                rank,
                down_ticks: d.get_u64("fault.down_ticks")?,
            }),
            1 => {
                let factor = d.get_f64("fault.factor")?;
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(CodecError::Invalid {
                        what: "fault.factor",
                    });
                }
                Ok(FaultKind::Limp {
                    rank,
                    factor,
                    duration_ticks: d.get_u64("fault.duration_ticks")?,
                })
            }
            2 => Ok(FaultKind::ReportLoss {
                rank,
                epochs: d.get_u64("fault.epochs")?,
            }),
            3 => Ok(FaultKind::MigrationStall {
                rank,
                duration_ticks: d.get_u64("fault.duration_ticks")?,
            }),
            _ => Err(CodecError::Invalid { what: "fault.tag" }),
        }
    }
}

/// A fault scheduled at a specific simulated tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Tick at which the fault is injected.
    pub at_tick: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// An immutable schedule of fault events, sorted by injection tick.
///
/// The simulator keeps its own cursor into [`FaultSchedule::events`] and
/// injects every event whose `at_tick` the clock has reached. The default
/// schedule is empty — a fault-free run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty (fault-free) schedule.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from events, sorting them by tick. The sort is
    /// stable: events scripted at the same tick keep their given order.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_tick);
        FaultSchedule { events }
    }

    /// The events, ascending by `at_tick`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_events_sorts_stably() {
        let a = FaultEvent {
            at_tick: 30,
            kind: FaultKind::Crash {
                rank: MdsRank(1),
                down_ticks: 10,
            },
        };
        let b = FaultEvent {
            at_tick: 10,
            kind: FaultKind::ReportLoss {
                rank: MdsRank(0),
                epochs: 2,
            },
        };
        let c = FaultEvent {
            at_tick: 30,
            kind: FaultKind::MigrationStall {
                rank: MdsRank(2),
                duration_ticks: 5,
            },
        };
        let s = FaultSchedule::from_events(vec![a, b, c]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0], b);
        assert_eq!(s.events()[1], a, "stable: a scripted before c at t=30");
        assert_eq!(s.events()[2], c);
    }

    #[test]
    fn fault_kind_codec_round_trips_and_rejects_garbage() {
        use lunule_util::codec::{CodecError, Decoder, Encoder};
        let kinds = [
            FaultKind::Crash {
                rank: MdsRank(1),
                down_ticks: 10,
            },
            FaultKind::Limp {
                rank: MdsRank(2),
                factor: 0.25,
                duration_ticks: 40,
            },
            FaultKind::ReportLoss {
                rank: MdsRank(0),
                epochs: 3,
            },
            FaultKind::MigrationStall {
                rank: MdsRank(3),
                duration_ticks: 7,
            },
        ];
        let mut e = Encoder::new();
        for k in &kinds {
            k.encode(&mut e);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        for k in &kinds {
            assert_eq!(FaultKind::decode(&mut d).unwrap(), *k);
        }
        d.finish().unwrap();
        // Unknown tags and out-of-range limp factors are typed errors.
        let mut bad = Encoder::new();
        bad.put_u8(9);
        bad.put_u16(0);
        let bad = bad.into_bytes();
        assert!(matches!(
            FaultKind::decode(&mut Decoder::new(&bad)),
            Err(CodecError::Invalid { what: "fault.tag" })
        ));
        let mut bad = Encoder::new();
        bad.put_u8(1);
        bad.put_u16(0);
        bad.put_f64(1.5);
        bad.put_u64(1);
        let bad = bad.into_bytes();
        assert!(matches!(
            FaultKind::decode(&mut Decoder::new(&bad)),
            Err(CodecError::Invalid {
                what: "fault.factor"
            })
        ));
    }

    #[test]
    fn empty_schedule() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn kind_accessors() {
        let k = FaultKind::Limp {
            rank: MdsRank(3),
            factor: 0.5,
            duration_ticks: 40,
        };
        assert_eq!(k.rank(), MdsRank(3));
        assert_eq!(k.label(), "limp");
        assert_eq!(k.param(), 40);
        let labels: Vec<&str> = [
            FaultKind::Crash {
                rank: MdsRank(0),
                down_ticks: 1,
            },
            k,
            FaultKind::ReportLoss {
                rank: MdsRank(0),
                epochs: 1,
            },
            FaultKind::MigrationStall {
                rank: MdsRank(0),
                duration_ticks: 1,
            },
        ]
        .iter()
        .map(FaultKind::label)
        .collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels must be unique");
    }
}
