//! The GreedySpill baseline (GIGA+-style).
//!
//! Policy as described in the paper's evaluation setup: re-balance triggers
//! whenever some MDSs carry no load at all, and each loaded MDS then spills
//! *half* of its load to its idle rank-neighbour. It consults almost no
//! global state, so it keeps shipping load back and forth and in the
//! paper's measurements its IF stays close to 1.

use crate::balancer::{Access, Balancer, ExportTask, MigrationPlan};
use crate::dirload::{build_candidates, RankBuckets};
use crate::heat::HeatMap;
use crate::selector::select_hottest;
use crate::stats::EpochStats;
use lunule_namespace::{MdsRank, Namespace, SubtreeMap};

/// IOPS below which a neighbour counts as "idle".
const IDLE_IOPS: f64 = 1.0;

/// Fraction of the loaded MDS's load spilled per decision (the policy ships
/// half).
const SPILL_FRACTION: f64 = 0.5;

/// The GreedySpill balancer. See module docs. Selection is hotspot-based,
/// like Vanilla's.
#[derive(Debug, Default)]
pub struct GreedySpillBalancer {
    heat: HeatMap,
}

impl Balancer for GreedySpillBalancer {
    fn name(&self) -> &'static str {
        "GreedySpill"
    }

    fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        self.heat.encode(e);
    }

    fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        self.heat = HeatMap::decode(d)?;
        Ok(())
    }

    fn record_access(&mut self, ns: &Namespace, access: Access) {
        self.heat.record(ns, access.ino);
    }

    fn record_access_n(&mut self, ns: &Namespace, access: Access, n: u64) {
        self.heat.record_n(ns, access.ino, n);
    }

    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, stats: &EpochStats) -> MigrationPlan {
        self.heat.decay_epoch();
        let loads = stats.iops();
        let n = loads.len();
        if n < 2 {
            return MigrationPlan::default();
        }
        let heat = &self.heat;
        let candidates = RankBuckets::new(build_candidates(ns, map, &|d| heat.heat_of(d)));
        let mut exports = Vec::new();
        for (i, &load) in loads.iter().enumerate() {
            if load <= IDLE_IOPS {
                continue;
            }
            let neighbor = (i + 1) % n;
            if loads[neighbor] > IDLE_IOPS {
                continue;
            }
            let exporter = MdsRank::from_index(i);
            let mine = candidates.of(exporter);
            let demand = load * SPILL_FRACTION * stats.epoch_secs;
            let subtrees = select_hottest(ns, mine, demand, exporter);
            if subtrees.is_empty() {
                continue;
            }
            exports.push(ExportTask {
                from: exporter,
                to: MdsRank::from_index(neighbor),
                target_amount: demand,
                subtrees,
            });
        }
        MigrationPlan { exports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::OpKind;
    use lunule_namespace::InodeId;

    fn fixture() -> (Namespace, SubtreeMap, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut files = Vec::new();
        for d in 0..3 {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            for i in 0..10 {
                files.push(ns.create_file(dir, &format!("f{i}"), 1).unwrap());
            }
        }
        (ns, SubtreeMap::new(MdsRank(0)), files)
    }

    fn feed(b: &mut GreedySpillBalancer, ns: &Namespace, files: &[InodeId]) {
        for f in files {
            b.record_access(
                ns,
                Access {
                    ino: *f,
                    served_by: MdsRank(0),
                    kind: OpKind::Read,
                },
            );
        }
    }

    #[test]
    fn spills_half_to_idle_neighbor() {
        let (ns, map, files) = fixture();
        let mut b = GreedySpillBalancer::default();
        feed(&mut b, &ns, &files);
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 1.0, vec![800, 0, 0]));
        assert_eq!(plan.exports.len(), 1);
        let task = &plan.exports[0];
        assert_eq!(task.from, MdsRank(0));
        assert_eq!(task.to, MdsRank(1));
        assert!((task.target_amount - 400.0).abs() < 1.0);
    }

    #[test]
    fn quiet_when_no_neighbor_is_idle() {
        let (ns, map, files) = fixture();
        let mut b = GreedySpillBalancer::default();
        feed(&mut b, &ns, &files);
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 1.0, vec![800, 200, 100]));
        assert!(plan.is_empty(), "all neighbours busy: nothing to spill to");
    }

    #[test]
    fn wraps_around_rank_space() {
        let (ns, map, files) = fixture();
        let mut b = GreedySpillBalancer::default();
        feed(&mut b, &ns, &files);
        // Loaded rank is the last one; its neighbour is rank 0... but rank 0
        // owns the namespace here, so give the load to rank 0 and idle the
        // rest: neighbour of 0 is 1.
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 1.0, vec![500, 0, 0]));
        assert!(plan.exports.iter().all(|e| e.to == MdsRank(1)));
    }
}
