//! The Lunule balancer: IF-model-driven triggering, Algorithm 1 role and
//! amount determination, and workload-aware subtree selection.
//!
//! Two variants are provided, matching the paper's evaluation:
//! * **Lunule** — full system: selection by migration index.
//! * **Lunule-Light** — same trigger and amounts, but the selection falls
//!   back to decayed-heat hotspots (isolating the contribution of the
//!   workload-aware planner in the ablation).

use crate::analyzer::{AnalyzerConfig, PatternAnalyzer};
use crate::balancer::{Access, Balancer, ExportTask, MigrationPlan, OpKind};
use crate::dirload::{build_candidates, build_candidates_n, Candidate, RankBuckets};
use crate::heat::{self, HeatMap};
use crate::if_model::{IfModelConfig, ImbalanceFactorModel};
use crate::roles::{decide_roles_weighted, RoleConfig, DEVIATION_THRESHOLD};
use crate::selector::{select_hottest, select_subtrees};
use crate::stats::{EpochStats, LoadHistory};
use lunule_namespace::{FragKey, InodeId, Namespace, SubtreeMap};
use lunule_telemetry::{Event, Telemetry};
use lunule_util::codec::{CodecError, Decoder, Encoder};
use lunule_util::convert::usize_to_u64;

/// Epochs of load history retained for future-load prediction.
const HISTORY_WINDOW: usize = 6;

/// How many epochs a rank's last-known-good load report stays usable when
/// fresh reports go missing. Beyond this age the rank is treated as idle
/// (load 0) rather than trusted with stale data.
const MAX_REPORT_AGE_EPOCHS: u64 = 3;

/// Full configuration of a Lunule balancer instance.
#[derive(Clone, Debug)]
pub struct LunuleConfig {
    /// IF model parameters (capacity `C`, smoothness `S`).
    pub if_model: IfModelConfig,
    /// Re-balance trigger: migrate only when `IF` exceeds this.
    pub if_threshold: f64,
    /// Algorithm 1 parameters (per-epoch capacity).
    pub roles: RoleConfig,
    /// Pattern analyzer parameters (sibling probability).
    pub analyzer: AnalyzerConfig,
    /// Selection strategy: `true` = migration-index selection (full
    /// Lunule), `false` = decayed-heat hotspots (Lunule-Light).
    pub workload_aware: bool,
    /// Ablation: treat the urgency term as 1 (trigger on raw normalised
    /// CoV), removing the benign-imbalance tolerance.
    pub ablate_urgency: bool,
    /// Ablation: skip the importer future-load correction in Algorithm 1.
    pub ablate_future_load: bool,
    /// Per-rank capacities for heterogeneous clusters (extension — the
    /// paper assumes homogeneous MDSs). `None` (the default) keeps the
    /// paper's uniform-capacity model; when set, imbalance is measured
    /// over utilisations and Algorithm 1 targets capacity shares.
    pub capacities: Option<Vec<f64>>,
}

impl Default for LunuleConfig {
    fn default() -> Self {
        LunuleConfig {
            if_model: IfModelConfig::default(),
            if_threshold: 0.10,
            roles: RoleConfig::default(),
            analyzer: AnalyzerConfig::default(),
            workload_aware: true,
            ablate_urgency: false,
            ablate_future_load: false,
            capacities: None,
        }
    }
}

impl LunuleConfig {
    /// The defaults, scaled to MDSs that each serve `capacity` IOPS: the IF
    /// model's `C` is `capacity`, and the per-epoch migration cap is half
    /// of it. The cap scales with the MDS capacity (the paper sets it to
    /// "the maximal capacity during one epoch"): one rank can neither shed
    /// nor absorb more than half its service rate per decision without the
    /// migration itself destabilising the cluster.
    pub fn for_capacity(capacity: f64) -> Self {
        LunuleConfig {
            if_model: IfModelConfig {
                mds_capacity: capacity,
                ..IfModelConfig::default()
            },
            roles: RoleConfig {
                migration_capacity: capacity * 0.5,
            },
            ..Self::default()
        }
    }
}

/// The Lunule metadata load balancer (see module docs).
pub struct LunuleBalancer {
    cfg: LunuleConfig,
    model: ImbalanceFactorModel,
    analyzer: PatternAnalyzer,
    heat: HeatMap,
    history: LoadHistory,
    last_if: f64,
    telemetry: Telemetry,
    /// Last trusted `(requests, epoch)` report per rank, for report-loss
    /// fallback.
    last_good: Vec<Option<(u64, u64)>>,
}

impl LunuleBalancer {
    /// Builds a balancer from configuration.
    pub fn new(cfg: LunuleConfig) -> Self {
        LunuleBalancer {
            model: ImbalanceFactorModel::new(cfg.if_model),
            analyzer: PatternAnalyzer::new(cfg.analyzer),
            heat: HeatMap::new(),
            history: LoadHistory::new(HISTORY_WINDOW),
            last_if: 0.0,
            telemetry: Telemetry::disabled(),
            last_good: Vec::new(),
            cfg,
        }
    }

    /// The IF value computed at the most recent epoch boundary.
    pub fn last_imbalance_factor(&self) -> f64 {
        self.last_if
    }

    /// Immutable access to the pattern analyzer (for tests/inspection).
    pub fn analyzer(&self) -> &PatternAnalyzer {
        &self.analyzer
    }

    /// Replaces missing load reports with the rank's last-known-good value
    /// (if young enough, per [`MAX_REPORT_AGE_EPOCHS`]) or zero, and records
    /// fresh reports for future fallback. Returns the patched snapshot the
    /// rest of the epoch runs on.
    fn patch_missing_reports(&mut self, stats: &EpochStats) -> EpochStats {
        if self.last_good.len() < stats.n_mds() {
            self.last_good.resize(stats.n_mds(), None);
        }
        let mut patched = stats.clone();
        let mut fallbacks = 0u64;
        for rank in 0..stats.n_mds() {
            if stats.is_missing(rank) {
                patched.requests[rank] = match self.last_good[rank] {
                    Some((requests, seen))
                        if stats.epoch.saturating_sub(seen) <= MAX_REPORT_AGE_EPOCHS =>
                    {
                        fallbacks += 1;
                        requests
                    }
                    _ => 0,
                };
            } else {
                self.last_good[rank] = Some((stats.requests[rank], stats.epoch));
            }
        }
        if fallbacks > 0 {
            self.telemetry
                .counter_add("balancer.report_fallbacks", fallbacks);
        }
        patched
    }
}

impl Balancer for LunuleBalancer {
    fn name(&self) -> &'static str {
        if self.cfg.workload_aware {
            "Lunule"
        } else {
            "Lunule-Light"
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Runtime-tunable knobs: `if_threshold` and `if_smoothness` (rebuilds
    /// the IF model).
    fn set_knob(&mut self, name: &str, value: f64) -> bool {
        match name {
            "if_threshold" => {
                self.cfg.if_threshold = value.max(0.0);
            }
            "if_smoothness" => {
                self.cfg.if_model.smoothness = value.clamp(0.01, 0.99);
                self.model = ImbalanceFactorModel::new(self.cfg.if_model);
            }
            _ => return false,
        }
        true
    }

    fn record_access(&mut self, ns: &Namespace, access: Access) {
        if self.cfg.workload_aware {
            self.analyzer
                .record_access(ns, access.ino, access.kind == OpKind::Create);
            if access.kind == OpKind::Remove {
                self.analyzer.record_remove(ns, access.ino);
            }
        } else {
            self.heat.record(ns, access.ino);
        }
    }

    fn record_access_n(&mut self, ns: &Namespace, access: Access, n: u64) {
        if self.cfg.workload_aware {
            if access.kind == OpKind::Remove {
                // Removes mutate per-inode population ledgers; the engine
                // never batches them, so keep the exact sequential path.
                for _ in 0..n {
                    self.record_access(ns, access);
                }
            } else {
                self.analyzer
                    .record_access_n(ns, access.ino, access.kind == OpKind::Create, n);
            }
        } else {
            self.heat.record_n(ns, access.ino, n);
        }
    }

    fn prefetch(&self, inos: &[InodeId]) {
        if self.cfg.workload_aware {
            self.analyzer.prefetch(inos);
        }
    }

    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, stats: &EpochStats) -> MigrationPlan {
        let _epoch_span = self.telemetry.span("balancer.epoch");
        let patched = self.patch_missing_reports(stats);
        let stats = &patched;
        let loads = stats.iops();
        self.last_if = {
            let _s = self.telemetry.span("balancer.if_model");
            if self.cfg.ablate_urgency {
                ImbalanceFactorModel::normalized_cov(&loads)
            } else if let Some(caps) = &self.cfg.capacities {
                self.model.imbalance_factor_hetero(&loads, caps)
            } else {
                self.model.imbalance_factor(&loads)
            }
        };
        self.telemetry
            .gauge_set("balancer.imbalance_factor", 0, self.last_if);
        self.history.push(stats);
        // Epoch boundary == cutting-window boundary.
        if self.cfg.workload_aware {
            self.analyzer.advance_window();
            self.analyzer.observe(&self.telemetry);
        } else {
            self.heat.decay_epoch();
        }

        let decision_event =
            |triggered: bool, pairings: usize, subtrees: usize, candidates: usize| {
                Event::Decision {
                    epoch: stats.epoch,
                    imbalance_factor: self.last_if,
                    triggered,
                    pairings: usize_to_u64(pairings),
                    subtrees: usize_to_u64(subtrees),
                    candidates: usize_to_u64(candidates),
                }
            };

        if self.last_if <= self.cfg.if_threshold {
            self.telemetry.emit(|| decision_event(false, 0, 0, 0));
            return MigrationPlan::default();
        }

        let empty_history = LoadHistory::new(2);
        let history = if self.cfg.ablate_future_load {
            &empty_history
        } else {
            &self.history
        };
        let decision = {
            let _s = self.telemetry.span("balancer.roles");
            decide_roles_weighted(
                &loads,
                self.cfg.capacities.as_deref(),
                history,
                &self.cfg.roles,
            )
        };
        if decision.pairings.is_empty() {
            self.telemetry.emit(|| decision_event(true, 0, 0, 0));
            return MigrationPlan::default();
        }

        // Candidate loads: migration index (Lunule) or heat (Light). Both
        // are "per recent window" quantities; Algorithm 1 amounts are in
        // IOPS — scale demand into the candidate unit via the epoch length.
        // Lunule also carries, from the same walk, the fallback metric for
        // when every migration index is zero (e.g. a scan that already
        // covered the whole namespace): recent visit counts.
        let _select_span = self.telemetry.span("balancer.select");
        let (mut candidates, mut visits) = if self.cfg.workload_aware {
            let analyzer = &self.analyzer;
            let [mindex, visits] = build_candidates_n(ns, map, &|d| {
                analyzer
                    .index_of(d)
                    .map_or([0.0; 2], |m| [m.value(), m.l_t])
            });
            (RankBuckets::new(mindex), Some(RankBuckets::new(visits)))
        } else {
            let heat = &self.heat;
            let all = build_candidates(ns, map, &|d| heat.heat_of(d));
            (RankBuckets::new(all), None)
        };

        // Subtrees already claimed by an earlier pairing this epoch: each
        // pairing must select from what is left, or every importer would be
        // handed the same hottest subtrees and all but one choice would be
        // rejected at migration time.
        let mut used: Vec<FragKey> = Vec::new();
        let mut mine: Vec<Candidate> = Vec::new();
        let mut exports = Vec::new();
        for pairing in &decision.pairings {
            mine.clear();
            candidates.unused_of(ns, pairing.exporter, &used, &mut mine);
            let demand = pairing.amount * stats.epoch_secs;
            let mut subtrees = if mine.is_empty() {
                Vec::new()
            } else if self.cfg.workload_aware {
                select_subtrees(ns, &mine, demand)
            } else {
                select_hottest(ns, &mine, demand, pairing.exporter)
            };
            if let (true, Some(visits)) = (subtrees.is_empty(), &mut visits) {
                mine.clear();
                visits.unused_of(ns, pairing.exporter, &used, &mut mine);
                if !mine.is_empty() {
                    subtrees = select_subtrees(ns, &mine, demand);
                }
            }
            if subtrees.is_empty() {
                continue;
            }
            used.extend(subtrees.iter().map(|s| s.subtree));
            crate::selector::observe_selection(&self.telemetry, mine.len(), &subtrees);
            exports.push(ExportTask {
                from: pairing.exporter,
                to: pairing.importer,
                target_amount: demand,
                subtrees,
            });
        }
        let plan = MigrationPlan { exports };
        self.telemetry.emit(|| {
            decision_event(
                true,
                decision.pairings.len(),
                plan.subtree_count(),
                candidates.len(),
            )
        });
        plan
    }

    fn save_state(&self, e: &mut Encoder) {
        // Knob-mutable configuration first: a restored balancer is built
        // from the *run* configuration, which does not reflect `setknob`
        // commands applied mid-run. The three constants after the knobs
        // were knobs once; their slots keep the snapshot layout unchanged.
        e.put_f64(self.cfg.if_threshold);
        e.put_f64(self.cfg.if_model.smoothness);
        e.put_u64(MAX_REPORT_AGE_EPOCHS);
        e.put_f64(DEVIATION_THRESHOLD);
        e.put_f64(heat::DECAY);
        e.put_f64(self.last_if);
        self.history.encode(e);
        self.heat.encode(e);
        self.analyzer.save_state(e);
        e.put_seq(&self.last_good, |e, slot| {
            e.put_option(slot, |e, (req, epoch)| {
                e.put_u64(*req);
                e.put_u64(*epoch);
            });
        });
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.cfg.if_threshold = d.get_f64("lunule if_threshold")?;
        self.cfg.if_model.smoothness = d.get_f64("lunule if_smoothness")?;
        self.model = ImbalanceFactorModel::new(self.cfg.if_model);
        // A snapshot holding another value for a constant slot asks for a
        // behaviour this balancer no longer has: reject it.
        let what = "lunule max_report_age";
        if d.get_u64(what)? != MAX_REPORT_AGE_EPOCHS {
            return Err(CodecError::Invalid { what });
        }
        for (what, want) in [
            ("lunule deviation_threshold", DEVIATION_THRESHOLD),
            ("lunule heat_decay", heat::DECAY),
        ] {
            if d.get_f64(what)?.to_bits() != want.to_bits() {
                return Err(CodecError::Invalid { what });
            }
        }
        self.last_if = d.get_f64("lunule last_if")?;
        self.history = LoadHistory::decode(d)?;
        self.heat = HeatMap::decode(d)?;
        self.analyzer.load_state(d)?;
        self.last_good = d.get_seq("lunule last_good", |d| {
            d.get_option("last_good slot", |d| {
                let req = d.get_u64("last_good requests")?;
                let epoch = d.get_u64("last_good epoch")?;
                Ok((req, epoch))
            })
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_namespace::{InodeId, MdsRank};

    fn small_cfg() -> LunuleConfig {
        LunuleConfig {
            if_model: IfModelConfig {
                mds_capacity: 100.0,
                smoothness: 0.2,
            },
            if_threshold: 0.10,
            roles: RoleConfig {
                migration_capacity: 1_000.0,
            },
            ..LunuleConfig::default()
        }
    }

    /// Namespace with two dirs of files, everything initially on mds.0.
    fn fixture() -> (Namespace, SubtreeMap, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut files = Vec::new();
        for d in 0..4 {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            for i in 0..25 {
                files.push(ns.create_file(dir, &format!("f{i}"), 1).unwrap());
            }
        }
        (ns, SubtreeMap::new(MdsRank(0)), files)
    }

    #[test]
    fn save_and_load_state_round_trips() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        let stats = EpochStats::new(0, 10.0, vec![900, 10]);
        let _ = b.on_epoch(&ns, &map, &stats);
        assert!(b.set_knob("if_threshold", 0.42));
        assert!(b.set_knob("if_smoothness", 0.3));

        let mut e = Encoder::new();
        b.save_state(&mut e);
        let bytes = e.into_bytes();

        // Restore into a *fresh* balancer built from the run config.
        let mut restored = LunuleBalancer::new(small_cfg());
        let mut d = Decoder::new(&bytes);
        restored.load_state(&mut d).unwrap();
        d.finish().unwrap();

        // The restored instance re-saves byte-identically…
        let mut e2 = Encoder::new();
        restored.save_state(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);

        // …and behaves identically from here on.
        let stats2 = EpochStats::new(1, 10.0, vec![800, 120]);
        let plan_a = b.on_epoch(&ns, &map, &stats2);
        let plan_b = restored.on_epoch(&ns, &map, &stats2);
        assert_eq!(plan_a.exports.len(), plan_b.exports.len());
        assert_eq!(
            b.last_imbalance_factor().to_bits(),
            restored.last_imbalance_factor().to_bits()
        );
    }

    /// Each slot that records a constant rejects any other value on
    /// restore instead of silently honouring it.
    #[test]
    fn load_state_rejects_changed_constant_slots() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        let _ = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![900, 10]));
        let mut e = Encoder::new();
        b.save_state(&mut e);
        let bytes = e.into_bytes();
        // Layout: if_threshold, if_smoothness, then the three constants,
        // eight bytes each.
        let flips: [(usize, u64); 3] = [
            (16, 7),                 // max report age
            (24, 0.05f64.to_bits()), // deviation threshold
            (32, 0.7f64.to_bits()),  // heat decay
        ];
        for (offset, value) in flips {
            let mut tampered = bytes.clone();
            assert_ne!(tampered[offset..offset + 8], value.to_le_bytes());
            tampered[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            let mut restored = LunuleBalancer::new(small_cfg());
            let got = restored.load_state(&mut Decoder::new(&tampered));
            assert!(
                matches!(got, Err(CodecError::Invalid { .. })),
                "slot at {offset} restored: {got:?}"
            );
        }
        let mut restored = LunuleBalancer::new(small_cfg());
        assert!(restored.load_state(&mut Decoder::new(&bytes)).is_ok());
    }

    fn feed(b: &mut LunuleBalancer, ns: &Namespace, files: &[InodeId]) {
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

    /// Both variants: Lunule forwards to its analyzer, Lunule-Light (no
    /// analyzer records) ignores the hint. The saved state carries the
    /// analyzer's per-inode table, length included, so equal bytes also
    /// mean the table did not grow.
    #[test]
    fn prefetch_leaves_saved_state_unchanged() {
        let (ns, _, files) = fixture();
        let light = LunuleConfig {
            workload_aware: false,
            ..LunuleConfig::default()
        };
        for cfg in [small_cfg(), light] {
            let mut b = LunuleBalancer::new(cfg);
            feed(&mut b, &ns, &files[..10]);
            let saved = |b: &LunuleBalancer| {
                let mut e = Encoder::new();
                b.save_state(&mut e);
                e.into_bytes()
            };
            let before = saved(&b);
            let inside = files[4];
            let beyond_table = files[60];
            let beyond_arena = InodeId::from_index(ns.len() + 1_000);
            b.prefetch(&[inside, beyond_table, beyond_arena]);
            assert_eq!(saved(&b), before, "{}", b.name());
        }
    }

    #[test]
    fn knobs_apply_and_unknown_names_are_rejected() {
        let mut b = LunuleBalancer::new(small_cfg());
        assert!(b.set_knob("if_threshold", 0.42));
        assert!((b.cfg.if_threshold - 0.42).abs() < 1e-12);
        assert!(b.set_knob("if_smoothness", 0.3));
        assert!((b.cfg.if_model.smoothness - 0.3).abs() < 1e-12);
        // Former knobs are constants now and rejected like unknown names.
        for removed in ["max_report_age_epochs", "deviation_threshold", "heat_decay"] {
            assert!(!b.set_knob(removed, 0.5), "{removed} must be rejected");
        }
        assert!(!b.set_knob("warp_factor", 9.0));
        // A raised threshold suppresses migration on a skew that would
        // otherwise trigger.
        let (ns, map, files) = fixture();
        let mut tuned = LunuleBalancer::new(small_cfg());
        feed(&mut tuned, &ns, &files);
        assert!(tuned.set_knob("if_threshold", 1.0));
        let plan = tuned.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![300, 0, 0]));
        assert!(plan.is_empty(), "threshold 1.0 must suppress migration");
    }

    #[test]
    fn balanced_low_load_produces_no_plan() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        // Even loads: IF ~ 0.
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![100; 3]));
        assert!(plan.is_empty());
        assert!(b.last_imbalance_factor() < 0.05);
    }

    #[test]
    fn benign_imbalance_is_tolerated() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        // Skewed but tiny absolute load: urgency suppresses the trigger.
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![30, 1, 1]));
        assert!(plan.is_empty(), "urgency must suppress benign imbalance");
    }

    #[test]
    fn harmful_imbalance_triggers_workload_aware_plan() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        // mds.0 saturated, peers idle.
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![1000, 0, 0]));
        assert!(
            !plan.is_empty(),
            "IF={} should trigger",
            b.last_imbalance_factor()
        );
        for task in &plan.exports {
            assert_eq!(task.from, MdsRank(0));
            assert_ne!(task.to, MdsRank(0));
            assert!(!task.subtrees.is_empty());
            assert!(task.selected_load() > 0.0);
        }
    }

    #[test]
    fn light_variant_uses_heat() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(LunuleConfig {
            workload_aware: false,
            ..small_cfg()
        });
        assert_eq!(b.name(), "Lunule-Light");
        feed(&mut b, &ns, &files);
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![1000, 0, 0]));
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_exports_only_owned_subtrees() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![1000, 0, 0]));
        for task in &plan.exports {
            for choice in &task.subtrees {
                let auth = map.frag_authority(&ns, choice.subtree.dir, &choice.subtree.frag);
                assert_eq!(auth, task.from, "exporter must own what it ships");
            }
        }
    }

    /// Pins today's behaviour, not a wanted one (DESIGN §10): a claimed
    /// subtree overlaps every subtree nested under it, delegated ones
    /// included. When the root's rank exports first and claims
    /// `(/, whole)`, the other exporter, whose subtrees (`/d1`, `/d3`) all
    /// lie under `/`, finds no candidate, by mIndex or by the visit
    /// fallback: three pairings, one subtree.
    #[test]
    fn a_claimed_root_leaves_later_pairings_empty() {
        let (ns, mut map, files) = fixture();
        for d in [1, 3] {
            let dir = ns.inode(files[d * 25]).parent().unwrap();
            map.set_authority(FragKey::whole(dir), MdsRank(1));
        }
        let mut b = LunuleBalancer::new(small_cfg());
        for epoch in 0..3 {
            for _ in 0..=epoch {
                feed(&mut b, &ns, &files);
            }
            b.on_epoch(&ns, &map, &EpochStats::new(epoch as u64, 10.0, vec![0; 4]));
        }
        let stats = EpochStats::new(3, 10.0, vec![1000, 900, 0, 0]);
        let tel = Telemetry::enabled();
        b.attach_telemetry(tel.clone());
        let plan = b.on_epoch(&ns, &map, &stats);
        let chosen: Vec<(MdsRank, FragKey)> = plan
            .exports
            .iter()
            .flat_map(|t| t.subtrees.iter().map(move |s| (t.from, s.subtree)))
            .collect();
        assert_eq!(chosen, vec![(MdsRank(0), FragKey::whole(InodeId::ROOT))]);
        let journal = lunule_telemetry::events_jsonl(&tel.snapshot().unwrap());
        let decision = "\"pairings\":3,\"subtrees\":1,\"candidates\":5";
        assert!(journal.contains(decision), "{journal}");
    }

    #[test]
    fn missing_reports_fall_back_to_last_good() {
        let (ns, map, files) = fixture();
        let mut b = LunuleBalancer::new(small_cfg());
        feed(&mut b, &ns, &files);
        // Epoch 0: rank 0's hot report arrives and is recorded as last-good.
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![1000, 0, 0]));
        assert!(!plan.is_empty());
        // Epoch 1: rank 0's report is lost; the placeholder claims idle. The
        // balancer must still see the hot rank via its last-known-good load.
        feed(&mut b, &ns, &files);
        let stats = EpochStats::new(1, 10.0, vec![0, 0, 0]).with_missing(vec![true, false, false]);
        let plan = b.on_epoch(&ns, &map, &stats);
        assert!(!plan.is_empty(), "fallback keeps the hot rank visible");
        // Far beyond the age cap the stale report is no longer trusted: the
        // missing rank degrades to idle and nothing triggers.
        let stats = EpochStats::new(99, 10.0, vec![0, 0, 0]).with_missing(vec![true, false, false]);
        let plan = b.on_epoch(&ns, &map, &stats);
        assert!(plan.is_empty(), "stale reports age out to zero load");
        assert!(b.last_imbalance_factor() < 0.05);
    }

    #[test]
    fn name_reflects_variant() {
        assert_eq!(
            LunuleBalancer::new(LunuleConfig::default()).name(),
            "Lunule"
        );
        assert_eq!(
            LunuleBalancer::new(LunuleConfig {
                workload_aware: false,
                ..LunuleConfig::default()
            })
            .name(),
            "Lunule-Light"
        );
    }
}
