//! The Subtree Selector — turns a migration amount into a concrete set of
//! dirfrag subtrees (Section 3.3 / 4.1 of the paper).
//!
//! Given the exporter's candidate subtrees ranked by migration index, the
//! selector tries, in order:
//!
//! 1. **Match** — a single subtree whose index is within ±10 % of the
//!    requested amount;
//! 2. **Split** — the smallest oversized subtree is divided: if its load
//!    sits in the directory's own children, the directory fragment is split
//!    in half (Ceph dirfrag split); if the load sits in nested directories,
//!    the selector descends and recurses over the children;
//! 3. **Greedy** — a minimal set of subtrees whose indices sum roughly to
//!    the amount, largest-first, never adding one that overshoots the
//!    remaining demand by more than the tolerance.

use crate::balancer::SubtreeChoice;
use crate::dirload::Candidate;
use lunule_namespace::{FragKey, MdsRank, Namespace, HASH_BITS};
use lunule_util::convert::{f64_to_u64, usize_to_f64, usize_to_u64};

/// Relative tolerance for "approximately equal" matches (paper: 10 %).
const TOLERANCE: f64 = 0.10;

/// Load below which a subtree is never worth migrating on its own.
const MIN_LOAD: f64 = 1e-6;

/// When a directory's *local* load share exceeds this fraction of its
/// subtree load, splitting happens at the fragment level rather than by
/// descending into child directories.
const SELF_HOT_FRACTION: f64 = 0.5;

/// Selects subtrees from `candidates` (all owned by one exporter, any
/// order) to cover `amount` load units.
///
/// Nested candidates are handled by the greedy phase skipping any candidate
/// whose subtree contains, or is contained in, an already selected one —
/// migrating both would double-move the nested part.
pub fn select_subtrees(
    ns: &Namespace,
    candidates: &[Candidate],
    amount: f64,
) -> Vec<SubtreeChoice> {
    let mut sorted: Vec<Candidate> = candidates
        .iter()
        .filter(|c| c.load > MIN_LOAD)
        .copied()
        .collect();
    sorted.sort_by(|a, b| b.load.total_cmp(&a.load));
    if sorted.is_empty() || amount <= 0.0 {
        return Vec::new();
    }

    // Path 1: a single close match.
    if let Some(hit) = sorted
        .iter()
        .filter(|c| (c.load - amount).abs() <= TOLERANCE * amount)
        .min_by(|a, b| (a.load - amount).abs().total_cmp(&(b.load - amount).abs()))
    {
        return vec![SubtreeChoice {
            subtree: hit.key,
            estimated_load: hit.load,
        }];
    }

    // Path 2: split the smallest oversized candidate.
    if let Some(big) = sorted
        .iter()
        .filter(|c| c.load > amount)
        .min_by(|a, b| a.load.total_cmp(&b.load))
    {
        let mut out = Vec::new();
        split_candidate(ns, big, amount, 0, &mut out);
        if !out.is_empty() {
            return out;
        }
    }

    // Path 3: greedy minimal set, largest-first.
    let overshoot = 1.0 + TOLERANCE;
    let mut out: Vec<SubtreeChoice> = Vec::new();
    let mut remaining = amount;
    for c in &sorted {
        if remaining <= TOLERANCE * amount {
            break;
        }
        if c.load > remaining * overshoot {
            continue;
        }
        if out.iter().any(|s| subtrees_overlap(ns, &s.subtree, &c.key)) {
            continue;
        }
        out.push(SubtreeChoice {
            subtree: c.key,
            estimated_load: c.load,
        });
        remaining -= c.load;
    }
    out
}

/// Recursively splits an oversized candidate until a piece close to
/// `amount` emerges. Appends the chosen pieces to `out`.
fn split_candidate(
    ns: &Namespace,
    cand: &Candidate,
    amount: f64,
    depth: u32,
    out: &mut Vec<SubtreeChoice>,
) {
    // Recursion bound: fragment bits are capped, tree depth is finite, but
    // degenerate load estimates could ping-pong — cap generously.
    if depth > u32::from(HASH_BITS) + 16 {
        return;
    }
    if cand.load <= amount * (1.0 + TOLERANCE) {
        if cand.load > MIN_LOAD {
            out.push(SubtreeChoice {
                subtree: cand.key,
                estimated_load: cand.load,
            });
        }
        return;
    }

    let self_hot = cand.load > 0.0 && cand.local_load / cand.load >= SELF_HOT_FRACTION;
    if self_hot {
        // Case 1 of the paper: the accesses concentrate on the directory
        // itself — divide the fragment in two and keep the half closer to
        // the demand. Loads apportion by the children count in each half.
        if cand.key.frag.bits() >= HASH_BITS {
            // Cannot split further; take it whole (over-shoot is bounded by
            // one leaf fragment).
            out.push(SubtreeChoice {
                subtree: cand.key,
                estimated_load: cand.load,
            });
            return;
        }
        let (l, r) = cand.key.frag.split_in_two();
        let total_children = ns.frag_child_count(cand.key.dir, &cand.key.frag);
        if total_children == 0 {
            return;
        }
        let left_children = ns.frag_child_count(cand.key.dir, &l);
        let lfrac = usize_to_f64(left_children) / usize_to_f64(total_children);
        let halves = [
            (l, cand.load * lfrac, cand.local_load * lfrac, left_children),
            (
                r,
                cand.load * (1.0 - lfrac),
                cand.local_load * (1.0 - lfrac),
                total_children - left_children,
            ),
        ];
        // Recurse on the half closest to the amount from above; if both are
        // below, take the bigger one and continue greedily on the rest.
        let mut best: Option<Candidate> = None;
        for (frag, load, local, inodes) in halves {
            if load <= MIN_LOAD {
                continue;
            }
            let c = Candidate {
                key: FragKey {
                    dir: cand.key.dir,
                    frag,
                },
                rank: cand.rank,
                load,
                local_load: local,
                inodes,
            };
            let better = match &best {
                None => true,
                Some(b) => pick_preference(c.load, amount) < pick_preference(b.load, amount),
            };
            if better {
                best = Some(c);
            }
        }
        if let Some(b) = best {
            split_candidate(ns, &b, amount, depth + 1, out);
        }
        return;
    }

    // Case 2: hot descendants — descend into child directories and select
    // among them greedily (largest-first, splitting the first oversized).
    let children: Vec<Candidate> = child_candidates(ns, cand);
    let mut sorted = children;
    sorted.sort_by(|a, b| b.load.total_cmp(&a.load));
    let mut remaining = amount;
    for c in &sorted {
        if remaining <= TOLERANCE * amount {
            break;
        }
        if c.load <= remaining * (1.0 + TOLERANCE) {
            if c.load > MIN_LOAD {
                out.push(SubtreeChoice {
                    subtree: c.key,
                    estimated_load: c.load,
                });
                remaining -= c.load;
            }
        } else {
            split_candidate(ns, c, remaining, depth + 1, out);
            // Whatever the recursive call selected reduces the remainder.
            remaining = amount
                - out
                    .iter()
                    .map(|s| s.estimated_load)
                    .sum::<f64>()
                    .min(amount);
        }
    }
}

/// Preference metric for choosing which half to recurse on: prefer loads
/// just above `amount` (splittable towards it), then closest below.
fn pick_preference(load: f64, amount: f64) -> f64 {
    if load >= amount {
        load - amount
    } else {
        (amount - load) * 2.0
    }
}

/// Builds candidates for the child directories of `cand` (approximating
/// their subtree loads by even division of the parent's nested load — the
/// precise per-child loads live in the balancer's tracker, but at this depth
/// an even split is the paper's own fallback).
fn child_candidates(ns: &Namespace, cand: &Candidate) -> Vec<Candidate> {
    let dirs: Vec<_> = ns.subdirs_in_frag(cand.key.dir, &cand.key.frag).collect();
    if dirs.is_empty() {
        return Vec::new();
    }
    let nested = (cand.load - cand.local_load).max(0.0);
    let share = nested / usize_to_f64(dirs.len());
    dirs.into_iter()
        .map(|d| {
            let inodes = ns.subtree_size(d);
            Candidate {
                key: FragKey::whole(d),
                rank: cand.rank,
                load: share,
                local_load: share, // unknown split; treat as self-held
                inodes,
            }
        })
        .collect()
}

/// True when migrating both keys would move overlapping namespace regions:
/// same directory with non-disjoint fragments, or one directory nested
/// inside the other's subtree. The simulator's migrator uses this to refuse
/// concurrent migrations of overlapping subtrees.
pub fn subtrees_overlap(ns: &Namespace, a: &FragKey, b: &FragKey) -> bool {
    if a.dir == b.dir {
        return !a.frag.disjoint(&b.frag);
    }
    ns.in_dirfrag(a.dir, &a.frag, b.dir) || ns.in_dirfrag(b.dir, &b.frag, a.dir)
}

/// Reusable helper for heat-based policies (Vanilla, GreedySpill,
/// Lunule-Light): take the hottest candidates until `amount` is covered.
///
/// Mirrors CephFS's `find_exports` walk: a candidate whose load is mostly
/// *nested* in sub-directories is skipped when it overshoots the remaining
/// demand — its children appear in the candidate list and are picked
/// individually — but a candidate whose own children carry the heat is
/// shipped whole even when it overshoots (stock CephFS has no fragment-level
/// matching here, and that over-migration is one of the paper's documented
/// inefficiencies).
pub fn select_hottest(
    ns: &Namespace,
    candidates: &[Candidate],
    amount: f64,
    exporter: MdsRank,
) -> Vec<SubtreeChoice> {
    let mut sorted: Vec<Candidate> = candidates
        .iter()
        .filter(|c| c.rank == exporter && c.load > 0.0)
        .copied()
        .collect();
    sorted.sort_by(|a, b| b.load.total_cmp(&a.load));
    let mut out: Vec<SubtreeChoice> = Vec::new();
    let mut covered = 0.0;
    for c in sorted {
        if covered >= amount {
            break;
        }
        let remaining = amount - covered;
        // Descend instead of shipping a mostly-nested oversized subtree.
        let mostly_nested = c.local_load < 0.5 * c.load;
        if c.load > remaining * 1.5 && mostly_nested {
            continue;
        }
        if out.iter().any(|s| subtrees_overlap(ns, &s.subtree, &c.key)) {
            continue;
        }
        covered += c.load;
        out.push(SubtreeChoice {
            subtree: c.key,
            estimated_load: c.load,
        });
    }
    out
}

/// Journals one pairing's selection outcome into the telemetry stream:
/// how many candidates were on the table, how many subtrees were chosen,
/// and the load estimated to move (as counters plus a per-selection
/// candidate-count histogram). Free when the handle is disabled.
pub fn observe_selection(
    telemetry: &lunule_telemetry::Telemetry,
    candidates: usize,
    chosen: &[SubtreeChoice],
) {
    telemetry.histogram_record("selector.candidates_per_pairing", usize_to_u64(candidates));
    telemetry.counter_add("selector.subtrees_chosen", usize_to_u64(chosen.len()));
    let load: f64 = chosen.iter().map(|s| s.estimated_load).sum();
    telemetry.counter_add("selector.load_selected", f64_to_u64(load.max(0.0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_namespace::{Frag, InodeId};

    /// Five sibling dirs with loads 50, 30, 12, 5, 3.
    fn flat_fixture() -> (Namespace, Vec<Candidate>) {
        let mut ns = Namespace::new();
        let loads = [50.0, 30.0, 12.0, 5.0, 3.0];
        let mut cands = Vec::new();
        for (i, load) in loads.iter().enumerate() {
            let d = ns.mkdir(InodeId::ROOT, &format!("d{i}")).unwrap();
            for j in 0..10 {
                ns.create_file(d, &format!("f{j}"), 1).unwrap();
            }
            cands.push(Candidate {
                key: FragKey::whole(d),
                rank: MdsRank(0),
                load: *load,
                local_load: *load,
                inodes: 10,
            });
        }
        (ns, cands)
    }

    #[test]
    fn path1_exact_match_wins() {
        let (ns, cands) = flat_fixture();
        let picks = select_subtrees(&ns, &cands, 29.0); // 30 within 10%
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].estimated_load, 30.0);
    }

    #[test]
    fn path3_greedy_combines() {
        let (ns, cands) = flat_fixture();
        // 17 load: no single match (12 is 29% off), no candidate is worth
        // splitting cheaply... 50 and 30 exceed, smallest oversized is 30 ->
        // split path fires first. Ask for 20: 12+5+3 = 20 exact via greedy
        // only if split path fails. With self-hot dirs, splitting works, so
        // verify total is close either way.
        let picks = select_subtrees(&ns, &cands, 20.0);
        let total: f64 = picks.iter().map(|p| p.estimated_load).sum();
        assert!(
            (total - 20.0).abs() <= 0.15 * 20.0,
            "selected {total} for demand 20: {picks:?}"
        );
    }

    #[test]
    fn split_path_divides_hot_directory() {
        // One directory with all the load, demand is half of it: the
        // selector must emit a *fragment* of the directory, not the whole.
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "hot").unwrap();
        for j in 0..200 {
            ns.create_file(d, &format!("f{j}"), 1).unwrap();
        }
        let cand = Candidate {
            key: FragKey::whole(d),
            rank: MdsRank(0),
            load: 100.0,
            local_load: 100.0,
            inodes: 200,
        };
        let picks = select_subtrees(&ns, &[cand], 50.0);
        assert!(!picks.is_empty());
        let total: f64 = picks.iter().map(|p| p.estimated_load).sum();
        assert!(
            (total - 50.0).abs() <= 15.0,
            "fragment split should approximate half: got {total}"
        );
        assert!(
            picks.iter().all(|p| p.subtree.frag != Frag::root()),
            "must have split the fragment: {picks:?}"
        );
    }

    #[test]
    fn descend_path_picks_children() {
        // A cold parent whose load is all in nested dirs: demand half.
        let mut ns = Namespace::new();
        let parent = ns.mkdir(InodeId::ROOT, "data").unwrap();
        for i in 0..4 {
            let c = ns.mkdir(parent, &format!("c{i}")).unwrap();
            ns.create_file(c, "f", 1).unwrap();
        }
        let cand = Candidate {
            key: FragKey::whole(parent),
            rank: MdsRank(0),
            load: 80.0,
            local_load: 0.0, // all nested
            inodes: 8,
        };
        let picks = select_subtrees(&ns, &[cand], 40.0);
        let total: f64 = picks.iter().map(|p| p.estimated_load).sum();
        assert!((total - 40.0).abs() <= 4.0, "got {total}: {picks:?}");
        assert!(picks.iter().all(|p| p.subtree.dir != parent));
    }

    #[test]
    fn empty_and_zero_amount() {
        let (ns, cands) = flat_fixture();
        assert!(select_subtrees(&ns, &[], 10.0).is_empty());
        assert!(select_subtrees(&ns, &cands, 0.0).is_empty());
    }

    #[test]
    fn greedy_skips_nested_overlaps() {
        // Parent and child both appear as candidates; greedy must not take
        // both.
        let mut ns = Namespace::new();
        let p = ns.mkdir(InodeId::ROOT, "p").unwrap();
        let c = ns.mkdir(p, "c").unwrap();
        ns.create_file(c, "f", 1).unwrap();
        let cands = [
            Candidate {
                key: FragKey::whole(p),
                rank: MdsRank(0),
                load: 12.0,
                local_load: 2.0,
                inodes: 2,
            },
            Candidate {
                key: FragKey::whole(c),
                rank: MdsRank(0),
                load: 10.0,
                local_load: 10.0,
                inodes: 1,
            },
        ];
        let picks = select_subtrees(&ns, &cands, 22.0);
        assert_eq!(picks.len(), 1, "nested pair must collapse: {picks:?}");
    }

    #[test]
    fn hottest_selection_overshoots_by_design() {
        let (ns, cands) = flat_fixture();
        let picks = select_hottest(&ns, &cands, 10.0, MdsRank(0));
        assert_eq!(picks.len(), 1);
        assert_eq!(
            picks[0].estimated_load, 50.0,
            "takes the hottest, not the fit"
        );
    }

    #[test]
    fn hottest_respects_rank_filter() {
        let (ns, mut cands) = flat_fixture();
        for c in &mut cands {
            c.rank = MdsRank(3);
        }
        assert!(select_hottest(&ns, &cands, 10.0, MdsRank(0)).is_empty());
    }
}
