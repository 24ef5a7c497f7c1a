//! Exponentially decaying popularity ("heat") counters.
//!
//! This is the load metric the built-in CephFS balancer uses for candidate
//! selection: each served request bumps the containing directory's counter,
//! and counters decay by a fixed factor every epoch so old activity fades.
//! Vanilla, GreedySpill and Lunule-Light all select on this metric; full
//! Lunule replaces it with the migration index (see [`crate::analyzer`]).
//!
//! # Layout
//!
//! Counters live in one `(id, heat)` vector indexed by a stable dense
//! slot, with a paged direct map from inode index to slot ([`PagedMap`]):
//! the hot `record` path is two O(1) array probes instead of a `BTreeMap`
//! walk. Slots are stable between epoch boundaries; `decay_epoch` drops
//! evicted entries and rebuilds the index (once per epoch, O(n)).
//! [`HeatMap::encode`] writes the entries in `InodeId` order, so snapshot
//! bytes are identical across insertion orders.

use lunule_namespace::{InodeId, Namespace};
use lunule_util::convert::{u32_to_usize, usize_to_u32};
use lunule_util::intern::PagedMap;

/// Factor every counter is multiplied by at each epoch boundary. CephFS's
/// default popularity half-life of roughly one balancing interval
/// corresponds to 0.5.
pub(crate) const DECAY: f64 = 0.5;

/// Per-directory decaying heat counters.
#[derive(Clone, Debug, Default)]
pub struct HeatMap {
    /// Slot → (directory id, counter).
    entries: Vec<(InodeId, f64)>,
    /// Inode index → slot.
    index: PagedMap,
}

impl HeatMap {
    /// Creates an empty heat map whose counters halve at every epoch
    /// boundary.
    pub fn new() -> Self {
        HeatMap::default()
    }

    /// The slot for `dir`, allocating one (counter 0.0) on first sight.
    fn slot_or_insert(&mut self, dir: InodeId) -> usize {
        if let Some(s) = self.index.get(dir.index()) {
            return u32_to_usize(s);
        }
        let slot = self.entries.len();
        self.entries.push((dir, 0.0));
        self.index.set(dir.index(), usize_to_u32(slot));
        slot
    }

    /// Charges one request against the directory containing `ino`.
    pub fn record(&mut self, ns: &Namespace, ino: InodeId) {
        let dir = match ns.inode(ino).parent() {
            Some(p) => p,
            None => ino, // the root charges itself
        };
        let slot = self.slot_or_insert(dir);
        self.entries[slot].1 += 1.0;
    }

    /// Charges `n` identical requests against the directory containing
    /// `ino`, bit-identically to calling [`HeatMap::record`] `n` times.
    ///
    /// When the counter is integer-valued (and stays within f64's exact
    /// integer range) the `n` unit additions collapse to one — the common
    /// case for undecayed counters. Fractional counters (after a decay)
    /// fall back to the sequential unit additions, so no argument about
    /// their bits is needed.
    pub fn record_n(&mut self, ns: &Namespace, ino: InodeId, n: u64) {
        if n == 0 {
            return;
        }
        let dir = match ns.inode(ino).parent() {
            Some(p) => p,
            None => ino,
        };
        let slot = self.slot_or_insert(dir);
        let h = &mut self.entries[slot].1;
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        let n_f = lunule_util::convert::u64_to_f64(n);
        // Bit-exact integrality test (heat is never negative, so +0.0 is
        // the only zero fract can produce here).
        if h.fract().to_bits() == 0 && *h + n_f < EXACT {
            *h += n_f;
        } else {
            for _ in 0..n {
                *h += 1.0;
            }
        }
    }

    /// Applies one epoch of decay, dropping counters that have become
    /// negligible so the map does not grow without bound, then rebuilds
    /// the index — the one O(n) moment per epoch.
    pub fn decay_epoch(&mut self) {
        self.entries.retain_mut(|(_, h)| {
            *h *= DECAY;
            *h > 1e-3
        });
        self.index.clear();
        for (slot, (id, _)) in self.entries.iter().enumerate() {
            self.index.set(id.index(), usize_to_u32(slot));
        }
    }

    /// Current heat of a directory.
    pub fn heat_of(&self, dir: InodeId) -> f64 {
        match self.index.get(dir.index()) {
            Some(s) => self.entries[u32_to_usize(s)].1,
            None => 0.0,
        }
    }

    /// Number of directories with live counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no directory carries heat.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the decay factor and every counter (bit-exact, in `InodeId`
    /// order — the same bytes the ordered-map layout produced) to a
    /// snapshot section.
    pub fn encode(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_f64(DECAY);
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(id, _)| id);
        e.put_seq(&entries, |e, (id, h)| {
            e.put_u64(id.raw());
            e.put_f64(*h);
        });
    }

    /// Reads a heat map back; counters restore bit-exactly. A decay factor
    /// other than `DECAY` is rejected: this map cannot honour it.
    pub fn decode(
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<HeatMap, lunule_util::codec::CodecError> {
        use lunule_util::codec::CodecError;
        if d.get_f64("heat decay")?.to_bits() != DECAY.to_bits() {
            return Err(CodecError::Invalid { what: "heat decay" });
        }
        let entries = d.get_seq("heat entries", |d| {
            let raw = d.get_u64("heat dir id")?;
            // `from_index` aborts past u32 space; reject corruption first.
            let idx = u32::try_from(raw).map_err(|_| CodecError::Invalid {
                what: "heat dir id",
            })?;
            let h = d.get_f64("heat value")?;
            Ok((
                InodeId::from_index(lunule_util::convert::u32_to_usize(idx)),
                h,
            ))
        })?;
        let mut hm = HeatMap::new();
        for (id, h) in entries {
            if hm.index.get(id.index()).is_some() {
                return Err(CodecError::Invalid {
                    what: "heat entries",
                });
            }
            let slot = hm.slot_or_insert(id);
            hm.entries[slot].1 = h;
        }
        Ok(hm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns_with_dir() -> (Namespace, InodeId, InodeId) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let f = ns.create_file(d, "f", 1).unwrap();
        (ns, d, f)
    }

    #[test]
    fn record_charges_parent_dir() {
        let (ns, d, f) = ns_with_dir();
        let mut hm = HeatMap::new();
        hm.record(&ns, f);
        hm.record(&ns, f);
        hm.record(&ns, d); // dir access charges the dir's parent (root)
        assert_eq!(hm.heat_of(d), 2.0);
        assert_eq!(hm.heat_of(InodeId::ROOT), 1.0);
    }

    #[test]
    fn decay_halves_and_evicts() {
        let (ns, d, f) = ns_with_dir();
        let mut hm = HeatMap::new();
        hm.record(&ns, f);
        hm.decay_epoch();
        assert_eq!(hm.heat_of(d), 0.5);
        // Enough decay rounds evict the entry entirely.
        for _ in 0..20 {
            hm.decay_epoch();
        }
        assert!(hm.is_empty());
    }

    #[test]
    fn root_self_charge() {
        let ns = Namespace::new();
        let mut hm = HeatMap::new();
        hm.record(&ns, InodeId::ROOT);
        assert_eq!(hm.heat_of(InodeId::ROOT), 1.0);
    }

    #[test]
    fn decode_rejects_a_foreign_decay() {
        let (ns, _, f) = ns_with_dir();
        let mut hm = HeatMap::new();
        hm.record(&ns, f);
        let mut e = lunule_util::codec::Encoder::new();
        hm.encode(&mut e);
        let mut bytes = e.into_bytes();
        let mut d = lunule_util::codec::Decoder::new(&bytes);
        assert!(HeatMap::decode(&mut d).is_ok());
        // The decay factor is the first field.
        bytes[..8].copy_from_slice(&0.7f64.to_bits().to_le_bytes());
        let mut d = lunule_util::codec::Decoder::new(&bytes);
        assert!(HeatMap::decode(&mut d).is_err());
    }

    /// Eviction compacts slots; later records must still resolve to the
    /// right (possibly re-allocated) slots and keep canonical order.
    #[test]
    fn compaction_keeps_lookups_and_order_straight() {
        let mut ns = Namespace::new();
        let mut files = Vec::new();
        for d in 0..6 {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            files.push((dir, ns.create_file(dir, "f", 1).unwrap()));
        }
        let mut hm = HeatMap::new();
        // Heat dirs unevenly: after 10 half-life rounds the cold dirs
        // (1 → ~0.00098) fall under the 1e-3 floor while the hot ones
        // (100 → ~0.098) survive.
        for (i, &(_, f)) in files.iter().enumerate() {
            hm.record_n(&ns, f, if i % 2 == 0 { 100 } else { 1 });
        }
        for _ in 0..10 {
            hm.decay_epoch();
        }
        assert_eq!(hm.len(), 3, "cold dirs evicted");
        for (i, &(dir, _)) in files.iter().enumerate() {
            let want = if i % 2 == 0 {
                100.0 * 0.5f64.powi(10)
            } else {
                0.0
            };
            assert_eq!(hm.heat_of(dir), want);
        }
        // Re-heat an evicted dir: fresh slot, correct value.
        hm.record(&ns, files[1].1);
        assert_eq!(hm.heat_of(files[1].0), 1.0);
        assert_eq!(hm.len(), 4);
    }

    /// Snapshot bytes must not depend on the order requests arrived in.
    /// The fixture makes that order matter to the counters' slots: summed
    /// in slot order, the heat differs between insertion orders.
    #[test]
    fn encode_is_bit_identical_across_insertion_orders() {
        let mut ns = Namespace::new();
        let mut files = Vec::new();
        for d in 0..8 {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            files.push(ns.create_file(dir, "f", 1).unwrap());
        }
        // Directory 0 carries 2^53 requests, the others one each; after a
        // decay that is 2^52 against 0.5, half a unit in the last place.
        // Each 0.5 added after the big counter rounds away, while halves
        // summed first survive, so a slot-order sum genuinely depends on
        // the insertion order.
        let run = |order: &[usize]| {
            let mut hm = HeatMap::new();
            for &i in order {
                if i == 0 {
                    hm.record_n(&ns, files[i], 1 << 52);
                    hm.record_n(&ns, files[i], (1 << 52) - 1);
                }
                hm.record(&ns, files[i]);
            }
            hm.decay_epoch();
            hm
        };
        let forward: Vec<usize> = (0..8).collect();
        let reverse: Vec<usize> = (0..8).rev().collect();
        let interleaved: Vec<usize> = vec![4, 0, 6, 2, 7, 1, 5, 3];
        let a = run(&forward);
        let b = run(&reverse);
        let c = run(&interleaved);
        let slot_order_sum = |hm: &HeatMap| hm.entries.iter().map(|&(_, h)| h).sum::<f64>();
        assert_ne!(
            slot_order_sum(&a).to_bits(),
            slot_order_sum(&b).to_bits(),
            "fixture must make the insertion order matter"
        );
        let bytes = |hm: &HeatMap| {
            let mut e = lunule_util::codec::Encoder::new();
            hm.encode(&mut e);
            e.into_bytes()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(bytes(&a), bytes(&c));
    }
}
