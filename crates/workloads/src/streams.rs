//! Reusable op-stream building blocks for the workload generators.

use crate::zipf::HotSetSampler;
use lunule_namespace::{InodeId, Namespace};
use lunule_sim::{MetaOp, OpStream};
use lunule_util::DetRng;
use std::sync::Arc;

/// Derives a per-client RNG seed from a workload master seed — a SplitMix64
/// step so neighbouring client ids do not correlate.
pub fn client_seed(master: u64, client: u64) -> u64 {
    let mut z = master ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sequentially reads a shared list of files once (scan-type workloads:
/// CNN preprocessing, NLP training) and optionally finishes by creating a
/// record file (the CNN pipeline's packed output).
#[derive(Clone)]
pub struct ScanStream {
    files: Arc<Vec<InodeId>>,
    pos: usize,
    /// `(output dir, size)` of the record file to create after the scan.
    record: Option<(InodeId, u64)>,
    record_done: bool,
}

impl ScanStream {
    /// Scan over `files`, optionally followed by a record-file create.
    pub fn new(files: Arc<Vec<InodeId>>, record: Option<(InodeId, u64)>) -> Self {
        ScanStream {
            files,
            pos: 0,
            record,
            record_done: false,
        }
    }
}

impl OpStream for ScanStream {
    fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
        if self.pos < self.files.len() {
            let op = MetaOp::Read(self.files[self.pos]);
            self.pos += 1;
            return Some(op);
        }
        if let Some((dir, size)) = self.record {
            if !self.record_done {
                self.record_done = true;
                return Some(MetaOp::Create { parent: dir, size });
            }
        }
        None
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.files.len() as u64 + u64::from(self.record.is_some()))
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_usize(self.pos);
        e.put_bool(self.record_done);
    }

    fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        let pos = d.get_usize("scan_stream.pos")?;
        let record_done = d.get_bool("scan_stream.record_done")?;
        if pos > self.files.len() || (record_done && self.record.is_none()) {
            return Err(lunule_util::codec::CodecError::Invalid {
                what: "scan_stream.pos",
            });
        }
        self.pos = pos;
        self.record_done = record_done;
        Ok(())
    }
}

/// Replays a shared, pre-generated access trace in order (Web workload).
#[derive(Clone)]
pub struct ReplayStream {
    trace: Arc<Vec<InodeId>>,
    pos: usize,
}

impl ReplayStream {
    /// Replay of `trace` from the beginning.
    pub fn new(trace: Arc<Vec<InodeId>>) -> Self {
        ReplayStream { trace, pos: 0 }
    }
}

impl OpStream for ReplayStream {
    fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
        let op = self.trace.get(self.pos).copied().map(MetaOp::Read);
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_usize(self.pos);
    }

    fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        let pos = d.get_usize("replay_stream.pos")?;
        if pos > self.trace.len() {
            return Err(lunule_util::codec::CodecError::Invalid {
                what: "replay_stream.pos",
            });
        }
        self.pos = pos;
        Ok(())
    }
}

/// Random reads over a private file set under the 80/20 rule
/// (Filebench-Zipfian workload). The files are a contiguous id range, so
/// a draw is an addition, not a load from a per-client table.
#[derive(Clone)]
pub struct HotSetStream {
    /// Arena index of the first file; the set is `first .. first + n`.
    first: usize,
    sampler: HotSetSampler,
    rng: DetRng,
    remaining: u64,
}

impl HotSetStream {
    /// `ops` reads over `files`, 80 % of them on the first 20 %. Returns
    /// `None` unless `files` is a non-empty run of consecutive ids (a
    /// dataset builder whose create failed hands back the parent instead,
    /// which breaks the run): a gap is refused, never drawn around.
    pub fn new(files: &[InodeId], ops: u64, seed: u64) -> Option<Self> {
        let first = files.first()?.index();
        if !files
            .iter()
            .zip(first..)
            .all(|(id, want)| id.index() == want)
        {
            return None;
        }
        Some(HotSetStream {
            first,
            sampler: HotSetSampler::new(files.len(), 0.2, 0.8),
            rng: DetRng::seed_from_u64(seed),
            remaining: ops,
        })
    }
}

impl HotSetStream {
    /// The table form this stream replaced, kept as its oracle: the same
    /// draw, looked up in the file list instead of added to the first id.
    #[cfg(test)]
    fn next_from_table(&mut self, files: &[InodeId]) -> Option<MetaOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let idx = self.sampler.sample(&mut self.rng);
        Some(MetaOp::Read(files[idx]))
    }
}

impl OpStream for HotSetStream {
    fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let idx = self.sampler.sample(&mut self.rng);
        Some(MetaOp::Read(InodeId::from_index(self.first + idx)))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        for word in self.rng.state() {
            e.put_u64(word);
        }
        e.put_u64(self.remaining);
    }

    fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = d.get_u64("hotset_stream.rng")?;
        }
        let remaining = d.get_u64("hotset_stream.remaining")?;
        // A snapshot can only have drained ops, never added them; the
        // freshly built stream holds the configured total.
        if remaining > self.remaining {
            return Err(lunule_util::codec::CodecError::Invalid {
                what: "hotset_stream.remaining",
            });
        }
        self.rng = DetRng::from_state(state);
        self.remaining = remaining;
        Ok(())
    }
}

/// Endless-until-quota creates into a private directory (MDtest-create).
#[derive(Clone)]
pub struct CreateStream {
    parent: InodeId,
    remaining: u64,
    size: u64,
}

impl CreateStream {
    /// `count` creates of `size`-byte files under `parent`.
    pub fn new(parent: InodeId, count: u64, size: u64) -> Self {
        CreateStream {
            parent,
            remaining: count,
            size,
        }
    }
}

impl OpStream for CreateStream {
    fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(MetaOp::Create {
            parent: self.parent,
            size: self.size,
        })
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_u64(self.remaining);
    }

    fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        let remaining = d.get_u64("create_stream.remaining")?;
        if remaining > self.remaining {
            return Err(lunule_util::codec::CodecError::Invalid {
                what: "create_stream.remaining",
            });
        }
        self.remaining = remaining;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns_with_files(n: usize) -> (Namespace, InodeId, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let files = (0..n)
            .map(|i| ns.create_file(d, &format!("f{i}"), 1).unwrap())
            .collect();
        (ns, d, files)
    }

    #[test]
    fn scan_reads_everything_then_creates_record() {
        let (ns, d, files) = ns_with_files(5);
        let mut s = ScanStream::new(Arc::new(files.clone()), Some((d, 100)));
        for f in &files {
            assert_eq!(s.next_op(&ns), Some(MetaOp::Read(*f)));
        }
        assert_eq!(
            s.next_op(&ns),
            Some(MetaOp::Create {
                parent: d,
                size: 100
            })
        );
        assert_eq!(s.next_op(&ns), None);
    }

    #[test]
    fn scan_without_record() {
        let (ns, _d, files) = ns_with_files(3);
        let mut s = ScanStream::new(Arc::new(files), None);
        assert_eq!(s.len_hint(), Some(3));
        for _ in 0..3 {
            assert!(s.next_op(&ns).is_some());
        }
        assert_eq!(s.next_op(&ns), None);
    }

    #[test]
    fn replay_follows_trace() {
        let (ns, _d, files) = ns_with_files(3);
        let trace = Arc::new(vec![files[2], files[0], files[2]]);
        let mut s = ReplayStream::new(trace);
        assert_eq!(s.next_op(&ns), Some(MetaOp::Read(files[2])));
        assert_eq!(s.next_op(&ns), Some(MetaOp::Read(files[0])));
        assert_eq!(s.next_op(&ns), Some(MetaOp::Read(files[2])));
        assert_eq!(s.next_op(&ns), None);
    }

    #[test]
    fn hotset_stream_respects_quota_and_skews() {
        let (ns, _d, files) = ns_with_files(100);
        let mut s = HotSetStream::new(&files, 1000, 42).unwrap();
        let mut hot_hits = 0;
        let mut count = 0;
        while let Some(MetaOp::Read(ino)) = s.next_op(&ns) {
            count += 1;
            if files[..20].contains(&ino) {
                hot_hits += 1;
            }
        }
        assert_eq!(count, 1000);
        assert!(hot_hits > 700, "hot share too low: {hot_hits}/1000");
    }

    /// The range form draws exactly the ids the table form drew, for
    /// file sets that start anywhere in the arena.
    #[test]
    fn hotset_range_draws_what_the_table_draws() {
        lunule_util::propcheck::run(64, |rng| {
            let mut ns = Namespace::new();
            let other = ns.mkdir(InodeId::ROOT, "other").unwrap();
            for i in 0..rng.gen_range(0..50) {
                ns.create_file(other, &format!("o{i}"), 1).unwrap();
            }
            let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
            let files: Vec<InodeId> = (0..rng.gen_range(1..400))
                .map(|i| ns.create_file(d, &format!("f{i}"), 1).unwrap())
                .collect();
            let ops = lunule_util::convert::usize_to_u64(rng.gen_range(0..600));
            let seed = rng.next_u64();
            let mut range = HotSetStream::new(&files, ops, seed).unwrap();
            let mut table = range.clone();
            loop {
                let (a, b) = (range.next_op(&ns), table.next_from_table(&files));
                assert_eq!(a, b, "range and table forms diverged");
                if a.is_none() {
                    break;
                }
            }
        });
    }

    /// A file set that is not one run of consecutive ids is refused.
    #[test]
    fn hotset_refuses_a_gap() {
        let (mut ns, d, files) = ns_with_files(4);
        assert!(HotSetStream::new(&files, 10, 1).is_some());
        assert!(HotSetStream::new(&[], 10, 1).is_none(), "empty set");
        // A failed dataset create hands back the parent directory.
        let mut gap = files.clone();
        gap[2] = d;
        assert!(HotSetStream::new(&gap, 10, 1).is_none(), "parent in place");
        let mut spaced = files.clone();
        spaced.push(ns.mkdir(InodeId::ROOT, "e").unwrap());
        spaced.push(ns.create_file(d, "late", 1).unwrap());
        spaced.remove(4);
        assert!(HotSetStream::new(&spaced, 10, 1).is_none(), "skipped id");
        let mut swapped = files;
        swapped.swap(0, 1);
        assert!(HotSetStream::new(&swapped, 10, 1).is_none(), "out of order");
    }

    /// The saved state is the RNG and the remaining count only: the file
    /// set is configuration, rebuilt with the workload.
    #[test]
    fn hotset_state_is_rng_and_remaining() {
        let (ns, _d, files) = ns_with_files(10);
        let mut s = HotSetStream::new(&files, 50, 7).unwrap();
        s.next_op(&ns);
        let mut e = lunule_util::codec::Encoder::new();
        s.save_state(&mut e);
        assert_eq!(e.into_bytes().len(), 5 * 8);
    }

    #[test]
    fn create_stream_counts_down() {
        let (ns, d, _) = ns_with_files(1);
        let mut s = CreateStream::new(d, 2, 0);
        assert!(matches!(s.next_op(&ns), Some(MetaOp::Create { .. })));
        assert!(matches!(s.next_op(&ns), Some(MetaOp::Create { .. })));
        assert_eq!(s.next_op(&ns), None);
    }

    /// Each stream type resumes exactly where it left off after a
    /// save/load cycle into a freshly built instance, and rejects cursors
    /// that claim more progress than the configuration allows.
    #[test]
    fn stream_states_round_trip_mid_drain() {
        use lunule_util::codec::{CodecError, Decoder, Encoder};
        let (ns, d, files) = ns_with_files(10);

        // Drains `burn` ops from `stream`, round-trips its state into
        // `fresh`, and checks both produce the identical remaining tail.
        fn check(ns: &Namespace, mut stream: impl OpStream, mut fresh: impl OpStream, burn: usize) {
            for _ in 0..burn {
                stream.next_op(ns);
            }
            let mut e = Encoder::new();
            stream.save_state(&mut e);
            let bytes = e.into_bytes();
            let mut dec = Decoder::new(&bytes);
            fresh.load_state(&mut dec).unwrap();
            dec.finish().unwrap();
            loop {
                let (a, b) = (stream.next_op(ns), fresh.next_op(ns));
                assert_eq!(a, b, "restored stream diverged");
                if a.is_none() {
                    break;
                }
            }
        }

        let shared = Arc::new(files.clone());
        check(
            &ns,
            ScanStream::new(shared.clone(), Some((d, 64))),
            ScanStream::new(shared.clone(), Some((d, 64))),
            10, // mid record-phase: all reads done, create pending
        );
        check(
            &ns,
            ReplayStream::new(shared.clone()),
            ReplayStream::new(shared.clone()),
            4,
        );
        check(
            &ns,
            HotSetStream::new(&files, 50, 7).unwrap(),
            HotSetStream::new(&files, 50, 7).unwrap(),
            23,
        );
        check(
            &ns,
            CreateStream::new(d, 8, 16),
            CreateStream::new(d, 8, 16),
            3,
        );

        // Impossible progress is refused: more ops remaining than the
        // configuration ever had.
        let mut e = Encoder::new();
        e.put_u64(99);
        let bytes = e.into_bytes();
        let mut s = CreateStream::new(d, 8, 16);
        assert!(matches!(
            s.load_state(&mut Decoder::new(&bytes)),
            Err(CodecError::Invalid {
                what: "create_stream.remaining"
            })
        ));
        // A scan cursor past the file list is refused.
        let mut e = Encoder::new();
        e.put_usize(11);
        e.put_bool(false);
        let bytes = e.into_bytes();
        let mut s = ScanStream::new(shared, None);
        assert!(s.load_state(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn client_seed_spreads() {
        let a = client_seed(1, 0);
        let b = client_seed(1, 1);
        let c = client_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
