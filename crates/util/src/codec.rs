//! A minimal binary codec for snapshot sections.
//!
//! Every crate that owns private simulation state (namespace arenas,
//! balancer windows, migration queues…) encodes it with this codec so the
//! snapshot container (`lunule-snapshot`) can checksum and lay out the
//! bytes without knowing what is inside them. The format is deliberately
//! boring: little-endian fixed-width integers, `f64` as raw IEEE-754 bits
//! (so restored floats are *bit*-identical, not merely approximately
//! equal), length-prefixed strings and sequences. There is no
//! self-description — reader and writer must agree on the field order,
//! which the snapshot format version pins.

/// Decoding failure: the bytes did not match the expected shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the next field needs.
    Truncated {
        /// What was being decoded when the input ran dry.
        what: &'static str,
    },
    /// A tag or invariant check failed (e.g. a boolean byte that is
    /// neither 0 nor 1, or a variant tag out of range).
    Invalid {
        /// What was being decoded when the value made no sense.
        what: &'static str,
    },
    /// Bytes were left over after the last expected field.
    TrailingBytes {
        /// How many bytes remained unread.
        remaining: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => {
                write!(f, "truncated input while decoding {what}")
            }
            CodecError::Invalid { what } => write!(f, "invalid value while decoding {what}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Discards everything written, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(crate::convert::usize_to_u64(v));
    }

    /// Writes an `f64` as its raw bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed raw byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes whatever `put` writes as a length-prefixed byte section, in
    /// place: the same bytes as `put_bytes` of a second encoder's output,
    /// without the second buffer.
    pub fn put_nested(&mut self, put: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.put_u64(0);
        put(self);
        let len = crate::convert::usize_to_u64(self.buf.len() - at - 8);
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes an `Option` as a presence byte followed by the value.
    pub fn put_option<T>(&mut self, v: &Option<T>, mut put: impl FnMut(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.put_bool(true);
                put(self, inner);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a length-prefixed sequence.
    pub fn put_seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.put_usize(items.len());
        for item in items {
            put(self, item);
        }
    }
}

/// Reads fields back out of a byte slice, tracking position.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — call after the last
    /// field so a version skew that *appends* fields is still caught.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not fit
    /// the platform word.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid { what })
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a boolean, rejecting bytes other than 0/1.
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.get_usize(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid { what })
    }

    /// Reads a length-prefixed raw byte vector.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CodecError> {
        let len = self.get_usize(what)?;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Reads an `Option` written by [`Encoder::put_option`].
    pub fn get_option<T>(
        &mut self,
        what: &'static str,
        mut get: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        if self.get_bool(what)? {
            Ok(Some(get(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed sequence written by [`Encoder::put_seq`].
    /// The length is sanity-bounded against the remaining input so a
    /// corrupted prefix cannot trigger a giant allocation.
    pub fn get_seq<T>(
        &mut self,
        what: &'static str,
        mut get: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.get_usize(what)?;
        // Every element costs at least one byte on the wire.
        if len > self.remaining() {
            return Err(CodecError::Invalid { what });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(get(self)?);
        }
        Ok(out)
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0][b]` is the CRC step of byte
/// `b` alone, and `CRC_TABLES[k][b]` the same byte followed by `k` zero
/// bytes, so eight input bytes fold into the CRC with eight lookups.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    let mut byte = 0u32;
    while i < 256 {
        let mut crc = byte;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes` — the per-section
/// checksum of the snapshot container. Folds eight bytes per step through
/// `CRC_TABLES` and the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let [a, b, d, e] = (crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]])).to_le_bytes();
        crc = t[7][usize::from(a)]
            ^ t[6][usize::from(b)]
            ^ t[5][usize::from(d)]
            ^ t[4][usize::from(e)]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    !crc
}

/// The bit-at-a-time CRC-32 the tables are derived from: the reference
/// [`crc32`] is checked against.
#[cfg(test)]
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash — the seed/config digest of the snapshot header.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(300);
        e.put_u32(70_000);
        e.put_u64(u64::MAX - 1);
        e.put_usize(123_456);
        e.put_f64(-0.1);
        e.put_bool(true);
        e.put_bool(false);
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8("a").unwrap(), 7);
        assert_eq!(d.get_u16("b").unwrap(), 300);
        assert_eq!(d.get_u32("c").unwrap(), 70_000);
        assert_eq!(d.get_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(d.get_usize("e").unwrap(), 123_456);
        assert_eq!(d.get_f64("f").unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(d.get_bool("g").unwrap());
        assert!(!d.get_bool("h").unwrap());
        assert_eq!(d.get_str("i").unwrap(), "héllo");
        assert_eq!(d.get_bytes("j").unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn nested_section_matches_put_bytes_of_a_second_encoder() {
        let write = |e: &mut Encoder| {
            e.put_u32(70_000);
            e.put_str("inner");
            e.put_seq(&[1u64, 2], |e, v| e.put_u64(*v));
        };
        let mut inner = Encoder::new();
        write(&mut inner);
        let mut copied = Encoder::new();
        copied.put_u8(9);
        copied.put_bytes(&inner.into_bytes());
        copied.put_u8(7);
        let mut nested = Encoder::new();
        nested.put_u8(9);
        nested.put_nested(write);
        nested.put_u8(7);
        assert_eq!(nested.bytes(), copied.bytes());
        // An empty section is a bare zero length.
        let mut empty = Encoder::new();
        empty.put_nested(|_| {});
        assert_eq!(empty.bytes(), &[0u8; 8]);
        // `clear` forgets the bytes but the encoder stays usable.
        nested.clear();
        assert!(nested.is_empty());
        nested.put_u8(1);
        assert_eq!(nested.into_bytes(), vec![1]);
    }

    #[test]
    fn options_and_sequences_round_trip() {
        let mut e = Encoder::new();
        e.put_option(&Some(9u64), |e, v| e.put_u64(*v));
        e.put_option(&None::<u64>, |e, v| e.put_u64(*v));
        e.put_seq(&[1.5f64, -2.5, 0.0], |e, v| e.put_f64(*v));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_option("a", |d| d.get_u64("a")).unwrap(), Some(9));
        assert_eq!(d.get_option("b", |d| d.get_u64("b")).unwrap(), None);
        assert_eq!(
            d.get_seq("c", |d| d.get_f64("c")).unwrap(),
            vec![1.5, -2.5, 0.0]
        );
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let mut e = Encoder::new();
        e.put_u64(1);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..4]);
        assert!(matches!(
            d.get_u64("x"),
            Err(CodecError::Truncated { what: "x" })
        ));
        let mut d = Decoder::new(&[7]);
        assert!(matches!(
            d.get_bool("flag"),
            Err(CodecError::Invalid { .. })
        ));
        // A corrupted sequence length larger than the input is rejected
        // before any allocation happens.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_seq("seq", |d| d.get_u8("seq")).is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut d = Decoder::new(&[1, 2]);
        let _ = d.get_u8("x").unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // A single flipped bit changes the checksum.
        assert_ne!(crc32(&[0b0000_0001]), crc32(&[0b0000_0011]));
    }

    #[test]
    fn table_crc32_matches_the_bitwise_loop() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect();
        // Every tail length around one and two 8-byte steps, at every
        // alignment of the slice start.
        for offset in 0..8 {
            for len in 0..=17 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        assert_eq!(crc32(&buf[3..]), crc32_bitwise(&buf[3..]));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"seed=1"), fnv1a64(b"seed=2"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }

    #[test]
    fn rng_state_round_trips_through_codec() {
        let mut rng = crate::DetRng::seed_from_u64(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut e = Encoder::new();
        for w in rng.state() {
            e.put_u64(w);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = d.get_u64("rng").unwrap();
        }
        let mut restored = crate::DetRng::from_state(s);
        assert_eq!(restored.next_u64(), rng.next_u64());
    }
}
