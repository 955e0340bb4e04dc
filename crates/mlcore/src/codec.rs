//! Length-prefixed binary encoding primitives.
//!
//! The persistent snapshot store serializes encoded column segments as
//! binary files: parsing JSON back into a million records costs orders of
//! magnitude more than memcpy-ing columns off disk, and the hot cold-start
//! path must never pay serde's text round trip.  This module provides the
//! two halves of that format:
//!
//! * [`ByteWriter`] — an append-only buffer with fixed-width little-endian
//!   primitives and length-prefixed strings/blocks.
//! * [`ByteReader`] — the matching cursor whose every read is checked:
//!   malformed or truncated input surfaces a typed [`CodecError`], never a
//!   panic and never an out-of-bounds slice.
//!
//! All multi-byte values are little-endian.  Strings and blocks are
//! prefixed with their byte length (`u32` for strings, `u64` for blocks),
//! so a reader can skip a block it does not understand and a truncated
//! file is detected at the first read past the end.
//!
//! # Bit-level compression primitives
//!
//! On top of the byte-level framing the module provides the three
//! primitives the v2 column segment format is built from:
//!
//! * **Bit packing** ([`ByteWriter::put_packed`] / [`ByteReader::get_packed`])
//!   — `n` values of a fixed bit width laid out LSB-first, the form
//!   dictionary ids are stored in (width = ⌈log₂(dictionary len)⌉,
//!   [`bits_needed`]).
//! * **Bitmaps** ([`ByteWriter::put_bitmap`] / [`ByteReader::get_bitmap`])
//!   — one bit per row, used for null/missing presence and for the
//!   numeric-vs-nominal kind split of mixed columns.
//! * **Numeric streams** ([`encode_f64_stream`] / [`decode_f64_stream`])
//!   — frame-of-reference or delta + frame-of-reference coding for columns
//!   whose values are integral `f64`s (the common case for sizes, counts
//!   and millisecond durations), falling back to raw IEEE-754 bit patterns
//!   whenever packing would not be strictly smaller — so NaN, ±inf, `-0.0`
//!   and fractional values always round-trip **bit-exactly**.

use crate::hash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// Decoding failure: the input is shorter than a read requires, or a read
/// value is structurally invalid (bad tag, bad UTF-8, id out of range).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A read completed but the value is invalid for its context.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => write!(
                f,
                "truncated input: needed {needed} more byte(s), {available} available"
            ),
            CodecError::Invalid(message) => write!(f, "invalid encoding: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience result alias for decoding.
pub type CodecResult<T> = Result<T, CodecError>;

/// Number of bits needed to represent `value` (0 for 0).
///
/// A dictionary of `n` entries packs its ids at `bits_needed(n - 1)` bits;
/// a dictionary of one entry (or none) needs zero bits per id.
pub fn bits_needed(value: u64) -> u32 {
    u64::BITS - value.leading_zeros()
}

/// Bytes a packed stream of `count` values at `width` bits occupies.
pub fn packed_len(count: usize, width: u32) -> usize {
    ((count as u128 * width as u128).div_ceil(8)) as usize
}

/// Bytes a bitmap of `count` bits occupies.
pub fn bitmap_len(count: usize) -> usize {
    count.div_ceil(8)
}

/// An append-only binary buffer (all primitives little-endian).
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates an empty writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn put_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_u32(value.len() as u32);
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Appends a `u64`-length-prefixed block produced by `fill`.
    ///
    /// The block length is patched in after `fill` runs, so the caller
    /// writes the block body with the ordinary `put_*` methods.
    pub fn put_block(&mut self, fill: impl FnOnce(&mut ByteWriter)) {
        let prefix_at = self.buf.len();
        self.put_u64(0);
        let body_at = self.buf.len();
        fill(self);
        let body_len = (self.buf.len() - body_at) as u64;
        self.buf[prefix_at..body_at].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Appends a checksummed block: a `u32` body length, the FxHash-64
    /// fingerprint of the body, then the body produced by `fill`.  The
    /// matching [`ByteReader::get_checksummed_block`] verifies the
    /// fingerprint before handing the body out, so a flipped bit anywhere
    /// in the block surfaces as [`CodecError::Invalid`] instead of a
    /// silently corrupt decode — the framing the durable append journal
    /// stores its record batches in.
    pub fn put_checksummed_block(&mut self, fill: impl FnOnce(&mut ByteWriter)) {
        let prefix_at = self.buf.len();
        self.put_u32(0);
        self.put_u64(0);
        let body_at = self.buf.len();
        fill(self);
        let body_len = (self.buf.len() - body_at) as u32;
        let mut hasher = FxHasher::default();
        hasher.write(&self.buf[body_at..]);
        let fingerprint = hasher.finish();
        self.buf[prefix_at..prefix_at + 4].copy_from_slice(&body_len.to_le_bytes());
        self.buf[prefix_at + 4..body_at].copy_from_slice(&fingerprint.to_le_bytes());
    }

    /// Appends `values` bit-packed at `width` bits each, LSB-first within
    /// each byte, padded with zero bits to the next byte boundary.  Every
    /// value must fit in `width` bits (`width == 0` writes nothing and is
    /// only valid when every value is 0).
    pub fn put_packed(&mut self, values: &[u64], width: u32) {
        debug_assert!(width <= 64, "pack width {width} exceeds 64");
        if width == 0 {
            debug_assert!(values.iter().all(|&v| v == 0));
            return;
        }
        self.buf.reserve(packed_len(values.len(), width));
        let mut acc: u128 = 0;
        let mut bits: u32 = 0;
        for &value in values {
            debug_assert!(width == 64 || value < (1u64 << width));
            acc |= (value as u128) << bits;
            bits += width;
            while bits >= 8 {
                self.buf.push((acc & 0xff) as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            self.buf.push((acc & 0xff) as u8);
        }
    }

    /// Appends `bits` as a bitmap, LSB-first within each byte, padded with
    /// zero bits to the next byte boundary.
    pub fn put_bitmap(&mut self, bits: &[bool]) {
        self.buf.reserve(bitmap_len(bits.len()));
        for chunk in bits.chunks(8) {
            let mut byte = 0u8;
            for (i, &bit) in chunk.iter().enumerate() {
                byte |= (bit as u8) << i;
            }
            self.buf.push(byte);
        }
    }
}

/// A checked cursor over a byte slice (the counterpart of [`ByteWriter`]).
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `len` raw bytes.
    pub fn take(&mut self, len: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < len {
            return Err(CodecError::Truncated {
                needed: len,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and checks it fits a `usize` count of at least
    /// one-byte items in the remaining input — a cheap sanity bound that
    /// turns a corrupt length into [`CodecError::Invalid`] instead of an
    /// attempted multi-exabyte allocation.
    pub fn get_count(&mut self) -> CodecResult<usize> {
        let raw = self.get_u64()?;
        if raw > self.remaining() as u64 {
            return Err(CodecError::Invalid(format!(
                "count {raw} exceeds the {} remaining byte(s)",
                self.remaining()
            )));
        }
        Ok(raw as usize)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<&'a str> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| CodecError::Invalid(format!("string is not UTF-8: {e}")))
    }

    /// Reads a `u64`-length-prefixed block, returning a reader over exactly
    /// the block body (the outer cursor advances past it).
    pub fn get_block(&mut self) -> CodecResult<ByteReader<'a>> {
        let len = self.get_count()?;
        Ok(ByteReader::new(self.take(len)?))
    }

    /// Reads a checksummed block written by
    /// [`ByteWriter::put_checksummed_block`]: the `u32` body length and the
    /// `u64` FxHash-64 fingerprint are consumed, the body is fingerprinted
    /// and compared, and only a verified body is returned (as a reader over
    /// exactly the block; the outer cursor advances past it).  A length
    /// pointing past the input is [`CodecError::Truncated`]; a fingerprint
    /// mismatch is [`CodecError::Invalid`].  No allocation is sized by the
    /// untrusted length — the body is a borrowed slice.
    pub fn get_checksummed_block(&mut self) -> CodecResult<ByteReader<'a>> {
        let len = self.get_u32()? as usize;
        let expected = self.get_u64()?;
        let body = self.take(len)?;
        let mut hasher = FxHasher::default();
        hasher.write(body);
        let actual = hasher.finish();
        if actual != expected {
            return Err(CodecError::Invalid(format!(
                "checksummed block fingerprint mismatch: stored {expected:016x}, \
                 computed {actual:016x}"
            )));
        }
        Ok(ByteReader::new(body))
    }

    /// Reads `count` values bit-packed at `width` bits each (the inverse of
    /// [`ByteWriter::put_packed`]).  A width over 64 is [`CodecError::Invalid`];
    /// too few bytes is [`CodecError::Truncated`].  The output allocation is
    /// only made after the packed bytes were actually consumed, so a corrupt
    /// count cannot provoke an allocation larger than ~8× the input.
    pub fn get_packed(&mut self, count: usize, width: u32) -> CodecResult<Vec<u64>> {
        if width > 64 {
            return Err(CodecError::Invalid(format!(
                "impossible bit width {width} (values are at most 64 bits)"
            )));
        }
        if width == 0 {
            return Ok(vec![0; count]);
        }
        let bytes = self.take(packed_len(count, width))?;
        let mask: u64 = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut out = Vec::with_capacity(count);
        let mut acc: u128 = 0;
        let mut bits: u32 = 0;
        let mut iter = bytes.iter();
        for _ in 0..count {
            while bits < width {
                acc |= (*iter.next().expect("packed_len bounds the reads") as u128) << bits;
                bits += 8;
            }
            out.push((acc as u64) & mask);
            acc >>= width;
            bits -= width;
        }
        Ok(out)
    }

    /// Reads a bitmap of `count` bits (the inverse of
    /// [`ByteWriter::put_bitmap`]).  A bitmap shorter than `count` bits is
    /// [`CodecError::Truncated`]; the output allocation is only made after
    /// the bitmap bytes were actually consumed.
    pub fn get_bitmap(&mut self, count: usize) -> CodecResult<Vec<bool>> {
        let bytes = self.take(bitmap_len(count))?;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(bytes[i / 8] & (1 << (i % 8)) != 0);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Numeric stream codec (frame-of-reference / delta / raw)
// ---------------------------------------------------------------------------

/// Tags of the numeric stream encodings.
const NUM_RAW: u8 = 0;
const NUM_FOR: u8 = 1;
const NUM_DELTA: u8 = 2;

/// Returns the values as exact `i64`s when every one is a finite, integral
/// `f64` that round-trips bit-exactly through `i64` — the precondition for
/// frame-of-reference and delta coding.  NaN, ±inf, `-0.0` (whose bit
/// pattern `0 as f64` cannot reproduce), fractional values and magnitudes
/// outside `i64` all disqualify the column.
fn integral_values(values: &[f64]) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        if !v.is_finite() || v < i64::MIN as f64 || v >= 9_223_372_036_854_775_808.0 {
            return None;
        }
        let i = v as i64;
        if (i as f64).to_bits() != v.to_bits() {
            return None;
        }
        out.push(i);
    }
    Some(out)
}

/// Appends `values` as a self-describing compressed numeric stream: a tag
/// byte, then frame-of-reference (`base + packed offsets`), delta +
/// frame-of-reference (`first, min delta + packed delta offsets`) or raw
/// IEEE-754 bit patterns — whichever is smallest.  Raw wins whenever the
/// values are not integral `i64`s (NaN, ±inf, `-0.0`, fractions, huge
/// magnitudes) or the packed forms would not actually save bytes, so the
/// stream always round-trips **bit-exactly** through
/// [`decode_f64_stream`].
pub fn encode_f64_stream(writer: &mut ByteWriter, values: &[f64]) {
    enum Plan {
        Raw,
        For { base: i64, width: u32 },
        Delta { min_d: i64, width: u32 },
    }
    let n = values.len();
    // Choose the smallest encoding; ties go to the earlier (simpler) plan.
    let mut best = (Plan::Raw, 8 * n);
    let ints = integral_values(values);
    if let Some(ints) = &ints {
        if let (Some(&min), Some(&max)) = (ints.iter().min(), ints.iter().max()) {
            let width = bits_needed((max as i128 - min as i128) as u64);
            let cost = 8 + 1 + packed_len(n, width);
            if cost < best.1 {
                best = (Plan::For { base: min, width }, cost);
            }
            if n >= 2 {
                let mut bounds: Option<(i64, i64)> = Some((i64::MAX, i64::MIN));
                for pair in ints.windows(2) {
                    bounds = match (bounds, pair[1].checked_sub(pair[0])) {
                        (Some((lo, hi)), Some(d)) => Some((lo.min(d), hi.max(d))),
                        _ => None,
                    };
                    if bounds.is_none() {
                        break;
                    }
                }
                if let Some((min_d, max_d)) = bounds {
                    let width = bits_needed((max_d as i128 - min_d as i128) as u64);
                    let cost = 8 + 8 + 1 + packed_len(n - 1, width);
                    if cost < best.1 {
                        best = (Plan::Delta { min_d, width }, cost);
                    }
                }
            }
        }
    }
    match best.0 {
        Plan::Delta { min_d, width } => {
            let ints = ints.as_ref().expect("delta plan implies integral values");
            writer.put_u8(NUM_DELTA);
            writer.put_u64(ints[0] as u64);
            writer.put_u64(min_d as u64);
            writer.put_u8(width as u8);
            let offsets: Vec<u64> = ints
                .windows(2)
                .map(|pair| ((pair[1] as i128 - pair[0] as i128) - min_d as i128) as u64)
                .collect();
            writer.put_packed(&offsets, width);
        }
        Plan::For { base, width } => {
            let ints = ints.as_ref().expect("FoR plan implies integral values");
            writer.put_u8(NUM_FOR);
            writer.put_u64(base as u64);
            writer.put_u8(width as u8);
            let offsets: Vec<u64> = ints
                .iter()
                .map(|&v| (v as i128 - base as i128) as u64)
                .collect();
            writer.put_packed(&offsets, width);
        }
        Plan::Raw => {
            writer.put_u8(NUM_RAW);
            for &v in values {
                writer.put_f64(v);
            }
        }
    }
}

/// Decodes a numeric stream of `count` values written by
/// [`encode_f64_stream`].  Every read is checked: unknown tags, impossible
/// bit widths and values overflowing `i64` are [`CodecError::Invalid`];
/// truncated payloads are [`CodecError::Truncated`].  The caller bounds
/// `count` (in the column format it is at most the row count, which is
/// itself bounded by the presence bitmap's consumed bytes).
pub fn decode_f64_stream(reader: &mut ByteReader<'_>, count: usize) -> CodecResult<Vec<f64>> {
    let overflow =
        || CodecError::Invalid("numeric stream value overflows the i64 range".to_string());
    match reader.get_u8()? {
        NUM_RAW => {
            let mut out = Vec::with_capacity(count.min(reader.remaining() / 8 + 1));
            for _ in 0..count {
                out.push(reader.get_f64()?);
            }
            Ok(out)
        }
        NUM_FOR => {
            let base = reader.get_u64()? as i64;
            let width = reader.get_u8()? as u32;
            let offsets = reader.get_packed(count, width)?;
            let mut out = Vec::with_capacity(count);
            for offset in offsets {
                let v = i64::try_from(base as i128 + offset as i128).map_err(|_| overflow())?;
                out.push(v as f64);
            }
            Ok(out)
        }
        NUM_DELTA => {
            if count == 0 {
                return Err(CodecError::Invalid(
                    "delta-coded numeric stream with zero values".to_string(),
                ));
            }
            let first = reader.get_u64()? as i64;
            let min_d = reader.get_u64()? as i64;
            let width = reader.get_u8()? as u32;
            let offsets = reader.get_packed(count - 1, width)?;
            let mut out = Vec::with_capacity(count);
            let mut prev = first;
            out.push(prev as f64);
            for offset in offsets {
                let delta = min_d as i128 + offset as i128;
                prev = i64::try_from(prev as i128 + delta).map_err(|_| overflow())?;
                out.push(prev as f64);
            }
            Ok(out)
        }
        tag => Err(CodecError::Invalid(format!(
            "unknown numeric stream tag {tag}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-1.5e300);
        w.put_str("héllo");
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_str().unwrap(), "");
        assert!(r.is_exhausted());
    }

    #[test]
    fn blocks_are_length_prefixed_and_skippable() {
        let mut w = ByteWriter::new();
        w.put_block(|w| {
            w.put_str("inner");
            w.put_u32(9);
        });
        w.put_u8(42);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let mut block = r.get_block().unwrap();
        assert_eq!(block.get_str().unwrap(), "inner");
        assert_eq!(block.get_u32().unwrap(), 9);
        assert!(block.is_exhausted());
        // The outer cursor is already past the block.
        assert_eq!(r.get_u8().unwrap(), 42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut w = ByteWriter::new();
        w.put_str("abcdef");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(matches!(
                r.get_str(),
                Err(CodecError::Truncated { .. }) | Err(CodecError::Invalid(_))
            ));
        }
    }

    #[test]
    fn corrupt_lengths_do_not_allocate() {
        // A count claiming more items than there are bytes left must be
        // rejected before any allocation sized by it.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_count(), Err(CodecError::Invalid(_))));

        // Bad UTF-8 is Invalid, not a panic.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_raw(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn checksummed_blocks_round_trip_and_detect_every_flip() {
        let mut w = ByteWriter::new();
        w.put_checksummed_block(|w| {
            w.put_str("payload");
            w.put_u64(1234);
        });
        w.put_u8(99);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let mut block = r.get_checksummed_block().unwrap();
        assert_eq!(block.get_str().unwrap(), "payload");
        assert_eq!(block.get_u64().unwrap(), 1234);
        assert!(block.is_exhausted());
        assert_eq!(r.get_u8().unwrap(), 99);

        // A flip anywhere — header or body — is detected, never a panic.
        for i in 0..bytes.len() - 1 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let mut r = ByteReader::new(&corrupt);
            assert!(
                r.get_checksummed_block().is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // Any truncation of the block itself is detected.
        for cut in 0..bytes.len() - 1 {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(r.get_checksummed_block().is_err(), "cut at {cut}");
        }

        // The empty block round-trips too.
        let mut w = ByteWriter::new();
        w.put_checksummed_block(|_| {});
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_checksummed_block().unwrap().is_exhausted());
        assert!(r.is_exhausted());
    }

    #[test]
    fn bits_needed_matches_ceil_log2() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 3);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }

    #[test]
    fn packed_values_round_trip_at_every_width() {
        for width in 0..=64u32 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..37u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask)
                .collect();
            let mut w = ByteWriter::new();
            w.put_packed(&values, width);
            assert_eq!(w.len(), packed_len(values.len(), width), "width {width}");
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_packed(values.len(), width).unwrap(), values);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn packed_stream_rejects_truncation_and_bad_widths() {
        let mut w = ByteWriter::new();
        w.put_packed(&[1, 2, 3, 4, 5], 7);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(matches!(
                r.get_packed(5, 7),
                Err(CodecError::Truncated { .. })
            ));
        }
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_packed(5, 65), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn bitmaps_round_trip_and_reject_truncation() {
        for count in [0usize, 1, 7, 8, 9, 64, 100] {
            let bits: Vec<bool> = (0..count).map(|i| i % 3 == 0).collect();
            let mut w = ByteWriter::new();
            w.put_bitmap(&bits);
            assert_eq!(w.len(), bitmap_len(count));
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_bitmap(count).unwrap(), bits);
            assert!(r.is_exhausted());
            if count > 0 {
                let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
                assert!(matches!(
                    r.get_bitmap(count),
                    Err(CodecError::Truncated { .. })
                ));
            }
        }
    }

    /// Bit-exact equality for `f64` vectors (`==` would miss NaN and `-0.0`).
    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "value {i}: {x} vs {y}");
        }
    }

    fn stream_round_trip(values: &[f64]) -> (u8, usize) {
        let mut w = ByteWriter::new();
        encode_f64_stream(&mut w, values);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_f64_stream(&mut r, values.len()).unwrap();
        assert!(r.is_exhausted());
        assert_bits_eq(&decoded, values);
        (bytes[0], bytes.len())
    }

    #[test]
    fn numeric_streams_round_trip_bit_exactly() {
        // Adversarial payloads must fall back to raw and round-trip bitwise.
        let (tag, _) = stream_round_trip(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -1.0e300,
            4.9e-324,
            f64::MAX,
        ]);
        assert_eq!(tag, NUM_RAW);

        // Integral columns compress: a narrow range picks frame-of-reference
        // over raw by a wide margin.
        let values: Vec<f64> = (0..1000).map(|i| 600.0 + (i % 13) as f64).collect();
        let (tag, len) = stream_round_trip(&values);
        assert_eq!(tag, NUM_FOR);
        assert!(len < 8 * values.len() / 4, "FoR stream is {len} bytes");

        // A monotone ramp with small steps is a delta win.
        let values: Vec<f64> = (0..1000).map(|i| 1.0e12 + (i as f64) * 3.0).collect();
        let (tag, len) = stream_round_trip(&values);
        assert_eq!(tag, NUM_DELTA, "stream of {len} bytes");

        // Edge shapes: empty, single value, constant column, i64 extremes.
        stream_round_trip(&[]);
        stream_round_trip(&[42.0]);
        stream_round_trip(&[7.0; 100]);
        stream_round_trip(&[i64::MIN as f64, 0.0, 9.2233720368547e18]);
    }

    #[test]
    fn numeric_stream_decode_rejects_corruption() {
        let values: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        let mut w = ByteWriter::new();
        encode_f64_stream(&mut w, &values);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], NUM_FOR);

        // Any truncation is detected.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_f64_stream(&mut r, values.len()).is_err());
        }
        // An impossible bit width (the byte after tag + 8-byte base).
        let mut corrupt = bytes.clone();
        corrupt[9] = 65;
        let mut r = ByteReader::new(&corrupt);
        assert!(matches!(
            decode_f64_stream(&mut r, values.len()),
            Err(CodecError::Invalid(_))
        ));
        // An unknown stream tag.
        let mut corrupt = bytes;
        corrupt[0] = 9;
        let mut r = ByteReader::new(&corrupt);
        assert!(matches!(
            decode_f64_stream(&mut r, values.len()),
            Err(CodecError::Invalid(_))
        ));
    }
}
