//! Tagged 64-bit words (`CasWord`), the unit of memory that DCSS, KCAS and
//! PathCAS operate on.
//!
//! Every field that may ever be modified by a multi-word operation must be a
//! [`CasWord`].  The low two bits of the raw word distinguish what it holds:
//!
//! | tag (bits 1..0) | meaning                                  |
//! |-----------------|------------------------------------------|
//! | `00`            | an application value, stored shifted left by two (62-bit payload) |
//! | `01`            | a KCAS / PathCAS descriptor reference (slot + seqno) |
//! | `10`            | a DCSS descriptor reference (slot + seqno) |
//! | `11`            | unused                                   |
//!
//! Descriptor words do not carry a pointer at all.  They encode the
//! index of a reusable per-thread descriptor *slot* (see [`crate::pool`])
//! together with the sequence number the slot had when the operation was
//! published:
//!
//! ```text
//! bits 63..14 : sequence number (50 bits, monotonically increasing per slot)
//! bits 13..2  : slot index into the global descriptor table (4096 slots)
//! bits  1..0  : tag (01 = KCAS slot, 10 = DCSS slot)
//! ```
//!
//! Because the sequence number is part of the word itself, a helper that
//! still holds a stale descriptor word after the slot has been recycled can
//! detect the recycling (the slot's current seqno no longer matches) and its
//! leftover CASes can never succeed (the stale word never reappears in shared
//! memory).  This is the Arbel-Raviv & Brown descriptor-reuse transformation
//! (DISC '17) that the paper applies; see DESIGN.md §3.
//!
//! This mirrors the `casword<T>` template of the paper's C++ implementation
//! (§4, footnote 5): application code only ever sees *decoded* values, and the
//! helping machinery is hidden behind [`crate::read`].

use crate::sync::{AtomicU64, Ordering};

/// Number of low bits reserved for tags.
pub const TAG_BITS: u32 = 2;
/// Mask selecting the tag bits.
pub const TAG_MASK: u64 = 0b11;
/// Tag value for a plain application value.
pub const TAG_VALUE: u64 = 0b00;
/// Tag value for a KCAS / PathCAS descriptor reference.
pub const TAG_KCAS: u64 = 0b01;
/// Tag value for a DCSS descriptor reference.
pub const TAG_DCSS: u64 = 0b10;

/// Number of bits encoding the slot index of a pooled descriptor word.
pub const SLOT_INDEX_BITS: u32 = 12;
/// Size of the global descriptor slot tables (one for KCAS, one for DCSS).
pub const MAX_POOL_SLOTS: usize = 1 << SLOT_INDEX_BITS;
/// Bit position where the sequence number starts in a pooled descriptor word.
const SEQ_SHIFT: u32 = TAG_BITS + SLOT_INDEX_BITS;
/// The largest sequence number a pooled descriptor word can carry (50 bits).
///
/// A slot publishing one operation every nanosecond would take ~36 years to
/// exhaust this, so wrap-around is not a practical concern.
pub const MAX_SEQ: u64 = (1u64 << (64 - SEQ_SHIFT)) - 1;

/// The largest application value that can be stored in a [`CasWord`]
/// (payloads are 62 bits wide).
pub const MAX_VALUE: u64 = (1u64 << 62) - 1;

/// Encode an application value into its raw tagged representation.
///
/// # Panics
/// Panics in debug builds if `v` exceeds [`MAX_VALUE`].
#[inline]
pub fn encode(v: u64) -> u64 {
    debug_assert!(v <= MAX_VALUE, "value {v} exceeds the 62-bit CasWord payload");
    v << TAG_BITS
}

/// Decode a raw tagged representation back into an application value.
///
/// # Panics
/// Panics in debug builds if `raw` is not value-tagged.
#[inline]
pub fn decode(raw: u64) -> u64 {
    debug_assert_eq!(raw & TAG_MASK, TAG_VALUE, "decoding a descriptor-tagged word");
    raw >> TAG_BITS
}

/// Returns `true` if the raw word holds a plain application value.
#[inline]
pub fn is_value(raw: u64) -> bool {
    raw & TAG_MASK == TAG_VALUE
}

/// Returns `true` if the raw word is a KCAS / PathCAS descriptor reference.
#[inline]
pub fn is_kcas_desc(raw: u64) -> bool {
    raw & TAG_MASK == TAG_KCAS
}

/// Returns `true` if the raw word is a DCSS descriptor reference.
#[inline]
pub fn is_dcss_desc(raw: u64) -> bool {
    raw & TAG_MASK == TAG_DCSS
}

/// Pack a pooled descriptor reference from a tag, slot index and seqno.
#[inline]
pub(crate) fn pack_pooled(tag: u64, slot: usize, seq: u64) -> u64 {
    debug_assert!(tag == TAG_KCAS || tag == TAG_DCSS);
    debug_assert!(slot < MAX_POOL_SLOTS, "slot index {slot} out of range");
    debug_assert!(seq <= MAX_SEQ, "sequence number overflow");
    (seq << SEQ_SHIFT) | ((slot as u64) << TAG_BITS) | tag
}

/// Slot index of a pooled descriptor word.
#[inline]
pub(crate) fn pooled_slot(raw: u64) -> usize {
    ((raw >> TAG_BITS) as usize) & (MAX_POOL_SLOTS - 1)
}

/// Sequence number of a pooled descriptor word.
#[inline]
pub(crate) fn pooled_seq(raw: u64) -> u64 {
    raw >> SEQ_SHIFT
}

/// A 64-bit shared memory word that can be read and modified by DCSS, KCAS
/// and PathCAS operations.
///
/// Application values stored in a `CasWord` are limited to 62 bits
/// ([`MAX_VALUE`]); this comfortably holds keys, values, version numbers,
/// heights and pointers on 64-bit platforms.
///
/// Reading a `CasWord` that might be concurrently modified by a multi-word
/// operation must go through [`crate::read`] (the paper's `KCASRead`), which
/// helps any in-flight operation it encounters.  Plain [`CasWord::load_raw`] is
/// only appropriate when the caller can tolerate (or wants to observe)
/// descriptor-tagged raw values.
#[repr(transparent)]
#[derive(Debug)]
pub struct CasWord(pub(crate) AtomicU64);

impl CasWord {
    /// Create a word holding the application value `v`.
    #[inline]
    pub fn new(v: u64) -> Self {
        CasWord(AtomicU64::new(encode(v)))
    }

    /// Load the raw tagged representation.
    #[inline]
    pub fn load_raw(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    /// The application value the word held at one relaxed load, or `None`
    /// while it holds a descriptor.  A *hint* for prefetching: it helps no
    /// operation, synchronizes with nothing and may be stale at once —
    /// [`crate::read`] is the read.
    #[inline]
    pub fn peek(&self) -> Option<u64> {
        // ORDERING: Relaxed — nothing is read through the result.
        let raw = self.0.load(Ordering::Relaxed);
        is_value(raw).then(|| decode(raw))
    }

    /// Load the word assuming it currently holds an application value.
    ///
    /// This is a convenience for quiescent (single-threaded) inspection, e.g.
    /// validation passes and statistics.  Concurrent readers must use
    /// [`crate::read`] instead.
    ///
    /// # Panics
    /// Panics if the word currently holds a descriptor pointer.
    #[inline]
    pub fn load_quiescent(&self) -> u64 {
        let raw = self.0.load(Ordering::SeqCst);
        assert!(is_value(raw), "load_quiescent observed a descriptor; the structure is not quiescent");
        decode(raw)
    }

    /// Store an application value. Only safe to use before the word is shared
    /// (e.g. while initialising a node) or during quiescent periods.
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(encode(v), Ordering::SeqCst);
    }

    /// Raw compare-and-swap on the tagged representation.
    #[inline]
    pub(crate) fn cas_raw(&self, expected: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }
}

impl Default for CasWord {
    fn default() -> Self {
        CasWord::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for v in [0u64, 1, 2, 1 << 20, MAX_VALUE] {
            assert_eq!(decode(encode(v)), v);
            assert!(is_value(encode(v)));
        }
    }

    #[test]
    fn tags_are_disjoint() {
        let k = pack_pooled(TAG_KCAS, 17, 99);
        let d = pack_pooled(TAG_DCSS, 17, 99);
        assert!(is_kcas_desc(k) && !is_dcss_desc(k) && !is_value(k));
        assert!(is_dcss_desc(d) && !is_kcas_desc(d) && !is_value(d));
    }

    #[test]
    fn pooled_words_roundtrip() {
        for (slot, seq) in [(0usize, 0u64), (1, 1), (4095, MAX_SEQ), (1234, 1 << 40)] {
            for tag in [TAG_KCAS, TAG_DCSS] {
                let raw = pack_pooled(tag, slot, seq);
                assert_eq!(pooled_slot(raw), slot);
                assert_eq!(pooled_seq(raw), seq);
                assert_eq!(raw & TAG_MASK, tag);
                assert!(!is_value(raw));
            }
        }
    }

    #[test]
    fn word_basic_ops() {
        let w = CasWord::new(42);
        assert_eq!(w.load_quiescent(), 42);
        w.store(7);
        assert_eq!(w.load_quiescent(), 7);
    }

    #[test]
    fn peek_sees_values_and_refuses_descriptors() {
        for v in [0u64, 1, MAX_VALUE] {
            assert_eq!(CasWord::new(v).peek(), Some(v));
        }
        for tag in [TAG_KCAS, TAG_DCSS] {
            let w = CasWord(AtomicU64::new(pack_pooled(tag, 17, 99)));
            assert_eq!(w.peek(), None, "tag {tag:#b}");
        }
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(CasWord::default().load_quiescent(), 0);
    }
}
