//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes)
//! crate, providing exactly what `stargemm-net`'s wire format needs:
//!
//! * [`BytesMut`] — a growable write buffer with [`BufMut`] put-accessors,
//! * [`Bytes`] — a cheaply-cloneable, reference-counted read view whose
//!   [`Buf`] get-accessors consume from the front.
//!
//! Semantics match the real crate for this surface: `freeze()` converts
//! writer → shared reader without copying (the reader holds the very
//! buffer the writer filled); `len()`/`chunk()` report the *remaining*
//! (unconsumed) bytes; the `get_*`/`put_*` accessors are little-endian.
//!
//! Bulk payloads go through slices, not per-scalar calls: a writer
//! [`resize`](BytesMut::resize)s and fills the new tail through
//! `DerefMut<Target = [u8]>`; a reader converts a checked prefix of
//! [`chunk()`](Buf::chunk) and [`advance`](Buf::advance)s past it. The
//! per-scalar accessors are for headers.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read access that consumes from the front of a buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes as a slice.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write access that appends to the back of a buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Growable, uniquely-owned write buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Resizes the buffer to `new_len` bytes, filling any new tail with
    /// `value` (to be overwritten in bulk through `DerefMut`).
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Converts into an immutable, cheaply-cloneable [`Bytes`] over the
    /// same allocation: nothing is copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Shared immutable byte buffer with a read cursor.
///
/// Cloning shares the underlying allocation (each clone has its own
/// cursor), so passing an encoded message to several readers is cheap.
#[derive(Clone, Debug)]
pub struct Bytes {
    /// The buffer as its writer left it (an `Arc<[u8]>` would copy it
    /// out of the `Vec` on every `freeze`).
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Unconsumed bytes remaining.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.pos += cnt;
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.chunk() == other.chunk()
    }
}

impl Eq for Bytes {}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.chunk()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: Arc::new(v),
            pos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_accessors() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_f64_le(-1.5);
        let mut r = w.freeze();
        assert_eq!(r.len(), 1 + 4 + 8 + 8);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64_le(), -1.5);
        assert!(r.is_empty());
    }

    #[test]
    fn freeze_keeps_the_writers_buffer() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u64_le(1);
        w.put_u64_le(2);
        let written = w.as_ptr();
        let mut a = w.freeze();
        assert_eq!(a.chunk().as_ptr(), written, "freeze must not copy");
        // Clones share that buffer and still read independently.
        let mut b = a.clone();
        assert_eq!(b.chunk().as_ptr(), written);
        assert_eq!(a.get_u64_le(), 1);
        assert_eq!(b.get_u64_le(), 1);
        assert_eq!(a.get_u64_le(), 2);
        assert_eq!(b.remaining(), 8);
    }

    #[test]
    fn bulk_tail_is_written_and_read_through_slices() {
        let mut w = BytesMut::with_capacity(1 + 16);
        w.put_u8(9);
        let at = w.len();
        w.resize(at + 16, 0);
        for (dst, x) in w[at..].chunks_exact_mut(8).zip([1.5f64, -2.25]) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 9);
        let got: Vec<f64> = r.chunk()[..16]
            .chunks_exact(8)
            .map(|raw| f64::from_le_bytes(raw.try_into().unwrap()))
            .collect();
        r.advance(16);
        assert_eq!(got, [1.5, -2.25]);
        assert!(r.is_empty());
    }

    #[test]
    fn clones_have_independent_cursors() {
        let mut w = BytesMut::new();
        w.put_u32_le(1);
        w.put_u32_le(2);
        let mut a = w.freeze();
        let mut b = a.clone();
        assert_eq!(a.get_u32_le(), 1);
        assert_eq!(b.get_u32_le(), 1);
        assert_eq!(a.get_u32_le(), 2);
        assert_eq!(b.get_u32_le(), 2);
    }
}
