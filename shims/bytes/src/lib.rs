//! In-tree, dependency-free replacement for the subset of the [`bytes`]
//! crate this workspace uses: cheaply-cloneable immutable [`Bytes`]
//! views, a growable [`BytesMut`] builder, and the [`Buf`]/[`BufMut`]
//! cursor traits (big-endian accessors only — the wire codec is
//! big-endian throughout).
//!
//! The build environment has no network access, so external crates are
//! replaced by shims that keep the public surface source-compatible.
//!
//! # Cost model
//!
//! A [`Bytes`] is a shared owned buffer (`Arc<Vec<u8>>`) plus a range, so
//! these take ownership or share storage and never copy the contents:
//!
//! * `Bytes::from(Vec<u8>)`, `Bytes::from(Box<[u8]>)`, `Bytes::from(String)`
//!   and [`BytesMut::freeze`];
//! * `clone`, [`Bytes::slice`], [`Bytes::split_to`] and [`Buf::advance`];
//! * [`Bytes::new`] and `Bytes::default()`, which share one empty buffer
//!   and do not allocate after the first call.
//!
//! These copy the contents into a fresh allocation:
//!
//! * [`Bytes::copy_from_slice`] and [`Bytes::to_vec`], as in the real crate;
//! * [`Bytes::from_static`], `From<&'static [u8]>` and `From<&'static str>`.
//!   **This differs from the real crate**, which borrows the static slice.
//!   No hot path builds `Bytes` from statics, so the shim keeps one
//!   storage representation instead of two.
//!
//! [`bytes`]: https://docs.rs/bytes

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheaply cloneable, contiguous, immutable slice of memory.
///
/// Clones share the same backing allocation; [`Bytes::slice`] and
/// [`Bytes::split_to`] produce zero-copy sub-views.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty `Bytes`. Every empty `Bytes` made here shares one
    /// buffer, so this does not allocate.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
        Bytes {
            data: Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))),
            start: 0,
            end: 0,
        }
    }

    /// A `Bytes` holding the contents of a static slice.
    ///
    /// Unlike the real crate, this copies `bytes` into a fresh buffer.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copy `data` into a fresh `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view over `range` (indices relative to this view).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice out of bounds: {lo}..{hi} of {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(
            at <= self.len(),
            "split_to out of bounds: {at} of {}",
            self.len()
        );
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Copy the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Takes ownership of the vector's buffer; the contents are not copied.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end: len,
        }
    }
}

/// Takes ownership of the boxed buffer; the contents are not copied.
impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(Vec::from(v))
    }
}

/// Copies the slice (see [`Bytes::from_static`]).
impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

/// Copies the string (see [`Bytes::from_static`]).
impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer; freeze into an immutable [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// New empty buffer with `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clear contents, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend)
    }

    /// Convert into an immutable [`Bytes`], taking over the buffer
    /// without copying it.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", &self.buf)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter)
    }
}

/// Read cursor over a contiguous byte source. Integer reads are
/// big-endian, matching the wire codec.
///
/// Panics on underflow, like the real crate.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Read a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }

    /// Copy `dst.len()` bytes out, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "advance out of bounds: {cnt} of {}",
            self.len()
        );
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor appending to a growable byte sink. Integer writes are
/// big-endian, matching the wire codec.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut b = BytesMut::new();
        b.put_u8(0xab);
        b.put_u16(0x1234);
        b.put_u32(0xdead_beef);
        b.put_u64(0x0102_0304_0506_0708);
        let mut r = b.freeze();
        assert_eq!(r.len(), 15);
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xdead_beef);
        assert_eq!(r.get_u64(), 0x0102_0304_0506_0708);
        assert!(!r.has_remaining());
    }

    #[test]
    fn slice_and_split_share_storage() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[0, 1, 2, 3, 4, 5]);
        let b = m.freeze();
        let base = b.as_ptr();
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), base.wrapping_add(2));
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(rest.as_ptr(), base.wrapping_add(2));
        assert_eq!(b.len(), 6, "original untouched");
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::from(vec![0, 1, 2, 3]).slice(1..);
        assert_eq!(a, b);
    }

    #[test]
    fn from_vec_and_box_keep_the_buffer() {
        let v = vec![1u8, 2, 3, 4];
        let p = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), p);
        let b: Box<[u8]> = vec![5u8, 6, 7].into_boxed_slice();
        let p = b.as_ptr();
        assert_eq!(Bytes::from(b).as_ptr(), p);
        let s = String::from("demos");
        let p = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), p);
    }

    #[test]
    fn freeze_keeps_the_buffer() {
        let mut m = BytesMut::with_capacity(64);
        m.put_u64(0x0102_0304_0506_0708);
        m.put_slice(&[9; 24]);
        let p = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), p);
        assert_eq!(b.clone().as_ptr(), p, "clone shares");
    }

    #[test]
    fn empty_bytes_share_storage() {
        let (a, b) = (Bytes::new(), Bytes::default());
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert!(a.is_empty());
    }

    #[test]
    fn bytes_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Bytes>();
        check::<BytesMut>();
    }

    #[test]
    fn debug_is_printable() {
        let b = Bytes::from_static(b"ok\x01");
        assert_eq!(format!("{b:?}"), "b\"ok\\x01\"");
    }
}
