//! Vendored stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the subset it uses: a cheaply-cloneable immutable [`Bytes`]
//! and the [`Buf`] / [`BufMut`] traits with the little-endian accessors
//! the wire codec relies on (it writes into a `Vec<u8>`).
//!
//! [`Bytes`] is a refcounted *view*: a shared owner plus a byte range.
//! `clone` and [`Bytes::slice`] bump the refcount and copy nothing, and
//! `From<Vec<u8>>` adopts the vector's allocation as it is, so an
//! encoded frame is written once and every payload decoded out of it is
//! a view of that one buffer (DESIGN.md §18).
//!
//! What a view pins: its whole owner, however small its range, until the
//! last view of that owner is dropped. That is why only payload fields
//! are decoded as views, and why a holder that keeps bytes for long (the
//! store keeps file content as a `Bytes`) keeps only *whole* views
//! ([`Bytes::is_whole`]: the range is all of the owner, so it pins its
//! own length and nothing more) and copies a piece instead. A payload
//! that travels beside its frame (the wire codec's two-piece holding) is
//! its own owner, hence whole: it pins the payload, not the frames it
//! passed through. The empty buffer has no owner and allocates nothing.
//!
//! A view is immutable for as long as anyone else can see the owner:
//! [`Bytes::with_unique`] lends the owner's vector out for change only
//! to a whole view that is the owner's one handle. Equality, ordering,
//! hashing and `Debug` go by content, never by owner.
//!
//! An owner is one of two kinds. A vector adopted by `From<Vec<u8>>`
//! costs its own allocation plus the `Arc` around it, and is the only
//! kind `with_unique` can lend out to grow. A buffer made by
//! `From<Arc<[u8]>>` is one allocation, refcount and bytes together:
//! what the wire codec makes of a message head, which nobody grows.
//!
//! Two deliberate additions to the published API: `Bytes` compares with
//! byte arrays, so `assert_eq!(bytes, b"literal")` works in tests, and
//! `From<Arc<[u8]>>` adopts a one-allocation buffer.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Immutable, cheaply-cloneable view of a shared byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` only for the empty buffer, which then needs no allocation.
    owner: Option<Owner>,
    start: usize,
    end: usize,
}

/// What a [`Bytes`] view shares (see the crate docs).
#[derive(Clone)]
enum Owner {
    /// An adopted vector: the kind [`Bytes::with_unique`] lends out.
    Vec(Arc<Vec<u8>>),
    /// One allocation holding the refcount and the bytes.
    Slice(Arc<[u8]>),
}

impl Owner {
    fn bytes(&self) -> &[u8] {
        match self {
            Owner::Vec(v) => v,
            Owner::Slice(s) => s,
        }
    }
}

impl Bytes {
    /// Empty buffer; allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into a new buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a `Vec<u8>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A view of `range` (relative to this view) sharing the same owner;
    /// nothing is copied.
    ///
    /// # Panics
    /// If the range is decreasing or reaches past the end of this view.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let from = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let to = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            from <= to && to <= len,
            "slice {from}..{to} out of range for Bytes of length {len}"
        );
        Bytes {
            owner: self.owner.clone(),
            start: self.start + from,
            end: self.start + to,
        }
    }

    /// True when this view covers all of its owner, so that holding it
    /// pins `len()` bytes and nothing more. The empty buffer is whole.
    #[must_use]
    pub fn is_whole(&self) -> bool {
        self.owner
            .as_ref()
            .is_none_or(|owner| self.start == 0 && self.end == owner.bytes().len())
    }

    /// True when this handle is whole and its owner is an adopted
    /// vector and has no other handle: what [`Bytes::with_unique`] asks
    /// before it lends the vector out. The owner-less empty buffer is not
    /// unique.
    #[must_use]
    pub fn is_unique(&self) -> bool {
        self.is_whole()
            && matches!(&self.owner, Some(Owner::Vec(v))
                if Arc::strong_count(v) == 1 && Arc::weak_count(v) == 0)
    }

    /// Runs `f` on the owner's vector if this handle is whole and the
    /// owner's only one, so nobody can watch the bytes change; `None`, and
    /// `f` not run, otherwise (the owner-less empty buffer and a
    /// one-allocation owner included). `f` may resize the vector: the
    /// view is whatever it leaves.
    pub fn with_unique<R>(&mut self, f: impl FnOnce(&mut Vec<u8>) -> R) -> Option<R> {
        if !self.is_whole() {
            return None;
        }
        let Some(Owner::Vec(owner)) = self.owner.as_mut() else {
            return None;
        };
        let vec = Arc::get_mut(owner)?;
        let result = f(vec);
        self.end = vec.len();
        if self.end == 0 {
            self.owner = None;
        }
        Some(result)
    }

    fn as_slice(&self) -> &[u8] {
        match &self.owner {
            Some(owner) => &owner.bytes()[self.start..self.end],
            None => &[],
        }
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

impl From<Vec<u8>> for Bytes {
    /// Adopts `v`'s allocation; no bytes move. An empty `v` is dropped
    /// for the owner-less empty buffer.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = v.len();
        Bytes {
            owner: Some(Owner::Vec(Arc::new(v))),
            start: 0,
            end,
        }
    }
}

impl From<Arc<[u8]>> for Bytes {
    /// Adopts `s` as it is; no bytes move. The view can never be lent
    /// out by [`Bytes::with_unique`].
    fn from(s: Arc<[u8]>) -> Self {
        if s.is_empty() {
            return Bytes::new();
        }
        let end = s.len();
        Bytes {
            owner: Some(Owner::Slice(s)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<T: ?Sized> PartialEq<&T> for Bytes
where
    Bytes: PartialEq<T>,
{
    fn eq(&self, other: &&T) -> bool {
        *self == **other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Read cursor over a byte source (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;
    /// Advances past `cnt` bytes.
    fn advance(&mut self, cnt: usize);
    /// Copies `dst.len()` bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Reads a little-endian `u128`.
    fn get_u128_le(&mut self) -> u128 {
        let mut b = [0u8; 16];
        self.copy_to_slice(&mut b);
        u128::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Write sink for bytes (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u128`.
    fn put_u128_le(&mut self, v: u128) {
        self.put_slice(&v.to_le_bytes());
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
    fn round_trip_le() {
        let mut m = Vec::with_capacity(8);
        m.put_u8(7);
        m.put_u16_le(300);
        m.put_u32_le(1 << 20);
        m.put_u64_le(u64::MAX);
        m.put_u128_le(42);
        m.put_slice(b"xy");
        let b = Bytes::from(m);
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 300);
        assert_eq!(r.get_u32_le(), 1 << 20);
        assert_eq!(r.get_u64_le(), u64::MAX);
        assert_eq!(r.get_u128_le(), 42);
        let mut out = [0u8; 2];
        r.copy_to_slice(&mut out);
        assert_eq!(&out, b"xy");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.clone().as_ptr(), ptr);

        let mut m = Vec::with_capacity(16);
        m.put_slice(b"frame");
        let ptr = m.as_ptr();
        assert_eq!(Bytes::from(m).as_ptr(), ptr);
    }

    #[test]
    fn slice_is_a_view_with_checked_bounds() {
        let b = Bytes::from(b"0123456789".to_vec());
        let mid = b.slice(2..8);
        assert_eq!(mid, b"234567");
        assert_eq!(mid.as_ptr(), b[2..].as_ptr());
        // Ranges are relative to the view, not to the owner.
        let inner = mid.slice(1..=2);
        assert_eq!(inner, b"34");
        assert_eq!(inner.as_ptr(), b[3..].as_ptr());
        assert_eq!(mid.slice(..), mid);
        assert_eq!(mid.slice(6..), b"");
        assert!(mid.slice(3..3).is_empty());
        // The view outlives the handle it was cut from.
        drop(b);
        assert_eq!(inner.to_vec(), b"34");

        for bad in [(0usize, 7usize), (7, 7), (4, 3)] {
            let mid = mid.clone();
            let caught = std::panic::catch_unwind(move || mid.slice(bad.0..bad.1));
            assert!(caught.is_err(), "slice {bad:?} of a 6-byte view");
        }
    }

    #[test]
    fn whole_means_the_view_pins_only_itself() {
        let b = Bytes::from(b"0123456789".to_vec());
        assert!(b.is_whole());
        assert!(b.clone().is_whole());
        assert!(b.slice(..).is_whole());
        assert!(!b.slice(1..).is_whole());
        assert!(!b.slice(..9).is_whole());
        // An empty piece of an owner still pins it; the owner-less empty
        // buffer pins nothing.
        assert!(!b.slice(3..3).is_whole());
        assert!(Bytes::new().is_whole());
        assert!(Bytes::from(Vec::new()).is_whole());
    }

    #[test]
    fn with_unique_needs_a_whole_view_and_no_other_holder() {
        let mut b = Bytes::from(b"0123456789".to_vec());
        let ptr = b.as_ptr();
        assert!(b.is_unique());
        assert_eq!(b.with_unique(|v| v[0] = b'x'), Some(()));
        assert_eq!(b, b"x123456789");
        assert_eq!(b.as_ptr(), ptr);

        // Another handle, however small its range, forbids it, and the
        // closure does not run.
        let other = b.slice(4..5);
        assert!(!b.is_unique());
        assert_eq!(b.with_unique(|_| unreachable!()), None::<()>);
        // So does being a piece, even the only handle left.
        let mut piece = other;
        assert_eq!(b.with_unique(|_| unreachable!()), None::<()>);
        assert_eq!(piece.with_unique(|_| unreachable!()), None::<()>);
        assert!(!piece.is_unique());
        drop(piece);
        assert!(b.is_unique());
        assert_eq!(b.with_unique(|v| v.len()), Some(10));
        assert_eq!(Bytes::new().with_unique(|_| unreachable!()), None::<()>);
        assert!(!Bytes::new().is_unique());
    }

    #[test]
    fn with_unique_may_resize_and_the_view_follows() {
        let mut b = Bytes::from(b"abc".to_vec());
        b.with_unique(|v| v.extend_from_slice(b"def")).unwrap();
        assert_eq!(b, b"abcdef");
        assert!(b.is_whole());
        b.with_unique(|v| v.truncate(2)).unwrap();
        assert_eq!(b, b"ab");
        assert_eq!(b.len(), 2);
        // Emptied, it is the owner-less empty buffer again.
        b.with_unique(Vec::clear).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.with_unique(|_| unreachable!()), None::<()>);
    }

    #[test]
    fn a_one_allocation_owner_is_a_view_like_any_other_but_never_lent() {
        let shared: Arc<[u8]> = Arc::from(&b"0123456789"[..]);
        let ptr = shared.as_ptr();
        let mut b = Bytes::from(shared);
        assert_eq!(b.as_ptr(), ptr);
        assert!(b.is_whole());
        assert_eq!(b.slice(2..4), b"23");
        assert_eq!(b.slice(2..4).as_ptr(), b[2..].as_ptr());
        assert_eq!(b, Bytes::copy_from_slice(b"0123456789"));
        assert!(!b.is_unique());
        assert_eq!(b.with_unique(|_| unreachable!()), None::<()>);
        assert!(Bytes::from(Arc::<[u8]>::from(&b""[..])).is_whole());
    }

    #[test]
    fn eq_ord_hash_and_debug_go_by_content() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        // Same content, different owners and different offsets.
        let whole = Bytes::copy_from_slice(b"abc");
        let view = Bytes::from(b"xxabcxx".to_vec()).slice(2..5);
        assert_eq!(whole, view);
        assert_eq!(hash(&whole), hash(&view));
        assert_eq!(whole.cmp(&view), Ordering::Equal);
        assert_eq!(format!("{whole:?}"), format!("{view:?}"));
        assert_eq!(format!("{view:?}"), "b\"abc\"");

        let bigger = Bytes::copy_from_slice(b"abd");
        assert_ne!(view, bigger);
        assert!(view < bigger);
        assert!(Bytes::new() < view);

        assert_eq!(view, b"abc"[..]);
        assert_eq!(view, b"abc".to_vec());
        assert_eq!(view, *b"abc");
    }

    #[test]
    fn bytes_clone_is_cheap_and_equal() {
        let b = Bytes::copy_from_slice(b"hello");
        let c = b.clone();
        assert_eq!(&*b, &*c);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert!(Bytes::new().is_empty());
    }
}
