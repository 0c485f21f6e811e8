//! Compact binary wire codec.
//!
//! Every RPC payload in the system is encoded to bytes before it crosses the
//! [`crate::Network`], for two reasons: (1) it enforces the paper's
//! share-nothing deployment model — a node cannot accidentally hand another
//! node a live reference — and (2) it gives every message a concrete size in
//! bytes, which the simulated latency model charges against link bandwidth.
//!
//! The format is deliberately simple and self-describing only by position
//! (like XDR, which Sun RPC/NFS used): fixed-width little-endian integers,
//! length-prefixed byte strings, `u8` tags for options and enums. All types
//! round-trip exactly; property tests in each crate verify this for their
//! message sets.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Error returned when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum/option tag byte had an unknown value.
    BadTag(u8),
    /// A length prefix exceeded the sanity limit or remaining buffer.
    BadLength(u64),
    /// A byte string that must be UTF-8 was not.
    BadUtf8,
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encoder over a growable byte buffer.
pub struct Writer {
    buf: BytesMut,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// New empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer {
            buf: BytesMut::with_capacity(64),
        }
    }

    /// New writer with a capacity hint for large payloads (e.g. WRITE data).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Finishes encoding and returns the buffer as it stands (no copy).
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Appends a single raw byte (enum/option tag).
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.put_u128_le(v);
    }

    /// Appends a `bool` as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.buf.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string. If the buffer has to grow
    /// for it, it grows once, to fit the prefix, the string and
    /// [`PAYLOAD_TAIL`] more bytes: a 128 KiB payload must not grow the
    /// frame by doubling, nor may the flag byte that follows it.
    pub fn bytes(&mut self, v: &[u8]) {
        let need = 4 + v.len();
        if self.buf.capacity() - self.buf.len() < need {
            self.buf.reserve(need + PAYLOAD_TAIL);
        }
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends any encodable value.
    pub fn value<T: WireWrite>(&mut self, v: &T) {
        v.write(self);
    }

    /// Appends an `Option` as a tag byte plus the value if present.
    pub fn option<T: WireWrite>(&mut self, v: &Option<T>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                x.write(self);
            }
        }
    }

    /// Appends a `u32`-count-prefixed sequence.
    pub fn seq<T: WireWrite>(&mut self, items: &[T]) {
        self.u32(items.len() as u32);
        for it in items {
            it.write(self);
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Spare room [`Writer::bytes`] leaves behind a byte string it had to
/// grow for, enough for the few fixed-width fields that follow a payload
/// in any message.
const PAYLOAD_TAIL: usize = 16;

/// Upper bound on any single length prefix; guards against corrupt frames
/// allocating unbounded memory. 64 MiB comfortably exceeds the largest NFS
/// WRITE payload the system produces.
const MAX_LEN: u64 = 64 << 20;

/// Decoder over a byte slice, or over a refcounted frame (see
/// [`Reader::over`]) whose payload fields it can hand out as views.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The frame `buf` is the unread tail of, when there is one.
    frame: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// New reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, frame: None }
    }

    /// New reader over a whole received frame: [`Reader::payload`] then
    /// returns views of `frame` instead of copies.
    #[must_use]
    pub fn over(frame: &'a Bytes) -> Self {
        Reader {
            buf: frame,
            frame: Some(frame),
        }
    }

    /// Number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        self.need(16)?;
        Ok(self.buf.get_u128_le())
    }

    /// Reads a `bool` byte (strictly 0 or 1).
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a length-prefixed byte string in place, after checking the
    /// prefix against [`MAX_LEN`] and the bytes that are left.
    fn byte_string(&mut self) -> Result<&'a [u8], WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        let len = len as usize;
        self.need(len)?;
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.byte_string()?.to_vec())
    }

    /// Reads a length-prefixed payload field: a view of the frame when
    /// the reader was built with [`Reader::over`], one copy otherwise.
    /// A view keeps the whole frame alive, so this is for READ/WRITE
    /// data, not for names and other small fields.
    pub fn payload(&mut self) -> Result<Bytes, WireError> {
        let data = self.byte_string()?;
        Ok(match self.frame {
            Some(frame) => {
                let end = frame.len() - self.buf.len();
                frame.slice(end - data.len()..end)
            }
            None => Bytes::copy_from_slice(data),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads any decodable value.
    pub fn value<T: WireRead>(&mut self) -> Result<T, WireError> {
        T::read(self)
    }

    /// Reads an `Option` (tag byte plus value).
    pub fn option<T: WireRead>(&mut self) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::read(self)?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a `u32`-count-prefixed sequence.
    pub fn seq<T: WireRead>(&mut self) -> Result<Vec<T>, WireError> {
        let n = self.u32()? as usize;
        if n as u64 > MAX_LEN {
            return Err(WireError::BadLength(n as u64));
        }
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(T::read(self)?);
        }
        Ok(v)
    }
}

/// Types that can encode themselves onto a [`Writer`].
pub trait WireWrite {
    /// Appends this value's encoding to `w`.
    fn write(&self, w: &mut Writer);

    /// One-shot encode into a fresh buffer.
    fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.write(&mut w);
        w.finish()
    }
}

/// Types that can decode themselves from a [`Reader`].
pub trait WireRead: Sized {
    /// Reads one value from `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// One-shot decode requiring the buffer to be fully consumed.
    fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    /// [`WireRead::decode`] of a whole refcounted frame: payload fields
    /// of the value are views of `frame`, not copies.
    fn decode_frame(frame: &Bytes) -> Result<Self, WireError> {
        let mut r = Reader::over(frame);
        let v = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

macro_rules! impl_wire_int {
    ($t:ty, $wm:ident, $rm:ident) => {
        impl WireWrite for $t {
            fn write(&self, w: &mut Writer) {
                w.$wm(*self);
            }
        }
        impl WireRead for $t {
            fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$rm()
            }
        }
    };
}

impl_wire_int!(u8, u8, u8);
impl_wire_int!(u16, u16, u16);
impl_wire_int!(u32, u32, u32);
impl_wire_int!(u64, u64, u64);
impl_wire_int!(u128, u128, u128);

impl WireWrite for bool {
    fn write(&self, w: &mut Writer) {
        w.boolean(*self);
    }
}
impl WireRead for bool {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.boolean()
    }
}

impl WireWrite for String {
    fn write(&self, w: &mut Writer) {
        w.string(self);
    }
}
impl WireRead for String {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl WireWrite for Vec<u8> {
    fn write(&self, w: &mut Writer) {
        w.bytes(self);
    }
}
impl WireRead for Vec<u8> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.bytes()
    }
}

impl<T: WireWrite> WireWrite for Option<T> {
    fn write(&self, w: &mut Writer) {
        w.option(self);
    }
}
impl<T: WireRead> WireRead for Option<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.option()
    }
}

impl WireWrite for kosha_id::Id {
    fn write(&self, w: &mut Writer) {
        w.u128(self.0);
    }
}
impl WireRead for kosha_id::Id {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(kosha_id::Id(r.u128()?))
    }
}

impl<A: WireWrite, B: WireWrite> WireWrite for (A, B) {
    fn write(&self, w: &mut Writer) {
        self.0.write(w);
        self.1.write(w);
    }
}
impl<A: WireRead, B: WireRead> WireRead for (A, B) {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(1 << 20);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        w.boolean(true);
        w.string("héllo");
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 1 << 20);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert!(r.boolean().unwrap());
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_fails() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_tag() {
        let buf = [3u8];
        let mut r = Reader::new(&buf);
        assert_eq!(r.boolean(), Err(WireError::BadTag(3)));
    }

    #[test]
    fn option_and_seq() {
        let mut w = Writer::new();
        w.option(&Some(9u32));
        w.option::<u32>(&None);
        w.seq(&[1u64, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.option::<u32>().unwrap(), Some(9));
        assert_eq!(r.option::<u32>().unwrap(), None);
        assert_eq!(r.seq::<u64>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let buf = w.finish();
        assert!(matches!(u8::decode(&buf), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // length prefix far beyond MAX_LEN
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn payload_is_a_view_over_a_frame_and_a_copy_otherwise() {
        let mut w = Writer::new();
        w.string("name");
        w.bytes(&[7u8; 300]);
        w.boolean(true);
        let frame = w.finish();

        let mut over = Reader::over(&frame);
        assert_eq!(over.string().unwrap(), "name");
        let view = over.payload().unwrap();
        assert!(over.boolean().unwrap());
        over.expect_end().unwrap();
        // 4 + 4 bytes of name, 4 of length prefix, then the payload.
        assert_eq!(view.as_ptr(), frame[12..].as_ptr());

        let mut plain = Reader::new(&frame);
        assert_eq!(plain.string().unwrap(), "name");
        let copy = plain.payload().unwrap();
        assert!(plain.boolean().unwrap());
        assert_eq!(copy, view);
        assert_ne!(copy.as_ptr(), view.as_ptr());
    }

    #[test]
    fn payload_checks_length_like_bytes() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let huge = w.finish();
        let mut w = Writer::new();
        w.u32(10);
        w.u8(1);
        let short = w.finish();
        for (frame, want) in [
            (&huge, WireError::BadLength(u64::from(u32::MAX))),
            (&short, WireError::Truncated),
        ] {
            assert_eq!(Reader::over(frame).payload(), Err(want.clone()));
            assert_eq!(Reader::new(frame).payload(), Err(want.clone()));
            assert_eq!(Reader::new(frame).bytes(), Err(want));
        }
    }

    #[test]
    fn a_payload_does_not_double_the_frame() {
        // 128 KiB payload followed by a flag byte (the READ reply): the
        // frame is allocated once, with the tail already in it.
        let payload = vec![3u8; 128 * 1024];
        let mut w = Writer::new();
        w.u8(5);
        w.bytes(&payload);
        let at = w.buf.as_ptr();
        w.boolean(true);
        assert_eq!(w.buf.as_ptr(), at);
        assert_eq!(w.len(), 1 + 4 + payload.len() + 1);
    }

    #[test]
    fn id_round_trips() {
        let id = kosha_id::Id(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let buf = id.encode();
        assert_eq!(kosha_id::Id::decode(&buf).unwrap(), id);
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.string(), Err(WireError::BadUtf8));
    }
}
