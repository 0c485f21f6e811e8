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
//!
//! As NFSv3 is declared in XDR and its marshalling generated from that,
//! a message here is declared once, with [`wire_enum!`](crate::wire_enum)
//! or [`wire_struct!`](crate::wire_struct): the type, its tags, its
//! labels and both codec directions come from the one declaration, and a
//! field's type is its codec ([`WireWrite`] / [`WireRead`]). This module
//! writes by hand only what the declarations bottom out in: integers,
//! `bool`, `String`, [`Bytes`] (a payload field, below), `Vec<T>`,
//! `Option<T>`, pairs and [`kosha_id::Id`]. DESIGN.md §18 lists the few
//! codecs written by hand elsewhere, each with its reason;
//! `crates/core/tests/wire_golden.rs` pins the bytes of all of them.
//!
//! An encoded message can be held in two ways, the way `writev` and the
//! kernel's `xdr_buf` (head, pages, tail) hold one. *Flat* is one
//! contiguous buffer. *Split* is a [`Frame`]: a head of a few dozen bytes
//! plus one [`PayloadPart`], the READ or WRITE data as a refcounted view
//! and the offset in the head where it belongs, so that
//! `body[..at] ++ payload ++ body[at..]` is byte for byte the flat
//! encoding. A hop that only changes the message around a payload
//! (`NfsRequest::Write` → `ControlRequest::Mutate` → `ReplicaApply`, both of
//! one `ReplicaOp::Write`, or
//! koshad handing on the store's READ reply) encodes a new head and bumps
//! a refcount; no payload byte moves (DESIGN.md §18). The holding is the
//! encoder's and the decoder's business only: each message has one
//! [`WireWrite::write`] and one [`WireRead::read`], which reach
//! [`Writer::payload`] and [`Reader::payload`] through a [`Bytes`] field
//! and never learn which holding they serve.

use bytes::{Buf, BufMut, Bytes};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

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
    /// The payload part of a two-piece frame was never decoded: no
    /// payload field's length prefix ends at the offset it claims.
    StrayPayload(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::StrayPayload(at) => write!(f, "no payload field at offset {at}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A payload held beside the head of a two-piece [`Frame`].
#[derive(Debug, Clone)]
pub struct PayloadPart {
    /// Offset in the head at which `data` belongs: its length prefix is
    /// the four head bytes before `at`.
    pub at: usize,
    /// The payload bytes, shared with whoever decoded or produced them.
    pub data: Bytes,
}

/// A borrowed encoded message in either holding: flat when `payload` is
/// `None`, split otherwise (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The whole message when flat, the head when split.
    pub body: &'a Bytes,
    /// The part held beside the head, if any.
    pub payload: Option<&'a PayloadPart>,
}

impl<'a> Frame<'a> {
    /// A flat frame over `body`.
    #[must_use]
    pub fn flat(body: &'a Bytes) -> Self {
        Frame {
            body,
            payload: None,
        }
    }

    /// Length of the flat encoding.
    #[must_use]
    pub fn len(&self) -> usize {
        self.body.len() + self.payload.map_or(0, |p| p.data.len())
    }

    /// True if the flat encoding is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat encoding: the body itself when there is no part (nothing
    /// is copied), otherwise one new buffer with the part spliced in. A
    /// part placed past the end of the head is appended; such a frame
    /// decodes to an error in either holding.
    #[must_use]
    pub fn flatten(&self) -> Bytes {
        match self.payload {
            None => self.body.clone(),
            Some(part) => splice(self.body, part),
        }
    }
}

/// `head[..at] ++ part ++ head[at..]` in one new buffer, the part
/// appended if `at` lies past the end of the head.
fn splice(head: &[u8], part: &PayloadPart) -> Bytes {
    let (before, after) = head.split_at(part.at.min(head.len()));
    let mut flat = Vec::with_capacity(head.len() + part.data.len());
    flat.extend_from_slice(before);
    flat.extend_from_slice(&part.data);
    flat.extend_from_slice(after);
    flat.into()
}

/// Encoder over a growable byte buffer.
///
/// A message costs one allocation: a writer encodes into its thread's
/// scratch buffer and [`Writer::finish`] copies the few dozen bytes of a
/// head into one new owner, refcount and bytes together, then hands the
/// buffer on to the thread's next writer. A buffer grown past
/// [`SCRATCH_KEEP`] for a copied-in payload is not copied again: it
/// becomes the message's owner as it is.
pub struct Writer {
    buf: Vec<u8>,
    /// Whether [`Writer::payload`] may keep a view instead of copying.
    splitting: bool,
    /// The one payload kept beside `buf`.
    part: Option<PayloadPart>,
}

thread_local! {
    /// The buffer the thread's next [`Writer`] encodes into. A writer
    /// made while another is open finds it empty and makes its own.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Room a writer's first buffer on a thread starts with: more than most
/// heads need.
const SCRATCH_ROOM: usize = 256;

/// The largest buffer a finished writer copies out of and keeps for the
/// next one; past it the buffer is the message's owner.
const SCRATCH_KEEP: usize = 4096;

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Writer {
    /// Hands the buffer back to the thread for its next writer.
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() != 0 && buf.capacity() <= SCRATCH_KEEP {
            // A thread being torn down has no buffer to keep it in.
            let _ = SCRATCH.try_with(|s| s.set(buf));
        }
    }
}

impl Writer {
    /// New empty writer.
    #[must_use]
    pub fn new() -> Self {
        let mut buf = SCRATCH.try_with(Cell::take).unwrap_or_default();
        buf.clear();
        buf.reserve(SCRATCH_ROOM);
        Writer {
            buf,
            splitting: false,
            part: None,
        }
    }

    /// New writer that holds the first payload field it is given beside
    /// the buffer; finish it with [`Writer::finish_split`].
    #[must_use]
    pub fn splitting() -> Self {
        let mut w = Writer::new();
        w.splitting = true;
        w
    }

    /// The bytes written so far as a buffer of their own: one allocation
    /// for a head, none for an empty one, the buffer itself when it grew
    /// past [`SCRATCH_KEEP`].
    fn take_body(&mut self) -> Bytes {
        if self.buf.capacity() > SCRATCH_KEEP {
            Bytes::from(std::mem::take(&mut self.buf))
        } else {
            copied(&self.buf)
        }
    }

    /// Finishes encoding and returns the flat encoding: the buffer's
    /// bytes (see [`Writer`]) unless a payload part was held, which is
    /// spliced in.
    #[must_use]
    pub fn finish(mut self) -> Bytes {
        match &self.part {
            None => self.take_body(),
            Some(part) => splice(&self.buf, part),
        }
    }

    /// Finishes encoding and returns the head (see [`Writer`]) and the
    /// payload part, if the writer was splitting and met one.
    #[must_use]
    pub fn finish_split(mut self) -> (Bytes, Option<PayloadPart>) {
        (self.take_body(), self.part.take())
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

    /// Appends a length-prefixed payload field (READ/WRITE data). A
    /// splitting writer that holds no part yet writes the prefix and
    /// keeps `v` as a view beside the buffer; a message's further
    /// payloads, and every payload of a flat writer, are copied in like
    /// [`Writer::bytes`]. The flat encoding is the same either way.
    pub fn payload(&mut self, v: &Bytes) {
        if self.splitting && self.part.is_none() {
            self.buf.put_u32_le(v.len() as u32);
            self.part = Some(PayloadPart {
                at: self.buf.len(),
                data: v.clone(),
            });
        } else {
            self.bytes(v);
        }
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
        T::write_seq(items, self);
    }

    /// Bytes written so far, a held payload part included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() + self.part.as_ref().map_or(0, |p| p.data.len())
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `data` in a buffer of its own, made in one allocation (refcount and
/// bytes together; none for empty `data`): a finished message head, or
/// the frame a handler given borrowed bytes copies them into. The buffer
/// is never lent out by [`Bytes::with_unique`].
#[must_use]
pub fn copied(data: &[u8]) -> Bytes {
    if data.is_empty() {
        Bytes::new()
    } else {
        Bytes::from(Arc::<[u8]>::from(data))
    }
}

/// Spare room [`Writer::bytes`] leaves behind a byte string it had to
/// grow for, enough for the few fixed-width fields that follow a payload
/// in any message.
const PAYLOAD_TAIL: usize = 16;

/// Upper bound on any single length prefix; guards against corrupt frames
/// allocating unbounded memory. 64 MiB comfortably exceeds the largest NFS
/// WRITE payload the system produces. It is also the most a server may
/// put in one reply, so a READ's `count` is clamped to it.
pub const MAX_LEN: u64 = 64 << 20;

/// Decoder over a byte slice, or over a refcounted frame (see
/// [`Reader::over`], [`Reader::over_frame`]) whose payload fields it can
/// hand out as views.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The frame whose body `buf` is the unread tail of, when there is
    /// one; its part is taken out when [`Reader::payload`] hands it out.
    frame: Option<Frame<'a>>,
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
        Self::over_frame(Frame::flat(frame))
    }

    /// New reader over a frame in either holding. The cursor runs over
    /// the head; [`Reader::payload`] hands the part out when it stands
    /// where the part belongs.
    #[must_use]
    pub fn over_frame(frame: Frame<'a>) -> Self {
        Reader {
            buf: frame.body,
            frame: Some(frame),
        }
    }

    /// Number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails with [`WireError::TrailingBytes`] unless fully consumed, and
    /// with [`WireError::StrayPayload`] if a two-piece frame's part was
    /// never handed out (it lies outside the head, or not where a
    /// payload field starts).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if !self.buf.is_empty() {
            Err(WireError::TrailingBytes(self.buf.len()))
        } else if let Some(part) = self.frame.and_then(|f| f.payload) {
            Err(WireError::StrayPayload(part.at))
        } else {
            Ok(())
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

    /// Reads a length prefix and checks it against [`MAX_LEN`].
    fn length_prefix(&mut self) -> Result<usize, WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed byte string in place, after checking the
    /// prefix against [`MAX_LEN`] and the bytes that are left.
    fn byte_string(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.length_prefix()?;
        self.need(len)?;
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.byte_string()?.to_vec())
    }

    /// Reads a length-prefixed payload field: the part of a two-piece
    /// frame when the field's prefix ends where the part belongs (the
    /// prefix must then be the part's length), a view of the frame when
    /// the reader was built over one, one copy otherwise. A view keeps
    /// the whole frame alive, so this is for READ/WRITE data, not for
    /// names and other small fields.
    pub fn payload(&mut self) -> Result<Bytes, WireError> {
        if let Some(Frame {
            body,
            payload: Some(part),
        }) = self.frame
        {
            if body.len() - self.buf.len() + 4 == part.at {
                let len = self.length_prefix()?;
                if len != part.data.len() {
                    return Err(WireError::BadLength(len as u64));
                }
                self.frame = Some(Frame::flat(body));
                return Ok(part.data.clone());
            }
        }
        let data = self.byte_string()?;
        Ok(match self.frame {
            Some(Frame { body, .. }) => {
                let end = body.len() - self.buf.len();
                body.slice(end - data.len()..end)
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
        T::read_seq(self)
    }
}

/// Types that can encode themselves onto a [`Writer`].
pub trait WireWrite {
    /// Appends this value's encoding to `w`.
    fn write(&self, w: &mut Writer);

    /// Appends `items` as a `u32` count and then each item: what a
    /// `Vec<Self>` field is on the wire. `u8` overrides it with the one
    /// `memcpy` of [`Writer::bytes`]; the bytes are the same.
    fn write_seq(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        w.u32(items.len() as u32);
        for it in items {
            it.write(w);
        }
    }

    /// One-shot encode into a fresh buffer.
    fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.write(&mut w);
        w.finish()
    }

    /// One-shot encode into a head and, if the value has a payload field,
    /// that payload beside it (see [`Frame`]); flattened, it is
    /// [`WireWrite::encode`] byte for byte.
    fn encode_split(&self) -> (Bytes, Option<PayloadPart>) {
        let mut w = Writer::splitting();
        self.write(&mut w);
        w.finish_split()
    }
}

/// Types that can decode themselves from a [`Reader`].
pub trait WireRead: Sized {
    /// Reads one value from `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Reads what [`WireWrite::write_seq`] wrote. The count is checked
    /// against the 64 MiB limit of every length prefix, and no more than
    /// 4 096 slots are reserved before the items themselves are seen.
    fn read_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let n = r.length_prefix()?;
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(Self::read(r)?);
        }
        Ok(v)
    }

    /// One-shot decode requiring the buffer to be fully consumed.
    fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    /// [`WireRead::decode`] of a whole refcounted frame in either
    /// holding: payload fields of the value are the frame's part or views
    /// of its body, not copies.
    fn decode_frame(frame: Frame<'_>) -> Result<Self, WireError> {
        let mut r = Reader::over_frame(frame);
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

impl_wire_int!(u16, u16, u16);
impl_wire_int!(u32, u32, u32);
impl_wire_int!(u64, u64, u64);
impl_wire_int!(u128, u128, u128);

// A sequence of `u8` is a byte string: copied in and out whole, not
// byte by byte.
impl WireWrite for u8 {
    fn write(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn write_seq(items: &[u8], w: &mut Writer) {
        w.bytes(items);
    }
}
impl WireRead for u8 {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn read_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        r.bytes()
    }
}

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

// READ/WRITE data: the field that may travel beside the head.
impl WireWrite for Bytes {
    fn write(&self, w: &mut Writer) {
        w.payload(self);
    }
}
impl WireRead for Bytes {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.payload()
    }
}

impl<T: WireWrite> WireWrite for Vec<T> {
    fn write(&self, w: &mut Writer) {
        T::write_seq(self, w);
    }
}
impl<T: WireRead> WireRead for Vec<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::read_seq(r)
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

/// Declares a message enum once: the type, its `u8` tags, both codec
/// directions and, where asked for, its label tables.
///
/// A variant is written as in a Rust `enum` — doc comments, then unit,
/// one-field tuple (`Name(field: Type)`; the field name is only the
/// codec's binding) or struct form — followed by `= tag`. The encoding
/// is the tag byte and then each field in declaration order, encoded by
/// its type's [`WireWrite`]; no field carries an annotation. Decoding an
/// unknown tag is [`WireError::BadTag`]; declaring one tag twice does
/// not compile.
///
/// ```
/// use kosha_rpc::{wire_enum, Bytes, WireRead, WireWrite};
/// wire_enum! {
///     /// A store request.
///     #[derive(Debug, Clone, PartialEq)]
///     pub enum Store labelled(NAMES, index, name) {
///         /// Liveness probe.
///         Ping = 0 => "ping",
///         /// Write `data` at `offset`.
///         Put {
///             /// Byte offset.
///             offset: u64,
///             /// The bytes, a view of the frame when decoded from one.
///             data: Bytes,
///         } = 4 => "put",
///         /// Drop the named objects.
///         Drop(names: Vec<String>) = 2 => "drop",
///     }
/// }
/// let put = Store::Put { offset: 7, data: Bytes::from(vec![1, 2]) };
/// assert_eq!(&put.encode()[..], [4, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2]);
/// assert_eq!(Store::decode(&put.encode()), Ok(put.clone()));
/// assert_eq!(Store::decode(&[3]), Err(kosha_rpc::WireError::BadTag(3)));
/// assert_eq!((put.name(), put.index(), Store::NAMES), ("put", 1, ["ping", "put", "drop"]));
/// ```
///
/// With `labelled(NAMES, index, name)` after the type's name every
/// variant also carries `=> "label"`, and the type gains the constant
/// array of labels in declaration order, the position of a value's
/// variant in it, and the label itself, under the three names given.
/// An enum of unit variants only is also given `ALL`, `tag()` and
/// `from_tag()`.
///
/// The generated decoder denies `unreachable_patterns`, so a tag claimed
/// by two variants is a compile error that points at the second:
///
/// ```compile_fail
/// kosha_rpc::wire_enum! {
///     pub enum Twice {
///         A = 1,
///         B = 1,
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident labelled($names:ident, $index:ident, $label_of:ident) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $({ $($fields:tt)* })? $(( $($tuple:tt)* ))? = $tag:literal => $label:literal
            ),* $(,)?
        }
    ) => {
        $crate::wire_enum! {
            $(#[$meta])*
            $vis enum $name {
                $( $(#[$vmeta])* $variant $({ $($fields)* })? $(( $($tuple)* ))? = $tag ),*
            }
        }
        impl $name {
            /// Stable lower-case label of every variant, in declaration
            /// order (which is metric registration order).
            $vis const $names: [&'static str; [$($tag),*].len()] = [$($label),*];

            /// Position of this value's variant in the declaration, and
            /// so of its label in the label array.
            #[must_use]
            $vis fn $index(&self) -> usize {
                enum Position { $($variant),* }
                match self { $( Self::$variant { .. } => Position::$variant as usize ),* }
            }

            /// Stable lower-case label of this value's variant (span
            /// names, metric names, journal details).
            #[must_use]
            $vis fn $label_of(&self) -> &'static str {
                match self { $( Self::$variant { .. } => $label ),* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $tag:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name { $( $(#[$vmeta])* $variant ),* }
        impl $name {
            /// Every variant, in declaration order.
            $vis const ALL: [$name; [$($tag),*].len()] = [$(Self::$variant),*];

            /// The byte this variant is on the wire.
            #[must_use]
            $vis fn tag(&self) -> u8 {
                match self { $( Self::$variant => $tag ),* }
            }

            /// The variant `tag` stands for.
            #[deny(unreachable_patterns)]
            $vis fn from_tag(tag: u8) -> Result<Self, $crate::WireError> {
                match tag {
                    $( $tag => Ok(Self::$variant), )*
                    t => Err($crate::WireError::BadTag(t)),
                }
            }
        }
        impl $crate::WireWrite for $name {
            fn write(&self, w: &mut $crate::Writer) {
                w.u8(self.tag());
            }
        }
        impl $crate::WireRead for $name {
            fn read(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Self::from_tag(r.u8()?)
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $({ $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? })?
                $(( $tfield:ident : $tty:ty ))?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $fty ),* })? $(( $tty ))? ),*
        }
        impl $crate::WireWrite for $name {
            fn write(&self, w: &mut $crate::Writer) {
                match self {
                    $( Self::$variant $({ $($field),* })? $(( $tfield ))? => {
                        w.u8($tag);
                        $($( $crate::WireWrite::write($field, w); )*)?
                        $( $crate::WireWrite::write($tfield, w); )?
                    } )*
                }
            }
        }
        impl $crate::WireRead for $name {
            #[deny(unreachable_patterns)]
            fn read(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(match r.u8()? {
                    $( $tag => Self::$variant
                        $({ $( $field: <$fty as $crate::WireRead>::read(r)? ),* })?
                        $(( <$tty as $crate::WireRead>::read(r)? ))?, )*
                    t => return Err($crate::WireError::BadTag(t)),
                })
            }
        }
    };
}

/// Declares a message struct once: the type and both codec directions,
/// each field in declaration order by its type's [`WireWrite`] and
/// [`WireRead`] (see [`wire_enum!`]).
///
/// ```
/// use kosha_rpc::{wire_struct, WireRead, WireWrite};
/// wire_struct! {
///     /// A handle.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub struct Handle {
///         /// Inode number.
///         pub ino: u64,
///         /// Generation.
///         pub gen: u32,
///     }
/// }
/// let h = Handle { ino: 1, gen: 2 };
/// assert_eq!(&h.encode()[..], [1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]);
/// assert_eq!(Handle::decode(&h.encode()), Ok(h));
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name { $( $(#[$fmeta])* $fvis $field: $fty ),* }
        impl $crate::WireWrite for $name {
            fn write(&self, w: &mut $crate::Writer) {
                $( $crate::WireWrite::write(&self.$field, w); )*
            }
        }
        impl $crate::WireRead for $name {
            fn read(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok($name { $( $field: <$fty as $crate::WireRead>::read(r)? ),* })
            }
        }
    };
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
    fn a_splitting_writer_keeps_its_first_payload_beside_the_head() {
        let first = Bytes::from(vec![7u8; 300]);
        let second = Bytes::from(vec![9u8; 20]);
        let write = |w: &mut Writer| {
            w.string("name");
            w.payload(&first);
            w.boolean(true);
            w.payload(&second);
        };
        let mut flat = Writer::new();
        write(&mut flat);
        let flat = flat.finish();

        let mut w = Writer::splitting();
        write(&mut w);
        assert_eq!(w.len(), flat.len());
        let (head, part) = w.finish_split();
        let part = part.expect("the first payload is held");
        // 4 + 4 bytes of name, then the 4-byte prefix the part follows.
        assert_eq!(part.at, 12);
        assert_eq!(part.data.as_ptr(), first.as_ptr());
        // The head has everything else, the second payload copied in.
        assert_eq!(head.len(), flat.len() - first.len());
        let frame = Frame {
            body: &head,
            payload: Some(&part),
        };
        assert_eq!(frame.flatten(), flat);

        // `finish` on a splitting writer is the flat encoding too.
        let mut w = Writer::splitting();
        write(&mut w);
        assert_eq!(w.finish(), flat);

        let mut r = Reader::over_frame(frame);
        assert_eq!(r.string().unwrap(), "name");
        assert_eq!(r.payload().unwrap().as_ptr(), first.as_ptr());
        assert!(r.boolean().unwrap());
        assert_eq!(
            r.expect_end(),
            Err(WireError::TrailingBytes(4 + second.len()))
        );
        let inlined = r.payload().unwrap();
        assert_eq!(inlined, second);
        assert!(head.as_ptr_range().contains(&inlined.as_ptr()));
        r.expect_end().unwrap();
    }

    #[test]
    fn a_part_no_payload_field_claims_is_an_error() {
        let mut w = Writer::new();
        w.u32(3);
        w.u8(1);
        let head = w.finish();
        let part = |at, len| PayloadPart {
            at,
            data: Bytes::from(vec![0u8; len]),
        };
        // Where the prefix ends and of the prefix's length: handed out.
        let good = part(4, 3);
        let mut r = Reader::over_frame(Frame {
            body: &head,
            payload: Some(&good),
        });
        assert_eq!(r.payload().unwrap().as_ptr(), good.data.as_ptr());
        assert_eq!(r.u8().unwrap(), 1);
        r.expect_end().unwrap();
        // Of another length than its prefix says.
        let long = part(4, 5);
        let mut r = Reader::over_frame(Frame {
            body: &head,
            payload: Some(&long),
        });
        assert_eq!(r.payload(), Err(WireError::BadLength(3)));
        // Not where a payload field starts, or outside the head: the
        // field is read from the head (and is short), the part is stray.
        for at in [0, 3, 5, 6, 99] {
            let stray = part(at, 3);
            let frame = Frame {
                body: &head,
                payload: Some(&stray),
            };
            assert_eq!(
                Reader::over_frame(frame).payload(),
                Err(WireError::Truncated)
            );
            let mut r = Reader::over_frame(frame);
            assert_eq!((r.u32().unwrap(), r.u8().unwrap()), (3, 1));
            assert_eq!(r.expect_end(), Err(WireError::StrayPayload(at)));
            let _ = frame.flatten();
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
