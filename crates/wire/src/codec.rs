//! Wire codecs: pluggable encodings for the protocol enums.
//!
//! A [`WireCodec`] turns [`ClientFrame`]s, [`ServerFrame`]s and
//! [`PeerMsg`]s into [`Frame`]s and back. Two implementations exist:
//!
//! * [`JsonCodec`] — protocol **version 1**, the original JSON encoding.
//!   Byte-compatible with pre-codec builds: requests travel as bare
//!   [`Request`] JSON and server traffic as [`ServerMessage`] JSON, so
//!   old clients keep connecting unchanged. Correlation ids do not exist
//!   on the v1 wire; request/reply pairing is by order.
//! * [`BinaryCodec`] — protocol **version 2**, a compact tag/varint
//!   encoding (the build environment has no registry access, so no
//!   serde-binary crate is available). Every frame carries an explicit
//!   correlation id; strings are length-delimited, integers (`u8`
//!   included) are LEB128 varints (zigzag for signed), floats are 8-byte
//!   little-endian IEEE 754 bit patterns, enum variants are single raw
//!   tag bytes, options are a bool byte then the value, and vectors are a
//!   varint length then the items.
//!
//! The codec of a connection is **negotiated by the frame version byte**:
//! whatever version the first frame (`Hello` / `PeerHello`) carries is
//! the codec both directions speak for the connection's lifetime. See
//! [`crate::frame`] for the negotiation rules.
//!
//! # The v2 layout
//!
//! Every v2 type implements the crate-private `Wire` trait. reef-wire's
//! own protocol and stats types derive it (`#[derive(Wire)]`): a struct
//! travels as its fields in declaration order, an enum as its variant's
//! tag byte and then the variant's fields. Types from other crates get
//! one hand-written impl each at the end of this module; only click
//! batches keep a layout of their own (delta/prefix compression, below).
//!
//! Tags are append-only — new variants take the next free number and
//! existing tags never renumber, so older v2 parties reject unknown
//! traffic cleanly instead of misreading it. For the derived enums the
//! source of truth is the `#[wire(tag = N)]` attribute on each variant in
//! [`crate::protocol`]; the table repeats them:
//!
//! | enum | tag → variant | declared by |
//! |---|---|---|
//! | `Request` | 0 `Hello`, 1 `Subscribe`, 2 `Unsubscribe`, 3 `Publish`, 4 `UploadClicks`, 5 `Stats`, 6 `Ping`, 7 `Bye`, 8 `PeerHello`, 9 `AutoSubscribe`, 10 `AutoUnsubscribe` | `#[wire(tag)]` |
//! | `Response` | 0 `Hello`, 1 `Subscribed`, 2 `Unsubscribed`, 3 `Published`, 4 `ClicksAccepted`, 5 `Stats`, 6 `Pong`, 7 `Bye`, 8 `PeerWelcome`, 9 `Error`, 10 `AutoSubscribed`, 11 `AutoUnsubscribed` | `#[wire(tag)]` |
//! | `ServerFrame` | 0 `Reply`, 1 `Deliver`, 2 `FeedChanged` | `#[wire(tag)]` |
//! | `PeerMsg` | 0 `SubFwd`, 1 `UnsubFwd`, 2 `EventFwd`, 3 `SubAdv`, 4 `Ping`, 5 `Pong` | this module |
//! | `Value` | 0 `Str`, 1 `Int`, 2 `Float`, 3 `Bool` | this module |
//! | `AutoSubMode` | 0 `Topic`, 1 `Content` | this module |
//!
//! `Op` travels as its index in `Op::ALL`. Struct fields carry no tags,
//! so adding, removing or moving a field (a stats counter, say) changes
//! the layout without a version bump; `fuzz/tests/golden_bytes.rs` pins
//! the bytes of every variant, a fully populated `Stats` reply included,
//! so such a change never goes unnoticed.
//!
//! [`Request`]: crate::protocol::Request

use crate::error::WireError;
use crate::frame::{Frame, PROTOCOL_V1_JSON, PROTOCOL_V2_BINARY};
use crate::protocol::{ClientFrame, FeedChange, Response, ServerFrame, ServerMessage};
use reef_attention::{Click, ClickBatch, UploadReceipt};
use reef_core::AutoSubMode;
use reef_pubsub::{
    BrokerStatsSnapshot, Event, EventId, Filter, GlobalSubId, Op, PeerMsg, Predicate,
    PublishedEvent, SubscriptionId, Value,
};
use reef_simweb::UserId;

/// Which encoding a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Protocol v1: JSON payloads, pairing by order (legacy-compatible).
    Json,
    /// Protocol v2: compact tag/varint binary payloads with correlation
    /// ids (the default for new connections).
    #[default]
    Binary,
}

impl CodecKind {
    /// The frame version byte this codec stamps on its frames.
    pub fn version(self) -> u8 {
        match self {
            CodecKind::Json => PROTOCOL_V1_JSON,
            CodecKind::Binary => PROTOCOL_V2_BINARY,
        }
    }

    /// Human-readable codec name (`json` / `binary`).
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Json => "json",
            CodecKind::Binary => "binary",
        }
    }

    /// The codec negotiated by a frame carrying `version`, if any.
    pub fn for_version(version: u8) -> Option<CodecKind> {
        match version {
            PROTOCOL_V1_JSON => Some(CodecKind::Json),
            PROTOCOL_V2_BINARY => Some(CodecKind::Binary),
            _ => None,
        }
    }

    /// Parse a `--codec` flag value.
    pub fn parse(raw: &str) -> Option<CodecKind> {
        match raw {
            "json" | "v1" => Some(CodecKind::Json),
            "binary" | "bin" | "v2" => Some(CodecKind::Binary),
            _ => None,
        }
    }

    /// The codec implementation for this kind.
    pub fn codec(self) -> &'static dyn WireCodec {
        match self {
            CodecKind::Json => &JsonCodec,
            CodecKind::Binary => &BinaryCodec,
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Encode/decode of the protocol enums to and from [`Frame`] payloads.
///
/// All methods are object-safe so connections can hold a negotiated
/// `&'static dyn WireCodec` picked at handshake time.
pub trait WireCodec: Send + Sync {
    /// Which codec this is.
    fn kind(&self) -> CodecKind;

    /// Frame version byte stamped on every frame of this codec.
    fn version(&self) -> u8 {
        self.kind().version()
    }

    /// Encode one client → server frame (request plus correlation id).
    fn encode_client(&self, frame: &ClientFrame) -> Result<Frame, WireError>;

    /// Decode one client → server frame.
    fn decode_client(&self, frame: &Frame) -> Result<ClientFrame, WireError>;

    /// Encode one server → client frame (reply or delivery).
    fn encode_server(&self, frame: &ServerFrame) -> Result<Frame, WireError>;

    /// Encode one delivery straight from a borrowed event.
    ///
    /// This is the hot path of event fan-out: the broker hands transports
    /// a shared `Arc<PublishedEvent>` per matching subscriber, and this
    /// method frames it without ever building an owned
    /// [`ServerFrame::Deliver`] (which would deep-clone the event per
    /// subscriber).
    fn encode_deliver(&self, event: &PublishedEvent) -> Result<Frame, WireError>;

    /// Decode one server → client frame.
    fn decode_server(&self, frame: &Frame) -> Result<ServerFrame, WireError>;

    /// Encode one broker ↔ broker routing message.
    fn encode_peer(&self, msg: &PeerMsg) -> Result<Frame, WireError>;

    /// Decode one broker ↔ broker routing message.
    fn decode_peer(&self, frame: &Frame) -> Result<PeerMsg, WireError>;
}

/// Reject frames whose version byte does not match the codec decoding
/// them: a negotiated connection must never switch encodings mid-stream.
fn check_version(codec: &dyn WireCodec, frame: &Frame) -> Result<(), WireError> {
    if frame.version != codec.version() {
        return Err(WireError::VersionMismatch {
            ours: codec.version(),
            theirs: frame.version,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON (protocol v1)

/// The original JSON encoding, byte-compatible with pre-codec builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

/// Borrowed mirror of [`ServerMessage`] so encoding a v1 server frame
/// does not deep-clone the response or the delivered event (every v1
/// fan-out pays this). Serializes to byte-
/// identical JSON: the derive encodes a newtype variant as a one-entry
/// map and the `Deliver` struct as a one-field map, both mirrored here
/// by hand.
enum ServerMessageRef<'a> {
    Reply(&'a Response),
    Deliver(&'a PublishedEvent),
    FeedChanged(&'a FeedChange),
}

impl serde::Serialize for ServerMessageRef<'_> {
    fn to_value(&self) -> serde::Value {
        let (tag, value) = match self {
            ServerMessageRef::Reply(response) => ("Reply", response.to_value()),
            ServerMessageRef::Deliver(event) => (
                "Deliver",
                serde::Value::Map(vec![("event".to_string(), event.to_value())]),
            ),
            ServerMessageRef::FeedChanged(change) => ("FeedChanged", change.to_value()),
        };
        serde::Value::Map(vec![(tag.to_string(), value)])
    }
}

impl WireCodec for JsonCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Json
    }

    fn encode_client(&self, frame: &ClientFrame) -> Result<Frame, WireError> {
        // v1 has no correlation ids on the wire: the request travels bare
        // and replies pair up by order.
        Ok(Frame {
            version: PROTOCOL_V1_JSON,
            payload: serde_json::to_vec(&frame.request)?,
        })
    }

    fn decode_client(&self, frame: &Frame) -> Result<ClientFrame, WireError> {
        check_version(self, frame)?;
        Ok(ClientFrame {
            corr: 0,
            request: serde_json::from_slice(&frame.payload)?,
        })
    }

    fn encode_server(&self, frame: &ServerFrame) -> Result<Frame, WireError> {
        let message = match frame {
            ServerFrame::Reply { response, .. } => ServerMessageRef::Reply(response),
            ServerFrame::Deliver(deliver) => ServerMessageRef::Deliver(&deliver.event),
            ServerFrame::FeedChanged(change) => ServerMessageRef::FeedChanged(change),
        };
        Ok(Frame {
            version: PROTOCOL_V1_JSON,
            payload: serde_json::to_vec(&message)?,
        })
    }

    fn encode_deliver(&self, event: &PublishedEvent) -> Result<Frame, WireError> {
        Ok(Frame {
            version: PROTOCOL_V1_JSON,
            payload: serde_json::to_vec(&ServerMessageRef::Deliver(event))?,
        })
    }

    fn decode_server(&self, frame: &Frame) -> Result<ServerFrame, WireError> {
        check_version(self, frame)?;
        Ok(
            match serde_json::from_slice::<ServerMessage>(&frame.payload)? {
                ServerMessage::Reply(response) => ServerFrame::Reply { corr: 0, response },
                ServerMessage::Deliver(deliver) => ServerFrame::Deliver(deliver),
                ServerMessage::FeedChanged(change) => ServerFrame::FeedChanged(change),
            },
        )
    }

    fn encode_peer(&self, msg: &PeerMsg) -> Result<Frame, WireError> {
        Ok(Frame {
            version: PROTOCOL_V1_JSON,
            payload: serde_json::to_vec(msg)?,
        })
    }

    fn decode_peer(&self, frame: &Frame) -> Result<PeerMsg, WireError> {
        check_version(self, frame)?;
        Ok(serde_json::from_slice(&frame.payload)?)
    }
}

// ---------------------------------------------------------------------------
// Binary (protocol v2)

/// Compact tag/varint encoding, protocol version 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

/// Wrap a finished v2 payload in a frame.
fn v2_frame(w: Writer) -> Frame {
    Frame {
        version: PROTOCOL_V2_BINARY,
        payload: w.into_bytes(),
    }
}

fn encode_v2<T: Wire>(value: &T) -> Result<Frame, WireError> {
    let mut w = Writer::new();
    value.put(&mut w);
    Ok(v2_frame(w))
}

/// Decode one whole v2 payload: every byte must belong to the message.
fn decode_v2<T: Wire>(frame: &Frame) -> Result<T, WireError> {
    check_version(&BinaryCodec, frame)?;
    let mut r = Reader::new(&frame.payload);
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl WireCodec for BinaryCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Binary
    }

    fn encode_client(&self, frame: &ClientFrame) -> Result<Frame, WireError> {
        encode_v2(frame)
    }

    fn decode_client(&self, frame: &Frame) -> Result<ClientFrame, WireError> {
        decode_v2(frame)
    }

    fn encode_server(&self, frame: &ServerFrame) -> Result<Frame, WireError> {
        encode_v2(frame)
    }

    fn encode_deliver(&self, event: &PublishedEvent) -> Result<Frame, WireError> {
        let mut w = Writer::new();
        w.tag(1);
        event.put(&mut w);
        Ok(v2_frame(w))
    }

    fn decode_server(&self, frame: &Frame) -> Result<ServerFrame, WireError> {
        decode_v2(frame)
    }

    fn encode_peer(&self, msg: &PeerMsg) -> Result<Frame, WireError> {
        encode_v2(msg)
    }

    fn decode_peer(&self, frame: &Frame) -> Result<PeerMsg, WireError> {
        decode_v2(frame)
    }
}

// ---------------------------------------------------------------------------
// Binary primitives

/// A type with a v2 layout: `put` appends it to a [`Writer`] and `get`
/// reads it back from a [`Reader`].
///
/// `#[derive(Wire)]` (from the vendored `serde_derive`) implements it for
/// reef-wire's own types; see the module docs for the layout it emits.
pub(crate) trait Wire: Sized {
    /// Append `self` to the payload.
    fn put(&self, w: &mut Writer);

    /// Read one value, failing cleanly on truncated or invalid bytes.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Byte-buffer writer for the v2 encoding.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte: an enum tag or a flags byte.
    pub(crate) fn tag(&mut self, tag: u8) {
        self.buf.push(tag);
    }

    /// LEB128 unsigned varint.
    fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-mapped signed varint.
    fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// IEEE 754 bit pattern, little-endian, all 8 bytes (bit-exact, NaN
    /// payloads included).
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Length-delimited UTF-8.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A varint length, then each item.
    fn seq<T: Wire>(&mut self, items: &[T]) {
        self.u64(items.len() as u64);
        for item in items {
            item.put(self);
        }
    }
}

/// Cursor over a v2 payload; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> WireError {
    WireError::Protocol(format!("binary payload truncated reading {what}"))
}

/// The error for a tag byte no variant of `what` claims.
pub(crate) fn bad_tag(what: &str, tag: u8) -> WireError {
    WireError::Protocol(format!("unknown {what} tag {tag}"))
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn byte(&mut self, what: &str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    /// One raw byte: the tag of a `what` enum, or a flags byte.
    pub(crate) fn tag(&mut self, what: &str) -> Result<u8, WireError> {
        self.byte(what)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte("varint")?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Protocol("varint overflows u64".into()));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Protocol("varint longer than 10 bytes".into()));
            }
        }
    }

    /// A varint that must fit the narrower integer `T`.
    fn narrow<T: TryFrom<u64>>(&mut self) -> Result<T, WireError> {
        T::try_from(self.u64()?).map_err(|_| {
            WireError::Protocol(format!("varint overflows {}", std::any::type_name::<T>()))
        })
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| truncated("f64"))?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.byte("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Protocol(format!("invalid bool byte {b}"))),
        }
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u64()? as usize;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| truncated("string"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| WireError::Protocol("string is not valid UTF-8".into()))?
            .to_owned();
        self.pos = end;
        Ok(s)
    }

    /// A varint length, then that many items read by `item`.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.u64()?;
        // Bound the pre-allocation against a hostile length prefix.
        let mut items = Vec::with_capacity(len.min(1024) as usize);
        for _ in 0..len {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Every byte of the payload must be consumed; trailing garbage means
    /// the two ends disagree about the message layout.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after binary message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut Writer) {
        w.u64(u64::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.narrow()
    }
}

/// A varint like every integer, not a raw byte (raw bytes are tags).
impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.u64(u64::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.narrow()
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Writer) {
        w.f64(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.f64()
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.seq(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq(T::get)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        w.bool(self.is_some());
        if let Some(value) = self {
            value.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

// ---------------------------------------------------------------------------
// Types from other crates

/// Id newtypes travel as their inner integer.
macro_rules! wire_newtype {
    ($($ty:ident($inner:ty)),* $(,)?) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                self.0.put(w);
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty(<$inner>::get(r)?))
            }
        }
    )*};
}

wire_newtype!(
    UserId(u32),
    EventId(u64),
    SubscriptionId(u64),
    GlobalSubId(u64)
);

/// Plain structs travel as the listed fields, in the listed order. The
/// struct literal in `get` fails to compile if a field is missing here.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: Wire::get(r)?,)* })
            }
        }
    )*};
}

wire_struct! {
    PublishedEvent { id, published_at, event }
    UploadReceipt { user, accepted, rejected, wire_bytes, total_stored }
    BrokerStatsSnapshot { events_published, deliveries, drops, subscribes, unsubscribes }
}

impl Wire for Value {
    fn put(&self, w: &mut Writer) {
        match self {
            Value::Str(s) => {
                w.tag(0);
                w.str(s);
            }
            Value::Int(i) => {
                w.tag(1);
                w.i64(*i);
            }
            Value::Float(f) => {
                w.tag(2);
                w.f64(*f);
            }
            Value::Bool(b) => {
                w.tag(3);
                w.bool(*b);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("Value")? {
            0 => Value::Str(r.str()?),
            1 => Value::Int(r.i64()?),
            2 => Value::Float(r.f64()?),
            3 => Value::Bool(r.bool()?),
            t => return Err(bad_tag("Value", t)),
        })
    }
}

/// Operators are encoded as their index in [`Op::ALL`], which is a stable
/// order.
impl Wire for Op {
    fn put(&self, w: &mut Writer) {
        let tag = Op::ALL
            .iter()
            .position(|o| o == self)
            .expect("Op::ALL lists every operator") as u8;
        w.tag(tag);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.tag("Op")?;
        Op::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| bad_tag("Op", tag))
    }
}

impl Wire for Predicate {
    fn put(&self, w: &mut Writer) {
        w.str(&self.attr);
        self.op.put(w);
        self.operand.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Predicate::new(r.str()?, Op::get(r)?, Value::get(r)?))
    }
}

impl Wire for Filter {
    fn put(&self, w: &mut Writer) {
        w.seq(self.predicates());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<Predicate>::get(r)?.into_iter().collect())
    }
}

/// An event travels as its attribute count, then name and value pairs.
impl Wire for Event {
    fn put(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (name, value) in self.iter() {
            w.str(name);
            value.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let attrs = r.seq(|r| Ok((r.str()?, Value::get(r)?)))?;
        Ok(attrs.into_iter().collect())
    }
}

impl Wire for AutoSubMode {
    fn put(&self, w: &mut Writer) {
        w.tag(match self {
            AutoSubMode::Topic => 0,
            AutoSubMode::Content => 1,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("AutoSubMode")? {
            0 => AutoSubMode::Topic,
            1 => AutoSubMode::Content,
            t => return Err(bad_tag("AutoSubMode", t)),
        })
    }
}

impl Wire for PeerMsg {
    fn put(&self, w: &mut Writer) {
        match self {
            PeerMsg::SubFwd { sub, filter } => {
                w.tag(0);
                sub.put(w);
                filter.put(w);
            }
            PeerMsg::UnsubFwd { sub } => {
                w.tag(1);
                sub.put(w);
            }
            PeerMsg::EventFwd { event, hops } => {
                w.tag(2);
                event.put(w);
                hops.put(w);
            }
            PeerMsg::SubAdv { sub, filter, path } => {
                w.tag(3);
                sub.put(w);
                filter.put(w);
                path.put(w);
            }
            PeerMsg::Ping { nonce } => {
                w.tag(4);
                nonce.put(w);
            }
            PeerMsg::Pong { nonce } => {
                w.tag(5);
                nonce.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("PeerMsg")? {
            0 => PeerMsg::SubFwd {
                sub: Wire::get(r)?,
                filter: Wire::get(r)?,
            },
            1 => PeerMsg::UnsubFwd { sub: Wire::get(r)? },
            2 => PeerMsg::EventFwd {
                event: Wire::get(r)?,
                hops: Wire::get(r)?,
            },
            3 => PeerMsg::SubAdv {
                sub: Wire::get(r)?,
                filter: Wire::get(r)?,
                path: Wire::get(r)?,
            },
            4 => PeerMsg::Ping {
                nonce: Wire::get(r)?,
            },
            5 => PeerMsg::Pong {
                nonce: Wire::get(r)?,
            },
            t => return Err(bad_tag("PeerMsg", t)),
        })
    }
}

// -- click batches ----------------------------------------------------------
//
// Click uploads are the fattest frames on the wire and their content is
// massively redundant: consecutive clicks share URI prefixes (same site),
// referrers repeat earlier URLs, ticks and days are near-monotonic, and
// the per-click user cookie almost always equals the batch's. The v2
// layout therefore delta-codes each click against its predecessor:
//
// * a flags byte (`CLICK_*` bits below);
// * the user cookie only when it differs from the batch user;
// * day and tick as zigzag varint deltas from the previous click
//   (wrapping, so arbitrary values still round-trip bit-exactly);
// * the URL as `shared-prefix-length + suffix` against the previous
//   click's URL;
// * the referrer (when present) as `shared-prefix-length + suffix`
//   against either the previous click's URL or the previous referrer —
//   whichever shares more — selected by a flag bit (a two-entry
//   dictionary covering both "referrer is the page I came from" and
//   "same referrer as last time").

/// Upper bound on the cumulative decoded URL + referrer bytes of one
/// click batch. Prefix reuse means a small frame can expand to far more
/// string bytes than it carries on the wire; without a cap a malicious
/// 16 MiB frame could demand terabytes of allocations. Real recorder
/// batches are kilobytes; 32 MiB is orders of magnitude of headroom and
/// stays below the WAL's per-record limit.
const MAX_DECODED_CLICK_BYTES: usize = 32 * 1024 * 1024;

/// Flag bit: the click carries a referrer.
const CLICK_HAS_REFERRER: u8 = 1 << 0;
/// Flag bit: the click's user cookie differs from the batch user.
const CLICK_USER_DIFFERS: u8 = 1 << 1;
/// Flag bit: the referrer prefix references the previous referrer
/// instead of the previous click's URL.
const CLICK_REF_VS_PREV_REFERRER: u8 = 1 << 2;

/// Longest shared byte prefix of `a` and `b` that ends on a char
/// boundary. (Equal prefix bytes form complete UTF-8 sequences in both
/// strings, so a boundary in one is a boundary in the other.)
fn common_prefix(a: &str, b: &str) -> usize {
    let mut n = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    while !a.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// Decode a `prefix length + suffix` string against its reference.
fn get_prefixed_str(r: &mut Reader<'_>, reference: &str) -> Result<String, WireError> {
    let prefix = r.u64()? as usize;
    if prefix > reference.len() || !reference.is_char_boundary(prefix) {
        return Err(WireError::Protocol(
            "string prefix length exceeds its reference".into(),
        ));
    }
    let suffix = r.str()?;
    let mut out = String::with_capacity(prefix + suffix.len());
    out.push_str(&reference[..prefix]);
    out.push_str(&suffix);
    Ok(out)
}

impl Wire for ClickBatch {
    fn put(&self, w: &mut Writer) {
        let batch = self;
        w.u64(u64::from(batch.user.0));
        w.u64(batch.clicks.len() as u64);
        let (mut prev_url, mut prev_ref) = ("", "");
        let (mut prev_day, mut prev_tick) = (0u32, 0u64);
        for click in &batch.clicks {
            let mut flags = 0u8;
            let user_differs = click.user != batch.user;
            if user_differs {
                flags |= CLICK_USER_DIFFERS;
            }
            let mut referrer_vs_prev_ref = false;
            if let Some(referrer) = &click.referrer {
                flags |= CLICK_HAS_REFERRER;
                referrer_vs_prev_ref =
                    common_prefix(referrer, prev_ref) > common_prefix(referrer, prev_url);
                if referrer_vs_prev_ref {
                    flags |= CLICK_REF_VS_PREV_REFERRER;
                }
            }
            w.tag(flags);
            if user_differs {
                w.u64(u64::from(click.user.0));
            }
            w.i64(click.day.wrapping_sub(prev_day) as i32 as i64);
            w.i64(click.tick.wrapping_sub(prev_tick) as i64);
            let url_prefix = common_prefix(&click.url, prev_url);
            w.u64(url_prefix as u64);
            w.str(&click.url[url_prefix..]);
            if let Some(referrer) = &click.referrer {
                let reference = if referrer_vs_prev_ref {
                    prev_ref
                } else {
                    prev_url
                };
                let ref_prefix = common_prefix(referrer, reference);
                w.u64(ref_prefix as u64);
                w.str(&referrer[ref_prefix..]);
                prev_ref = referrer;
            }
            prev_url = &click.url;
            prev_day = click.day;
            prev_tick = click.tick;
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let user = UserId::get(r)?;
        let n = r.u64()?;
        let mut clicks: Vec<Click> = Vec::new();
        let (mut prev_url, mut prev_ref) = (String::new(), String::new());
        let (mut prev_day, mut prev_tick) = (0u32, 0u64);
        let mut decoded_bytes = 0usize;
        for _ in 0..n {
            let flags = r.tag("Click flags")?;
            if flags & !(CLICK_HAS_REFERRER | CLICK_USER_DIFFERS | CLICK_REF_VS_PREV_REFERRER) != 0
            {
                return Err(bad_tag("Click flags", flags));
            }
            let click_user = if flags & CLICK_USER_DIFFERS != 0 {
                UserId::get(r)?
            } else {
                user
            };
            let day_delta = r.i64()?;
            let day_delta = i32::try_from(day_delta)
                .map_err(|_| WireError::Protocol("day delta overflows u32".into()))?;
            let day = prev_day.wrapping_add(day_delta as u32);
            let tick = prev_tick.wrapping_add(r.i64()? as u64);
            let url = get_prefixed_str(r, &prev_url)?;
            let referrer = if flags & CLICK_HAS_REFERRER != 0 {
                let reference = if flags & CLICK_REF_VS_PREV_REFERRER != 0 {
                    &prev_ref
                } else {
                    &prev_url
                };
                let referrer = get_prefixed_str(r, reference)?;
                prev_ref.clone_from(&referrer);
                Some(referrer)
            } else {
                None
            };
            decoded_bytes += url.len() + referrer.as_ref().map_or(0, String::len);
            if decoded_bytes > MAX_DECODED_CLICK_BYTES {
                return Err(WireError::Protocol(format!(
                    "click batch expands past {MAX_DECODED_CLICK_BYTES} decoded bytes"
                )));
            }
            prev_url.clone_from(&url);
            prev_day = day;
            prev_tick = tick;
            clicks.push(Click {
                user: click_user,
                day,
                tick,
                url,
                referrer,
            });
        }
        Ok(ClickBatch { user, clicks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Deliver, Request};
    use crate::stats::{FederationStatsSnapshot, WireStatsSnapshot};
    use reef_pubsub::Op;

    fn both() -> [&'static dyn WireCodec; 2] {
        [CodecKind::Json.codec(), CodecKind::Binary.codec()]
    }

    #[test]
    fn varints_round_trip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.u64(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.u64().unwrap(), v);
            r.finish().unwrap();
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            let mut w = Writer::new();
            w.i64(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.i64().unwrap(), v);
        }
    }

    #[test]
    fn client_frames_round_trip_in_binary_with_corr() {
        let frame = ClientFrame {
            corr: u64::MAX - 3,
            request: Request::Publish {
                event: Event::builder()
                    .attr("price", 12.5)
                    .attr("sym", "ACME")
                    .attr("neg", -7)
                    .attr("up", true)
                    .build(),
            },
        };
        let encoded = BinaryCodec.encode_client(&frame).unwrap();
        assert_eq!(encoded.version, PROTOCOL_V2_BINARY);
        let back = BinaryCodec.decode_client(&encoded).unwrap();
        assert_eq!(back.corr, frame.corr);
        assert_eq!(back.request, frame.request);
    }

    #[test]
    fn json_server_frames_match_the_owned_servermessage_bytes() {
        // The borrowed mirror must stay byte-identical to the owned
        // `ServerMessage` encoding — that equality IS the v1 guarantee.
        let event = PublishedEvent {
            id: EventId(5),
            published_at: 9,
            event: Event::topical("t", "b"),
        };
        let cases = [
            (
                JsonCodec
                    .encode_server(&ServerFrame::Reply {
                        corr: 3,
                        response: Response::Pong,
                    })
                    .unwrap(),
                serde_json::to_vec(&ServerMessage::Reply(Response::Pong)).unwrap(),
            ),
            (
                JsonCodec
                    .encode_server(&ServerFrame::Deliver(Deliver {
                        event: event.clone(),
                    }))
                    .unwrap(),
                serde_json::to_vec(&ServerMessage::Deliver(Deliver { event })).unwrap(),
            ),
        ];
        for (frame, owned_bytes) in cases {
            assert_eq!(frame.payload, owned_bytes);
        }
    }

    #[test]
    fn json_client_frames_stay_v1_bare_requests() {
        let frame = ClientFrame {
            corr: 42,
            request: Request::Ping,
        };
        let encoded = JsonCodec.encode_client(&frame).unwrap();
        assert_eq!(encoded.version, PROTOCOL_V1_JSON);
        // Byte-compatible: the payload is the bare JSON `Request`, exactly
        // what a pre-codec client sends.
        let legacy: Request = serde_json::from_slice(&encoded.payload).unwrap();
        assert_eq!(legacy, Request::Ping);
        // The correlation id does not survive v1 (pairing is by order).
        assert_eq!(JsonCodec.decode_client(&encoded).unwrap().corr, 0);
    }

    #[test]
    fn server_frames_round_trip_through_both_codecs() {
        let reply = ServerFrame::Reply {
            corr: 9,
            response: Response::Stats {
                broker: BrokerStatsSnapshot {
                    events_published: 5,
                    deliveries: 4,
                    drops: 3,
                    subscribes: 2,
                    unsubscribes: 1,
                },
                wire: WireStatsSnapshot::default(),
                federation: FederationStatsSnapshot::default(),
            },
        };
        let deliver = ServerFrame::Deliver(Deliver {
            event: PublishedEvent {
                id: EventId(1 << 40),
                published_at: 77,
                event: Event::topical("news", "hello"),
            },
        });
        for codec in both() {
            for frame in [&reply, &deliver] {
                let encoded = codec.encode_server(frame).unwrap();
                let back = codec.decode_server(&encoded).unwrap();
                match (&back, frame) {
                    (
                        ServerFrame::Reply { corr, response },
                        ServerFrame::Reply {
                            corr: want_corr,
                            response: want,
                        },
                    ) => {
                        assert_eq!(response, want);
                        if codec.kind() == CodecKind::Binary {
                            assert_eq!(corr, want_corr);
                        }
                    }
                    (ServerFrame::Deliver(got), ServerFrame::Deliver(want)) => {
                        assert_eq!(got, want)
                    }
                    other => panic!("frame kind changed in transit: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn peer_msgs_round_trip_through_both_codecs() {
        let msgs = [
            PeerMsg::SubFwd {
                sub: GlobalSubId((u32::MAX as u64) << 32 | 7),
                filter: Filter::new()
                    .and("price", Op::Gt, 10.0)
                    .and("sym", Op::Prefix, "AC"),
            },
            PeerMsg::UnsubFwd {
                sub: GlobalSubId(3),
            },
            PeerMsg::EventFwd {
                event: PublishedEvent {
                    id: EventId(4),
                    published_at: 77,
                    event: Event::topical("news", "hello"),
                },
                hops: 2,
            },
        ];
        for codec in both() {
            for msg in &msgs {
                let encoded = codec.encode_peer(msg).unwrap();
                assert_eq!(encoded.version, codec.version());
                assert_eq!(&codec.decode_peer(&encoded).unwrap(), msg);
            }
        }
    }

    #[test]
    fn binary_publish_frames_are_smaller_than_json() {
        let frame = ClientFrame {
            corr: 1,
            request: Request::Publish {
                event: Event::builder()
                    .attr("symbol", "ACME")
                    .attr("price", 12.5)
                    .attr("volume", 90_000)
                    .attr("halted", false)
                    .build(),
            },
        };
        let json = JsonCodec.encode_client(&frame).unwrap();
        let binary = BinaryCodec.encode_client(&frame).unwrap();
        assert!(
            binary.wire_len() < json.wire_len(),
            "binary {} must beat json {}",
            binary.wire_len(),
            json.wire_len()
        );
    }

    #[test]
    fn encode_deliver_matches_owned_deliver_bytes() {
        // The borrow-based fan-out path must stay byte-identical to the
        // owned `ServerFrame::Deliver` encoding under both codecs.
        let event = PublishedEvent {
            id: EventId(1 << 40),
            published_at: 9,
            event: Event::builder()
                .attr("price", 12.5)
                .attr("sym", "ACME")
                .build(),
        };
        for codec in both() {
            let borrowed = codec.encode_deliver(&event).unwrap();
            let owned = codec
                .encode_server(&ServerFrame::Deliver(Deliver {
                    event: event.clone(),
                }))
                .unwrap();
            assert_eq!(borrowed, owned, "{} deliver bytes diverge", codec.kind());
        }
    }

    fn upload_frame(batch: ClickBatch) -> ClientFrame {
        ClientFrame {
            corr: 9,
            request: Request::UploadClicks { batch },
        }
    }

    #[test]
    fn compressed_click_batches_round_trip_edge_cases() {
        use reef_attention::{Click, ClickBatch};
        let batches = [
            // Empty batch.
            ClickBatch {
                user: UserId(0),
                clicks: vec![],
            },
            // Shared prefixes, repeated referrers, forged cookie,
            // multi-byte UTF-8 diverging inside a character, wrapping
            // tick deltas.
            ClickBatch {
                user: UserId(7),
                clicks: vec![
                    Click {
                        user: UserId(7),
                        day: 3,
                        tick: u64::MAX - 1,
                        url: "http://news.example/a/α".into(),
                        referrer: None,
                    },
                    Click {
                        user: UserId(7),
                        day: 3,
                        tick: 2, // wraps past u64::MAX
                        url: "http://news.example/a/β".into(),
                        referrer: Some("http://news.example/a/α".into()),
                    },
                    Click {
                        user: UserId(9), // forged cookie still encodes
                        day: 0,          // day goes backwards
                        tick: 1,
                        url: "completely-different".into(),
                        referrer: Some("http://news.example/a/α".into()),
                    },
                    Click {
                        user: UserId(7),
                        day: u32::MAX,
                        tick: 0,
                        url: String::new(),
                        referrer: Some(String::new()),
                    },
                ],
            },
        ];
        for batch in batches {
            let frame = upload_frame(batch);
            let encoded = BinaryCodec.encode_client(&frame).unwrap();
            let back = BinaryCodec.decode_client(&encoded).unwrap();
            assert_eq!(back.request, frame.request);
            assert_eq!(back.corr, frame.corr);
        }
    }

    #[test]
    fn compressed_click_batches_beat_json() {
        use reef_attention::{Click, ClickBatch};
        // A realistic browsing batch: one site, sequential ticks, the
        // referrer chain following the clicks.
        let clicks: Vec<Click> = (0..20)
            .map(|i| Click {
                user: UserId(42),
                day: 3,
                tick: 1_000 + i,
                url: format!("http://news.example/story-{i}.html"),
                referrer: (i > 0).then(|| format!("http://news.example/story-{}.html", i - 1)),
            })
            .collect();
        let frame = upload_frame(ClickBatch {
            user: UserId(42),
            clicks,
        });
        let compressed = BinaryCodec.encode_client(&frame).unwrap();
        let json = JsonCodec.encode_client(&frame).unwrap();
        assert!(
            compressed.wire_len() < json.wire_len(),
            "compressed v2 {} must beat json {}",
            compressed.wire_len(),
            json.wire_len()
        );
        assert_eq!(
            BinaryCodec.decode_client(&compressed).unwrap().request,
            frame.request
        );
    }

    #[test]
    fn decoder_caps_prefix_amplification() {
        use reef_attention::{Click, ClickBatch};
        // 150 clicks sharing one 300 KiB URL: a few hundred KiB on the
        // wire, ~45 MiB decoded — past the amplification cap. The
        // decoder must fail cleanly instead of allocating it all
        // (a hostile frame could push the ratio arbitrarily high).
        let url = format!("http://big.example/{}", "x".repeat(300 * 1024));
        let frame = upload_frame(ClickBatch {
            user: UserId(1),
            clicks: (0..150)
                .map(|i| Click {
                    user: UserId(1),
                    day: 0,
                    tick: i,
                    url: url.clone(),
                    referrer: None,
                })
                .collect(),
        });
        let encoded = BinaryCodec.encode_client(&frame).unwrap();
        assert!(encoded.payload.len() < 2 * 1024 * 1024, "wire stays small");
        assert!(matches!(
            BinaryCodec.decode_client(&encoded),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn corrupt_prefix_lengths_are_protocol_errors() {
        use reef_attention::{Click, ClickBatch};
        let frame = upload_frame(ClickBatch {
            user: UserId(1),
            clicks: vec![Click {
                user: UserId(1),
                day: 0,
                tick: 0,
                url: "http://a.example/".into(),
                referrer: None,
            }],
        });
        let encoded = BinaryCodec.encode_client(&frame).unwrap();
        // Fuzz every byte: decoding must fail cleanly or produce some
        // batch — never panic (prefix lengths are validated against
        // their reference strings).
        for i in 0..encoded.payload.len() {
            let mut corrupt = encoded.clone();
            corrupt.payload[i] = corrupt.payload[i].wrapping_add(0x41);
            let _ = BinaryCodec.decode_client(&corrupt);
        }
    }

    #[test]
    fn codec_rejects_foreign_version_frames() {
        let encoded = BinaryCodec
            .encode_peer(&PeerMsg::UnsubFwd {
                sub: GlobalSubId(1),
            })
            .unwrap();
        assert!(matches!(
            JsonCodec.decode_peer(&encoded),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn truncated_and_trailing_bytes_are_protocol_errors() {
        let encoded = BinaryCodec
            .encode_client(&ClientFrame {
                corr: 5,
                request: Request::Subscribe {
                    filter: Filter::topic("t"),
                },
            })
            .unwrap();
        let mut cut = encoded.clone();
        cut.payload.truncate(cut.payload.len() - 1);
        assert!(matches!(
            BinaryCodec.decode_client(&cut),
            Err(WireError::Protocol(_))
        ));
        let mut padded = encoded;
        padded.payload.push(0);
        assert!(matches!(
            BinaryCodec.decode_client(&padded),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn negotiation_helpers_map_versions_and_names() {
        assert_eq!(CodecKind::for_version(1), Some(CodecKind::Json));
        assert_eq!(CodecKind::for_version(2), Some(CodecKind::Binary));
        assert_eq!(CodecKind::for_version(9), None);
        assert_eq!(CodecKind::parse("json"), Some(CodecKind::Json));
        assert_eq!(CodecKind::parse("binary"), Some(CodecKind::Binary));
        assert_eq!(CodecKind::parse("xml"), None);
        assert_eq!(CodecKind::Binary.codec().version(), 2);
        assert_eq!(CodecKind::Json.name(), "json");
    }
}
