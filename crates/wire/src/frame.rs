//! Length-prefixed, versioned framing.
//!
//! Every message on a reef-wire socket travels as one frame:
//!
//! ```text
//! +----------------+---------+------------------------+
//! | length: u32 BE | version | payload                |
//! +----------------+---------+------------------------+
//! ```
//!
//! `length` counts the version byte plus the payload, so a receiver can
//! skip unknown frames wholesale. The **version byte selects the codec**
//! that produced the payload:
//!
//! * **v1 (JSON)** — the payload is the JSON encoding of one
//!   [`crate::protocol::Request`] or [`crate::protocol::ServerMessage`],
//!   exactly as the first protocol generation shipped it. Debuggable
//!   with `nc`/`tcpdump`, byte-compatible with old clients, no
//!   correlation ids: replies pair with requests by order.
//! * **v2 (binary)** — the payload is the compact tag/varint encoding of
//!   one [`crate::protocol::ClientFrame`] (a correlation id plus the
//!   request) or [`crate::protocol::ServerFrame`] (a reply echoing the
//!   request's correlation id, a delivery, or an unsolicited `FeedChanged`
//!   auto-subscription notice). See [`crate::codec`] for the byte-level
//!   layout and the full v2 tag table.
//!
//! # Codec negotiation
//!
//! The codec is negotiated **per connection** by the version byte of the
//! first frame (the `Hello` or `PeerHello`): the server adopts whatever
//! codec that frame was encoded with and answers in it, and every later
//! frame in either direction must carry the same version byte — a
//! mid-stream switch is a protocol error that closes the connection. A
//! frame with a version byte the server does not recognise is answered
//! with a v1 JSON error (the one encoding every client can read) and the
//! connection is closed. v1 peers therefore keep working against v2
//! builds unchanged: nothing about the v1 byte stream has moved.
//!
//! # Correlation ids
//!
//! On v2 connections every request carries a client-assigned `corr` id,
//! and its reply echoes that id. Responses are thereby decoupled from
//! deliveries *and* from request order on the socket, which is what lets
//! [`crate::Client`] pipeline requests ([`crate::Client::publish_nowait`])
//! and the server's event loop reply out of order. Ids are scoped
//! to the connection; the client picks them (the stock client uses a
//! counter) and the server treats them as opaque.

use crate::error::WireError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Frame version byte of the JSON codec (protocol v1), which is also the
/// version this build's [`Frame::encode`]/[`Frame::decode`] speak.
pub const PROTOCOL_V1_JSON: u8 = 1;

/// Frame version byte of the compact binary codec (protocol v2).
pub const PROTOCOL_V2_BINARY: u8 = 2;

/// Version of the legacy lock-step JSON protocol. Kept as the version
/// [`Frame::encode`] stamps so pre-codec call sites stay byte-compatible.
pub const PROTOCOL_VERSION: u8 = PROTOCOL_V1_JSON;

/// Upper bound on a frame's length field. Protects the server from a
/// garbage length prefix allocating gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// One decoded frame: the protocol version it was sent under and its
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version from the frame header (selects the codec).
    pub version: u8,
    /// Payload bytes in the codec named by `version`.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Frame a serializable message as v1 JSON (the legacy encoding; v2
    /// frames are built by [`crate::codec::BinaryCodec`]).
    pub fn encode<T: Serialize>(message: &T) -> Result<Frame, WireError> {
        Ok(Frame {
            version: PROTOCOL_VERSION,
            payload: serde_json::to_vec(message)?,
        })
    }

    /// Parse the payload as v1 JSON `T`, first checking the version byte
    /// (a v2 frame must go through its codec instead).
    pub fn decode<T: Deserialize>(&self) -> Result<T, WireError> {
        if self.version != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: self.version,
            });
        }
        Ok(serde_json::from_slice(&self.payload)?)
    }

    /// Bytes this frame occupies on the wire (header included).
    pub fn wire_len(&self) -> usize {
        4 + 1 + self.payload.len()
    }

    /// Write the frame to `w`. Returns the number of bytes written.
    pub fn write_to(&self, w: &mut impl Write) -> Result<usize, WireError> {
        let body_len = 1 + self.payload.len();
        if body_len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(body_len));
        }
        w.write_all(&(body_len as u32).to_be_bytes())?;
        w.write_all(&[self.version])?;
        w.write_all(&self.payload)?;
        w.flush()?;
        Ok(4 + body_len)
    }

    /// Read one frame from `r`.
    ///
    /// Returns `Ok(None)` on clean end-of-stream (EOF before the first
    /// header byte); a partial header or body is a protocol error.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        Frame::read_from_capped(r, MAX_FRAME_LEN)
    }

    /// Like [`Frame::read_from`], but rejecting any frame whose length
    /// prefix exceeds `max_frame` — checked **before** the payload buffer
    /// is reserved, so a hostile 4 GiB length costs nothing. `max_frame`
    /// is clamped to [`MAX_FRAME_LEN`], the protocol ceiling.
    pub fn read_from_capped(
        r: &mut impl Read,
        max_frame: usize,
    ) -> Result<Option<Frame>, WireError> {
        let cap = max_frame.min(MAX_FRAME_LEN);
        let mut header = [0u8; 4];
        // Distinguish "no more frames" from "died mid-frame".
        let mut filled = 0;
        while filled < header.len() {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(WireError::Protocol("EOF inside frame header".into())),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let body_len = u32::from_be_bytes(header) as usize;
        if body_len == 0 {
            return Err(WireError::Protocol("zero-length frame".into()));
        }
        if body_len > cap {
            return Err(WireError::FrameTooLarge(body_len));
        }
        let mid_frame_eof = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                WireError::Protocol("EOF inside frame body".into())
            }
            _ => WireError::Io(e),
        };
        let mut version = [0u8; 1];
        r.read_exact(&mut version).map_err(mid_frame_eof)?;
        let mut payload = vec![0u8; body_len - 1];
        r.read_exact(&mut payload).map_err(mid_frame_eof)?;
        Ok(Some(Frame {
            version: version[0],
            payload,
        }))
    }
}

/// Incremental frame parser for nonblocking transports.
///
/// A readiness-driven reader hands whatever bytes the socket had —
/// which may split a frame at any byte boundary, or carry several frames
/// at once — to [`FrameDecoder::extend`], then pops complete frames with
/// [`FrameDecoder::next_frame`]. The decoder produces exactly the frames
/// [`Frame::read_from`] would have read from the concatenated stream,
/// and raises the same errors (zero-length frame, oversized length
/// prefix) as soon as the offending header is complete.
///
/// # Examples
///
/// ```
/// use reef_wire::frame::{Frame, FrameDecoder};
///
/// let frame = Frame::encode(&vec![1u32, 2, 3]).unwrap();
/// let mut bytes = Vec::new();
/// frame.write_to(&mut bytes).unwrap();
/// let mut decoder = FrameDecoder::new();
/// let (head, tail) = bytes.split_at(3); // split mid-header
/// decoder.extend(head);
/// assert!(decoder.next_frame().unwrap().is_none());
/// decoder.extend(tail);
/// assert_eq!(decoder.next_frame().unwrap(), Some(frame));
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted
    /// away once the parsed prefix grows past a threshold.
    pos: usize,
    /// Largest accepted frame body; length prefixes past this error
    /// before any payload byte is buffered into a frame.
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

/// Compact the decoder's buffer once this many consumed bytes accumulate.
const DECODER_COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder accepting frames up to [`MAX_FRAME_LEN`].
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(MAX_FRAME_LEN)
    }

    /// An empty decoder rejecting frames whose length prefix exceeds
    /// `max_frame` (clamped to [`MAX_FRAME_LEN`], the protocol ceiling).
    /// The check runs as soon as the 4-byte header is complete — before
    /// the payload is copied out — so a hostile length never turns into
    /// an allocation.
    pub fn with_max_frame(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame: max_frame.min(MAX_FRAME_LEN),
        }
    }

    /// Append bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a returned frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pop the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on a zero-length frame and
    /// [`WireError::FrameTooLarge`] on an oversized length prefix — the
    /// stream is corrupt and the connection should be dropped, exactly as
    /// [`Frame::read_from`] would decide.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let body_len =
            u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if body_len == 0 {
            return Err(WireError::Protocol("zero-length frame".into()));
        }
        if body_len > self.max_frame {
            return Err(WireError::FrameTooLarge(body_len));
        }
        if pending.len() < 4 + body_len {
            return Ok(None);
        }
        let version = pending[4];
        let payload = pending[5..4 + body_len].to_vec();
        self.pos += 4 + body_len;
        if self.pos >= DECODER_COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(Frame { version, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let frame = Frame::encode(&vec![1u32, 2, 3]).unwrap();
        let mut buf = Vec::new();
        let written = frame.write_to(&mut buf).unwrap();
        assert_eq!(written, buf.len());
        assert_eq!(written, frame.wire_len());
        let back = Frame::read_from(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, frame);
        let decoded: Vec<u32> = back.decode().unwrap();
        assert_eq!(decoded, vec![1, 2, 3]);
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(Frame::read_from(&mut &*empty).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_a_protocol_error() {
        let bytes: &[u8] = &[0, 0];
        assert!(matches!(
            Frame::read_from(&mut &*bytes),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected_at_decode() {
        let mut frame = Frame::encode(&42u64).unwrap();
        frame.version = PROTOCOL_VERSION + 1;
        assert!(matches!(
            frame.decode::<u64>(),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let frames = [
            Frame::encode(&vec![1u32, 2, 3]).unwrap(),
            Frame {
                version: PROTOCOL_V2_BINARY,
                payload: vec![0xAB; 300],
            },
            Frame::encode(&"tail").unwrap(),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            frame.write_to(&mut stream).unwrap();
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in stream {
            decoder.extend(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_corrupt_headers() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&[0, 0, 0, 0]);
        assert!(matches!(decoder.next_frame(), Err(WireError::Protocol(_))));
        let mut decoder = FrameDecoder::new();
        decoder.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn configured_cap_rejects_frames_the_ceiling_would_accept() {
        let frame = Frame::encode(&vec![0u8; 1024]).unwrap();
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        assert!(matches!(
            Frame::read_from_capped(&mut buf.as_slice(), 64),
            Err(WireError::FrameTooLarge(_))
        ));
        let mut decoder = FrameDecoder::with_max_frame(64);
        decoder.extend(&buf);
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::FrameTooLarge(_))
        ));
        // The same bytes pass untouched at the protocol ceiling.
        assert_eq!(Frame::read_from(&mut buf.as_slice()).unwrap(), Some(frame));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.push(PROTOCOL_VERSION);
        assert!(matches!(
            Frame::read_from(&mut buf.as_slice()),
            Err(WireError::FrameTooLarge(_))
        ));
    }
}
