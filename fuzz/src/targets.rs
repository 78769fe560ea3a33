//! The check bodies shared by the libfuzzer-style binaries and the
//! `cargo test` corpus drivers.
//!
//! Each takes raw attacker-controlled bytes and asserts the parser
//! contract: no panic, allocations bounded (enforced by
//! [`crate::alloc_track`]), errors instead of garbage, and
//! `encode(decode(x))` a fixpoint wherever a decode succeeds.

use std::fs;

use reef_attention::{Click, ClickBatch, DurableClickStore, PersistConfig};
use reef_simweb::UserId;
use reef_wire::codec::BinaryCodec;
use reef_wire::{CodecKind, Frame, FrameDecoder, WireError};

use crate::alloc_track;
use crate::corpus::scratch_dir;

/// FNV-1a of `data`: the only per-input entropy the checks use, so a
/// given input always exercises the same chunking schedule.
fn fnv(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn drain(dec: &mut FrameDecoder) -> (Vec<Frame>, Option<WireError>) {
    let mut frames = Vec::new();
    loop {
        match dec.next_frame() {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

/// Differential check of the incremental [`FrameDecoder`] against the
/// blocking [`Frame::read_from`] reader, plus a capped decoder that
/// must reject oversized length prefixes before reserving space.
pub fn check_frame_decoder(data: &[u8]) {
    alloc_track::bounded("frame_decoder", || {
        // Reference: the blocking reader over the same byte stream. A
        // clean EOF or the first corrupt byte ends the stream for both
        // readers (the decoder reports trailing partial frames as
        // "waiting for more bytes", which is the same stream prefix).
        let mut reference = Vec::new();
        let mut cursor = std::io::Cursor::new(data);
        while let Ok(Some(f)) = Frame::read_from(&mut cursor) {
            reference.push(f);
        }

        // Whole buffer in one extend.
        let mut dec = FrameDecoder::new();
        dec.extend(data);
        let (whole, _) = drain(&mut dec);
        assert_eq!(
            whole, reference,
            "FrameDecoder(whole) and Frame::read_from disagree"
        );

        // Same bytes dribbled in data-derived chunk sizes: framing must
        // not depend on read boundaries.
        let mut seed = fnv(data);
        let mut dec = FrameDecoder::new();
        let mut chunked = Vec::new();
        let mut rest = data;
        let mut failed = false;
        while !rest.is_empty() && !failed {
            seed = seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(0x9e37_79b9);
            let take = 1 + (seed % 7) as usize;
            let (chunk, tail) = rest.split_at(take.min(rest.len()));
            dec.extend(chunk);
            let (mut frames, err) = drain(&mut dec);
            chunked.append(&mut frames);
            failed = err.is_some();
            rest = tail;
        }
        assert_eq!(
            chunked, reference,
            "FrameDecoder(chunked) and Frame::read_from disagree"
        );
    });

    // Capped decoder: with a 4 KiB ceiling, a header claiming megabytes
    // must error before any buffer is reserved for it. The bound leaves
    // room for the decoder's own buffer of the input, never the claim.
    const CAP: usize = 4096;
    alloc_track::bounded_by(
        "frame_decoder(capped)",
        2 * data.len() + 16 * CAP + 256 * 1024,
        || {
            let mut dec = FrameDecoder::with_max_frame(CAP);
            dec.extend(data);
            let (frames, _) = drain(&mut dec);
            for f in frames {
                assert!(
                    f.payload.len() < CAP,
                    "capped decoder yielded an oversized frame"
                );
            }
            let mut cursor = std::io::Cursor::new(data);
            while let Ok(Some(f)) = Frame::read_from_capped(&mut cursor, CAP) {
                assert!(
                    f.payload.len() < CAP,
                    "read_from_capped yielded an oversized frame"
                );
            }
        },
    );
}

/// Decode `frame` on every surface of `codec`; wherever a decode
/// succeeds, `encode(decode(·))` must be a fixpoint.
///
/// Fixpoint-of-bytes rather than structural equality: v2 floats decode
/// bit-exactly (NaN payloads included, and NaN breaks `==`), and text
/// formatting is only guaranteed stable after one print/parse cycle.
fn check_codec_roundtrips(codec: &dyn reef_wire::WireCodec, frame: &Frame) {
    if let Ok(x1) = codec.decode_client(frame) {
        let e1 = codec.encode_client(&x1).expect("re-encode client");
        let x2 = codec
            .decode_client(&e1)
            .expect("decode of re-encoded client");
        let e2 = codec.encode_client(&x2).expect("re-re-encode client");
        assert_eq!(e1, e2, "client encode/decode is not a fixpoint");
    }
    if let Ok(x1) = codec.decode_server(frame) {
        let e1 = codec.encode_server(&x1).expect("re-encode server");
        let x2 = codec
            .decode_server(&e1)
            .expect("decode of re-encoded server");
        let e2 = codec.encode_server(&x2).expect("re-re-encode server");
        assert_eq!(e1, e2, "server encode/decode is not a fixpoint");
    }
    if let Ok(x1) = codec.decode_peer(frame) {
        let e1 = codec.encode_peer(&x1).expect("re-encode peer");
        let x2 = codec.decode_peer(&e1).expect("decode of re-encoded peer");
        let e2 = codec.encode_peer(&x2).expect("re-re-encode peer");
        assert_eq!(e1, e2, "peer encode/decode is not a fixpoint");
    }
}

/// Throw `data` at both codecs' full frame surface (client, server,
/// peer) under both version headers.
pub fn check_codec_frames(data: &[u8]) {
    alloc_track::bounded("codec_frames", || {
        for kind in [CodecKind::Json, CodecKind::Binary] {
            let frame = Frame {
                version: kind.version(),
                payload: data.to_vec(),
            };
            check_codec_roundtrips(kind.codec(), &frame);
        }
    });
}

/// Focus on the v2 compressed click-upload decoder: `data` is used both
/// as a raw client payload and as the body of an `UploadClicks` request
/// (corr 0, tag 4).
pub fn check_click_upload_v2(data: &[u8]) {
    alloc_track::bounded("click_upload_v2", || {
        let direct = Frame {
            version: CodecKind::Binary.version(),
            payload: data.to_vec(),
        };
        // Steer the bytes into the batch decoder: corr varint 0, then
        // the UploadClicks tag.
        let mut steered_payload = vec![0x00, 0x04];
        steered_payload.extend_from_slice(data);
        let steered = Frame {
            version: CodecKind::Binary.version(),
            payload: steered_payload,
        };
        for frame in [&direct, &steered] {
            check_codec_roundtrips(&BinaryCodec, frame);
        }
    });
}

/// Recovery must accept arbitrary on-disk bytes — never error, never
/// panic — and, crucially, the store must remain *writable*: a batch
/// acknowledged after recovery must survive the next reopen whatever
/// state the old files were in. (The deterministic-simulation harness
/// found exactly this failing for zero-length segments, seed 15.)
pub fn check_wal_recovery(data: &[u8]) {
    alloc_track::bounded("wal_recovery", || {
        let marker = UserId(0xDEAD_BEEF);
        let batch = ClickBatch {
            user: marker,
            clicks: vec![
                Click {
                    user: marker,
                    day: 1,
                    tick: 10,
                    url: "https://reef.example/fuzz-marker".into(),
                    referrer: None,
                },
                Click {
                    user: marker,
                    day: 1,
                    tick: 11,
                    url: "https://reef.example/fuzz-marker/2".into(),
                    referrer: Some("https://reef.example/fuzz-marker".into()),
                },
            ],
        };

        // Variant 1: the bytes are a WAL segment.
        let dir = scratch_dir("wal");
        fs::write(dir.join("wal-0000000000000001.log"), data).expect("write fuzzed segment");
        {
            let mut store =
                DurableClickStore::open(PersistConfig::new(&dir)).expect("recovery must not error");
            store
                .ingest_upload(batch.clone())
                .expect("post-recovery ingest");
        }
        {
            let store = DurableClickStore::open(PersistConfig::new(&dir))
                .expect("second recovery must not error");
            let clicks = store.store().clicks_of(marker);
            assert!(
                clicks.len() >= 2 && clicks[clicks.len() - 2..] == batch.clicks[..],
                "acknowledged batch lost across reopen (segment variant)"
            );
        }
        fs::remove_dir_all(&dir).ok();

        // Variant 2: the bytes are a snapshot (plus recovery must cope
        // with the snapshot and a live segment disagreeing).
        let dir = scratch_dir("snap");
        fs::write(dir.join("snapshot-0000000000000001.snap"), data).expect("write fuzzed snapshot");
        {
            let mut store = DurableClickStore::open(PersistConfig::new(&dir))
                .expect("snapshot recovery must not error");
            store
                .ingest_upload(batch.clone())
                .expect("post-snapshot ingest");
        }
        {
            let store = DurableClickStore::open(PersistConfig::new(&dir))
                .expect("second snapshot recovery must not error");
            let clicks = store.store().clicks_of(marker);
            assert!(
                clicks.len() >= 2 && clicks[clicks.len() - 2..] == batch.clicks[..],
                "acknowledged batch lost across reopen (snapshot variant)"
            );
        }
        fs::remove_dir_all(&dir).ok();
    });
}
