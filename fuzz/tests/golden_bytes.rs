//! Golden bytes: the v1 and v2 payload of every corpus sample, pinned as
//! hex in `golden_bytes.hex`.
//!
//! The samples cover every variant of `Request`, `Response`,
//! `ServerFrame` and `PeerMsg`, and a `Stats` reply whose every counter
//! holds a distinct value, so a field that moves changes the bytes. Each
//! fixture line is `<sample> <v1|v2> <hex payload>`; the test checks that
//! encoding the sample gives that hex and that decoding the hex gives the
//! sample back. A deliberate layout change shows up here as a failure that
//! prints the new fixture lines.

use std::collections::BTreeMap;

use reef_fuzz::corpus::{sample_client_frames, sample_peer_msgs, sample_server_frames};
use reef_wire::{CodecKind, Frame, ServerFrame};

const FIXTURE: &str = include_str!("golden_bytes.hex");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd-length hex {text:?}");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// v1 drops correlation ids: a reply decodes with `corr` 0.
fn without_corr(frame: &ServerFrame) -> ServerFrame {
    match frame {
        ServerFrame::Reply { response, .. } => ServerFrame::Reply {
            corr: 0,
            response: response.clone(),
        },
        other => other.clone(),
    }
}

#[test]
fn every_sample_encodes_to_its_golden_bytes_and_back() {
    let golden: BTreeMap<(String, String), String> = FIXTURE
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "malformed fixture line {line:?}");
            (
                (parts[0].to_string(), parts[1].to_string()),
                parts[2].to_string(),
            )
        })
        .collect();

    let mut seen = 0;
    let mut mismatches = Vec::new();
    for kind in [CodecKind::Json, CodecKind::Binary] {
        let codec = kind.codec();
        let version = format!("v{}", kind.version());
        let mut check = |label: String, payload: Vec<u8>, decodes_back: &dyn Fn(&Frame) -> bool| {
            seen += 1;
            let want = golden.get(&(label.clone(), version.clone()));
            if want.map(String::as_str) != Some(hex(&payload).as_str()) {
                mismatches.push(format!("{label} {version} {}", hex(&payload)));
                return;
            }
            let frame = Frame {
                version: kind.version(),
                payload: unhex(want.expect("checked above")),
            };
            assert!(
                decodes_back(&frame),
                "{label} {version}: golden bytes do not decode to the sample"
            );
        };

        for (i, sample) in sample_client_frames().into_iter().enumerate() {
            let payload = codec.encode_client(&sample).expect("encode client").payload;
            check(format!("client.{i:02}"), payload, &|frame| {
                let back = codec.decode_client(frame).expect("decode client");
                back.request == sample.request
                    && (kind == CodecKind::Json || back.corr == sample.corr)
            });
        }
        for (i, sample) in sample_server_frames().into_iter().enumerate() {
            let payload = codec.encode_server(&sample).expect("encode server").payload;
            check(format!("server.{i:02}"), payload, &|frame| {
                let back = codec.decode_server(frame).expect("decode server");
                match kind {
                    CodecKind::Json => back == without_corr(&sample),
                    CodecKind::Binary => back == sample,
                }
            });
        }
        for (i, sample) in sample_peer_msgs().into_iter().enumerate() {
            let payload = codec.encode_peer(&sample).expect("encode peer").payload;
            check(format!("peer.{i:02}"), payload, &|frame| {
                codec.decode_peer(frame).expect("decode peer") == sample
            });
        }
    }

    assert!(
        mismatches.is_empty(),
        "{} of {seen} payloads differ from golden_bytes.hex; their current bytes:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(
        golden.len(),
        seen,
        "golden_bytes.hex holds lines for samples that no longer exist"
    );
}
