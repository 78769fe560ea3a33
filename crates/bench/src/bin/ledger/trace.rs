//! Spans recorded by the harness around every call it makes into a layer.
//!
//! The daemon carries no tracing of its own yet, so the time between the
//! sender's `write` returning and the receiver's `read` starting is one
//! opaque `daemon.transit` span. Everything on the generator's side of the
//! sockets is cut finer: `gen.due` → `client.encode` → `client.write` →
//! `daemon.transit` → `client.read` → `frame.decode` → `codec.decode` →
//! `oracle.check`, each naming the span that caused it and sharing the
//! event's sequence number as id. Layer replays record `replay.<layer>`
//! spans the same way. Spans stay in memory until the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;

/// One span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// The span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Shared id: the event's sequence number (replays: the batch number).
    pub id: u64,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

/// Spans emitted on the receiving side for each traced delivery, and on
/// the sending side for each traced publish.
pub const SPANS_PER_DELIVERY: u64 = 5;
/// See [`SPANS_PER_DELIVERY`].
pub const SPANS_PER_PUBLISH: u64 = 3;
/// Spans kept per traced phase; publishes are sampled to stay under it.
pub const SPAN_BUDGET: u64 = 150_000;

/// Trace every how-manieth publish so a phase of `publishes`, each fanned
/// out to `copies` deliveries, stays within [`SPAN_BUDGET`].
pub fn sample_every(publishes: u64, copies: f64) -> u64 {
    let per_publish = SPANS_PER_PUBLISH as f64 + SPANS_PER_DELIVERY as f64 * copies;
    ((publishes as f64 * per_publish / SPAN_BUDGET as f64).ceil() as u64).max(1)
}

/// Write spans as JSON lines, one object per span.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"parent\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.parent, span.id, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_keeps_a_phase_within_budget() {
        assert_eq!(sample_every(6_000, 1.0), 1);
        let every = sample_every(6_000, 256.0);
        let traced = 6_000 / every;
        assert!(traced * (SPANS_PER_PUBLISH + SPANS_PER_DELIVERY * 256) <= SPAN_BUDGET + 2_000);
        assert!(traced >= 100, "still a meaningful sample: {traced}");
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let dir = crate::daemon::scratch_root()
            .expect("scratch dir")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        let spans = [Span {
            name: "client.encode",
            parent: "gen.due",
            id: 7,
            start_ns: 10,
            end_ns: 25,
        }];
        write_spans(&path, "fanout", &spans).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            text,
            "{\"workload\":\"fanout\",\"name\":\"client.encode\",\"parent\":\"gen.due\",\"id\":7,\"start_ns\":10,\"end_ns\":25}\n"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
