//! What the ledger measures: the four workloads, their fixed rates and
//! populations, and the metric tables `BENCHMARK.json` mirrors.
//!
//! Every rate and window below is a constant calibrated once, on the
//! commit that introduced the ledger, on a 2-core machine: `selective` and
//! `fanout` keep the daemon's one core about half busy; `churn` and
//! `federated` offer far less than half of their saturation throughput,
//! because one sender thread cannot pace more (`README.md` has the table).
//! They are never adapted at run time: a faster daemon shows up as lower
//! latency at the same offered load and as a higher closed-loop throughput,
//! not as a moved operating point.

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 publisher, 256 passive subscribers on one topic.
    Fanout,
    /// 1 publisher, 1 subscriber holding a large content-filter population.
    Selective,
    /// The paper's loop: uploads, derived subscriptions, subscription
    /// writes beside event reads, against a durable autosub daemon.
    Churn,
    /// Hub and edge daemon, one peer hop, 2 KiB events.
    Federated,
}

impl Workload {
    /// Every workload, in the order a full run executes them.
    pub const ALL: [Workload; 4] = [
        Workload::Fanout,
        Workload::Selective,
        Workload::Churn,
        Workload::Federated,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fanout => "fanout",
            Workload::Selective => "selective",
            Workload::Churn => "churn",
            Workload::Federated => "federated",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fanout => {
                "256 passive subscribers on one topic: offer, wake batching, encode cache and socket writes do the work; the matcher sees one filter"
            }
            Workload::Selective => {
                "one subscriber holding 50000 content filters (30% duplicates): IndexMatcher and publish decode dominate; the write path is trivial"
            }
            Workload::Churn => {
                "the paper's loop on a durable autosub daemon: click uploads, derived subscriptions and subscribe/unsubscribe writes beside event reads"
            }
            Workload::Federated => {
                "hub and edge daemon, 2 KiB events: exactly one peer hop and byte-bound codec, copy and reassembly costs"
            }
        }
    }

    /// The fixed offered loads and populations of this workload.
    pub fn load(self) -> Load {
        match self {
            Workload::Fanout => Load {
                publish_per_s: 400.0,
                publish_window: 8,
                event_bytes: 64,
                ..Load::default()
            },
            Workload::Selective => Load {
                publish_per_s: 150.0,
                publish_window: 16,
                event_bytes: 64,
                ..Load::default()
            },
            Workload::Churn => Load {
                publish_per_s: 1_000.0,
                publish_window: 16,
                event_bytes: 256,
                upload_per_s: 40.0,
                upload_window: 4,
                pair_per_s: 400.0,
                probe_per_s: 8.0,
            },
            Workload::Federated => Load {
                publish_per_s: 4_000.0,
                publish_window: 16,
                event_bytes: 2048,
                ..Load::default()
            },
        }
    }
}

/// Fixed offered loads of one workload. Open-loop lanes run at their
/// `*_per_s` rate in every phase; in the saturation phase publishes run
/// closed-loop with `publish_window` of them in flight instead, and in
/// `churn`'s upload-saturation phase uploads do with `upload_window`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Load {
    /// Publishes per second in the open-loop phases.
    pub publish_per_s: f64,
    /// Publishes in flight in the saturation phase.
    pub publish_window: usize,
    /// Approximate serialized size of one event.
    pub event_bytes: usize,
    /// 100-click uploads per second (`churn`).
    pub upload_per_s: f64,
    /// Uploads in flight in the upload-saturation phase (`churn`).
    pub upload_window: usize,
    /// Subscribe/Unsubscribe pairs per second (`churn`).
    pub pair_per_s: f64,
    /// Probe uploads per second, each must trigger `FeedChanged` (`churn`).
    pub probe_per_s: f64,
}

/// Subscriber sockets of `fanout`.
pub const FANOUT_SUBSCRIBERS: usize = 256;
/// Content filters the `selective` subscriber holds.
pub const SELECTIVE_FILTERS: usize = 50_000;
/// Distinct symbols the content-filter population draws from.
pub const SYMBOLS: usize = 2_000;
/// Share of a content-filter population that exactly duplicates another
/// member (auto-derived filters repeat across users).
pub const DUPLICATE_SHARE: f64 = 0.30;
/// Static background filters socket A of `churn` holds.
pub const CHURN_BACKGROUND_FILTERS: usize = 20_000;
/// Enrolled `reef_simweb` users of `churn` (their feeds are delivered).
pub const CHURN_READERS: usize = 200;
/// Further simulated users whose 100-click batches are uploaded during
/// the run. They are not enrolled, so the derived subscription set — and
/// with it the delivery oracle — stays exact while uploads flow.
pub const CHURN_UPLOADERS: usize = 40;
/// Days of browsing generated per simulated user.
pub const CHURN_DAYS: u32 = 4;
/// Clicks of that browsing each user keeps: the same upload volume on
/// every seed.
pub const CHURN_CLICKS_PER_READER: usize = 400;
/// Feeds derived by more readers than this are not published on; events
/// go in turn to feeds held by 1, 2, … this many readers.
pub const CHURN_MAX_COPIES: usize = 3;
/// Clicks per upload batch.
pub const UPLOAD_CLICKS: usize = 100;
/// Clicks in one probe upload (as `exp_autosub_wire` probes).
pub const PROBE_CLICKS: usize = 5;
/// Autosub refresh cadence of the `churn` daemon.
pub const AUTOSUB_REFRESH_MS: u64 = 50;
/// `topic = feed/<n>` filters each `federated` subscriber holds.
pub const FEDERATED_FEEDS: usize = 64;
/// Events in a workload's publish pool; the sender cycles through it and
/// stamps a fresh sequence number on every send.
pub const EVENT_POOL: usize = 1_024;
/// Windows each measured phase is cut into.
pub const WINDOWS: usize = 5;
/// A delivery or reply not seen this long after its phase ended is missing.
pub const MISSING_AFTER_SECS: u64 = 5;
/// A run is invalid when `gen.late_p90_us` exceeds this share of
/// `deliver_p50_us`: more than one open-loop operation in ten was then
/// picked up later than a twentieth of the median latency, and the
/// generator, not the daemon, shaped what the run reports. Below the limit
/// the reported median lies between the 50th and the 60th percentile of
/// what a punctual generator would have seen, give or take that twentieth.
/// (The limit fired on the ledger's own first schedule, whose lanes started
/// together: see `Lane::phase_ns`. The last few percent cannot be held to
/// it on the reference VM — the hypervisor takes the CPU away for tens of
/// microseconds now and then — so `gen.late_p99_us` is reported to be read
/// beside `deliver_p99_us`.)
pub const MAX_LATE_SHARE: f64 = 0.05;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which are not gated).
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of `reefd` sees, reported by every
/// workload from the untraced run, each with a regression bound.
///
/// The driver takes one bound per metric, so each has to hold on the
/// metric's noisiest workload. Each is twice the widest run-to-run spread
/// (IQR/median over ten runs on ten seeds) any workload showed for that
/// metric on the 2-core reference VM, rounded up to a whole tenth and
/// capped at the driver's 25 %; `setup_s`, by contract, carries the largest.
/// The spreads behind them are in `README.md`. `deliver_p99_us` spread by
/// up to 28 %, beyond the widest bound the driver accepts, and is a
/// per-layer metric for that reason.
pub const END_TO_END: &[MetricDef] = &[
    gate("setup_s", "s", Lower, 0.25),
    gate("deliver_p50_us", "us", Lower, 0.25),
    gate("deliveries_per_s", "1/s", Higher, 0.20),
    gate("daemon_cpu_us_per_delivery", "us", Lower, 0.25),
    gate("daemon_rss_mb", "MB", Lower, 0.20),
];

/// The per-layer metrics, reported by every workload from the traced run.
/// `deliver_p99_us` heads the list as the demoted tail of the delivery
/// latency. The `churn.*` rows are the client-visible latencies of the paper's loop;
/// the driver's contract wants one metric set for all workloads, and three
/// of the four never subscribe, upload or enrol during a run, so these are
/// listed here (reading 0 outside `churn`) instead of being gated.
pub const PER_LAYER: &[MetricDef] = &[
    layer("deliver_p99_us", "us", Lower),
    layer("churn.subscribe_ack_p50_us", "us", Lower),
    layer("churn.subscribe_ack_p99_us", "us", Lower),
    layer("churn.upload_ack_p50_us", "us", Lower),
    layer("churn.upload_ack_p99_us", "us", Lower),
    layer("churn.clicks_per_s", "1/s", Higher),
    layer("churn.autosub_derive_p50_ms", "ms", Lower),
    layer("churn.click_to_feed_p50_ms", "ms", Lower),
    layer("frame.decode_ns", "ns", Lower),
    layer("frame.bytes_per_frame", "B", Lower),
    layer("codec.v2.decode_publish_ns", "ns", Lower),
    layer("codec.v2.encode_deliver_ns", "ns", Lower),
    layer("codec.v2.decode_deliver_ns", "ns", Lower),
    layer("codec.v2.deliver_bytes", "B", Lower),
    layer("codec.v2.encode_peer_ns", "ns", Lower),
    layer("codec.v2.decode_peer_ns", "ns", Lower),
    layer("codec.v2.decode_upload_ns", "ns", Lower),
    layer("codec.v2.upload_bytes_per_click", "B", Lower),
    layer("codec.v1.decode_publish_ns", "ns", Lower),
    layer("codec.v1.encode_deliver_ns", "ns", Lower),
    layer("codec.v1.deliver_bytes", "B", Lower),
    layer("matcher.match_ns", "ns", Lower),
    layer("matcher.matched_per_event", "count", Lower),
    layer("matcher.insert_ns", "ns", Lower),
    layer("matcher.remove_ns", "ns", Lower),
    layer("matcher.clone_ms", "ms", Lower),
    layer("broker.publish_ns", "ns", Lower),
    layer("broker.offer_ns_per_target", "ns", Lower),
    layer("broker.deliver_ns", "ns", Lower),
    layer("broker.subscribe_ns", "ns", Lower),
    layer("broker.unsubscribe_ns", "ns", Lower),
    layer("broker.subscribe_max_us", "us", Lower),
    layer("broker.snapshot_swaps", "count", Lower),
    layer("overlay.handle_event_ns", "ns", Lower),
    layer("overlay.handle_sub_ns", "ns", Lower),
    layer("routing.handle_event_ns", "ns", Lower),
    layer("routing.refresh_ns", "ns", Lower),
    layer("persist.append_us", "us", Lower),
    layer("store.ingest_us", "us", Lower),
    layer("persist.wal_bytes_per_click", "B", Lower),
    layer("persist.snapshot_ms", "ms", Lower),
    layer("persist.recover_ms", "ms", Lower),
    layer("autosub.observe_full_us", "us", Lower),
    layer("autosub.observe_incr_us", "us", Lower),
    layer("autosub.diff_ops", "count", Lower),
    layer("client.encode_publish_ns", "ns", Lower),
    layer("client.ping_rtt_us", "us", Lower),
    layer("client.publish_rtt_us", "us", Lower),
    layer("loop.wakeups_per_event", "count", Lower),
    layer("loop.read_events_per_frame", "count", Lower),
    layer("loop.write_events_per_delivery", "count", Lower),
    layer("loop.coalesced_share", "%", Higher),
    layer("wire.bytes_out_per_delivery", "B", Lower),
    layer("wire.delivery_drops", "count", Lower),
    layer("wire.errors", "count", Lower),
    layer("daemon.cpu_user_s", "s", Lower),
    layer("daemon.cpu_sys_s", "s", Lower),
    layer("daemon.ctx_switches", "count", Lower),
    layer("daemon.rss_per_conn_kb", "kB", Lower),
    layer("fed.hop_us", "us", Lower),
    layer("fed.peer_bytes_per_event", "B", Lower),
    layer("fed.events_forwarded", "count", Higher),
    layer("fed.events_dropped", "count", Lower),
    layer("fed.subs_aggregated", "count", Higher),
    layer("autosub.rt.derived", "count", Higher),
    layer("autosub.rt.retired", "count", Lower),
    layer("autosub.rt.last_refresh_us", "us", Lower),
    layer("gen.late_p90_us", "us", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.cpu_share", "%", Lower),
    layer("trace.overhead_share", "%", Lower),
    layer("path.sum_us", "us", Lower),
    layer("path.remainder_us", "us", Lower),
    layer("path.remainder_share", "%", Lower),
];

/// Look a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|def| def.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{}", workload.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.bound <= 0.25);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = metric_def("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` is data for the driver; this table is what the
    /// code reports. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        use crate::report::Json;
        let text = include_str!("../../../../../BENCHMARK.json");
        let json: Json = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).items();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").text(), Some(def.name));
                assert_eq!(entry.get("unit").text(), Some(def.unit), "{}", def.name);
                assert_eq!(entry.get("better").text(), Some(def.better.name()));
                if key == "end_to_end" {
                    assert_eq!(entry.get("bound").number(), Some(def.bound), "{}", def.name);
                }
            }
        }
        let workloads = json.get("workloads").items();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.get("name").text(), Some(workload.name()));
            assert_eq!(entry.get("why").text(), Some(workload.why()));
        }
        assert_eq!(
            json.get("paths").items()[0].text(),
            Some("crates/bench/src/bin/ledger")
        );
        // The driver's run: 8 s latency phase + 8 s saturation phase.
        assert_eq!(json.get("run_seconds").number(), Some(16.0));
    }
}
