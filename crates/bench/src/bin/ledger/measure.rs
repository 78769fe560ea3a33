//! From logs to numbers: every metric that comes out of the live run.
//!
//! Each phase is cut into `WINDOWS` equal windows; a metric's value is the
//! median of its per-window values and its spread the IQR/median of them.
//! Latencies are taken from the instant an operation was **due**, and
//! assigned to the window their due time falls in.

use crate::run::{Finished, Lane, PhaseKind, PhaseLog, SentOp, LANES};
use crate::spec::{MAX_LATE_SHARE, UPLOAD_CLICKS, WINDOWS};
use crate::stats::{median, percentile, Summary};
use reef_wire::ServerStats;
use std::collections::BTreeMap;

/// Metric name → summary, in the order they were measured.
pub type Metrics = BTreeMap<&'static str, Summary>;

/// Latency samples (ns) per window of `phase`, for the records whose
/// operation was issued in that phase.
fn latency_windows(
    records: &[(u32, u64)],
    sent: &[SentOp],
    phase: &PhaseLog,
    lane: Lane,
) -> Vec<Vec<u64>> {
    let (first, last) = (phase.first[lane as usize], phase.last[lane as usize]);
    let mut windows = vec![Vec::new(); WINDOWS];
    for &(index, at) in records {
        let index = u64::from(index);
        if index < first || index >= last {
            continue;
        }
        let due = sent[index as usize].due_ns;
        if let Some(window) = phase.window_of(due) {
            windows[window].push(at.saturating_sub(due));
        }
    }
    for window in &mut windows {
        window.sort_unstable();
    }
    windows
}

/// The `p`-th percentile of every window, scaled by `unit_ns`, summarised.
fn percentile_summary(windows: &[Vec<u64>], p: f64, unit_ns: f64) -> Summary {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p) as f64 / unit_ns)
        .collect();
    let samples = windows.iter().map(|w| w.len() as u64).sum();
    Summary::of_windows(&per_window, samples)
}

/// Arrivals per window of `phase`, windows being the intervals between
/// the phase's CPU-sample boundaries.
fn arrivals_per_window(records: &[(u32, u64)], phase: &PhaseLog) -> [u64; WINDOWS] {
    let mut counts = [0u64; WINDOWS];
    let edges: Vec<u64> = phase.boundaries.iter().map(|b| b.at_ns).collect();
    for &(_, at) in records {
        if at < edges[0] || at >= edges[WINDOWS] {
            continue;
        }
        let window = edges[1..].partition_point(|&edge| edge <= at);
        counts[window.min(WINDOWS - 1)] += 1;
    }
    counts
}

/// Deliveries of both latency series that arrived in each window.
fn deliveries_per_window(finished: &Finished, phase: &PhaseLog) -> [u64; WINDOWS] {
    let mut arrived = arrivals_per_window(&finished.log.deliveries[0], phase);
    for (total, extra) in arrived
        .iter_mut()
        .zip(arrivals_per_window(&finished.log.deliveries[1], phase))
    {
        *total += extra;
    }
    arrived
}

/// Seconds each boundary-to-boundary window of `phase` lasted.
fn window_secs(phase: &PhaseLog) -> Vec<f64> {
    phase
        .boundaries
        .windows(2)
        .map(|pair| (pair[1].at_ns - pair[0].at_ns) as f64 / 1e9)
        .collect()
}

/// Events per second per window, summarised.
fn rate_summary(counts: &[u64; WINDOWS], phase: &PhaseLog, scale: f64) -> Summary {
    let per_window: Vec<f64> = counts
        .iter()
        .zip(window_secs(phase))
        .map(|(&n, secs)| n as f64 * scale / secs)
        .collect();
    Summary::of_windows(&per_window, counts.iter().sum())
}

fn find(phases: &[PhaseLog], kind: PhaseKind) -> Option<&PhaseLog> {
    phases.iter().find(|p| p.kind == kind)
}

/// The end-to-end metrics of one run (`setup_s` comes from the caller,
/// who timed the set-up).
pub fn end_to_end(finished: &Finished, phases: &[PhaseLog], setup_s: f64) -> Metrics {
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", Summary::exact(setup_s, 1));
    let publishes = &finished.sent[Lane::Publish as usize];
    let primary = &finished.log.deliveries[0];
    if let Some(latency) = find(phases, PhaseKind::Latency) {
        let windows = latency_windows(primary, publishes, latency, Lane::Publish);
        metrics.insert("deliver_p50_us", percentile_summary(&windows, 0.50, 1e3));
        metrics.insert("deliver_p99_us", percentile_summary(&windows, 0.99, 1e3));

        let arrived = deliveries_per_window(finished, latency);
        let per_window: Vec<f64> = latency
            .boundaries
            .windows(2)
            .zip(arrived)
            .filter(|(_, n)| *n > 0)
            .map(|(pair, n)| {
                let cpu_ns: u64 = pair[1]
                    .daemons
                    .iter()
                    .zip(&pair[0].daemons)
                    .map(|(after, before)| after.cpu_ns.saturating_sub(before.cpu_ns))
                    .sum();
                cpu_ns as f64 / 1e3 / n as f64
            })
            .collect();
        metrics.insert(
            "daemon_cpu_us_per_delivery",
            Summary::of_windows(&per_window, arrived.iter().sum()),
        );
    }
    if let Some(saturation) = find(phases, PhaseKind::Saturation) {
        let arrived = deliveries_per_window(finished, saturation);
        metrics.insert("deliveries_per_s", rate_summary(&arrived, saturation, 1.0));
    }
    let rss_mb = finished.rss_kb.iter().sum::<u64>() as f64 / 1024.0;
    metrics.insert("daemon_rss_mb", Summary::exact(rss_mb, 1));
    metrics
}

/// Sum a counter over every daemon's `Stats` delta across a phase.
fn delta(phase: &PhaseLog, counter: impl Fn(&ServerStats) -> u64) -> f64 {
    phase
        .stats
        .1
        .iter()
        .zip(&phase.stats.0)
        .map(|(after, before)| counter(after).saturating_sub(counter(before)))
        .sum::<u64>() as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The per-layer metrics read off the live run: client-visible `churn.*`
/// latencies, `Stats` and `/proc` deltas across the latency phase, the
/// generator's own health, and the traced phase's overhead.
pub fn per_layer_live(finished: &Finished, phases: &[PhaseLog]) -> Metrics {
    let mut metrics = Metrics::new();
    let publishes = &finished.sent[Lane::Publish as usize];
    let latency = find(phases, PhaseKind::Latency);

    // --- the paper's loop, as the browser fleet sees it (churn only)
    let lane_latency = |lane: Lane, records: &[(u32, u64)]| {
        latency.map(|phase| latency_windows(records, &finished.sent[lane as usize], phase, lane))
    };
    let subscribe = lane_latency(
        Lane::Subscribe,
        &finished.log.replies[Lane::Subscribe as usize],
    );
    let upload = lane_latency(Lane::Upload, &finished.log.replies[Lane::Upload as usize]);
    let probe = lane_latency(Lane::Probe, &finished.log.feed_changes);
    let of = |windows: &Option<Vec<Vec<u64>>>, p: f64, unit_ns: f64| {
        windows.as_ref().map_or(Summary::exact(0.0, 0), |w| {
            percentile_summary(w, p, unit_ns)
        })
    };
    metrics.insert("churn.subscribe_ack_p50_us", of(&subscribe, 0.50, 1e3));
    metrics.insert("churn.subscribe_ack_p99_us", of(&subscribe, 0.99, 1e3));
    metrics.insert("churn.upload_ack_p50_us", of(&upload, 0.50, 1e3));
    metrics.insert("churn.upload_ack_p99_us", of(&upload, 0.99, 1e3));
    metrics.insert("churn.click_to_feed_p50_ms", of(&probe, 0.50, 1e6));
    let clicks =
        find(phases, PhaseKind::UploadSaturation).map_or(Summary::exact(0.0, 0), |phase| {
            let acked = arrivals_per_window(&finished.log.replies[Lane::Upload as usize], phase);
            rate_summary(&acked, phase, UPLOAD_CLICKS as f64)
        });
    metrics.insert("churn.clicks_per_s", clicks);
    let derive: Vec<f64> = finished
        .derive_ms
        .chunks(finished.derive_ms.len().div_ceil(WINDOWS).max(1))
        .map(median)
        .collect();
    metrics.insert(
        "churn.autosub_derive_p50_ms",
        Summary::of_windows(&derive, finished.derive_ms.len() as u64),
    );

    // --- event loop, wire, broker, federation: Stats deltas, latency phase
    if let Some(phase) = latency {
        let events = delta(phase, |s| s.broker.events_published);
        let deliveries = delta(phase, |s| s.wire.deliveries);
        let exact = |value: f64, samples: f64| Summary::exact(value, samples as u64);
        metrics.insert(
            "loop.wakeups_per_event",
            exact(ratio(delta(phase, |s| s.wire.loop_wakeups), events), events),
        );
        let frames_in = delta(phase, |s| s.wire.frames_in);
        metrics.insert(
            "loop.read_events_per_frame",
            exact(
                ratio(delta(phase, |s| s.wire.loop_read_events), frames_in),
                frames_in,
            ),
        );
        metrics.insert(
            "loop.write_events_per_delivery",
            exact(
                ratio(delta(phase, |s| s.wire.loop_write_events), deliveries),
                deliveries,
            ),
        );
        let frames_out = delta(phase, |s| s.wire.frames_out);
        metrics.insert(
            "loop.coalesced_share",
            exact(
                100.0 * ratio(delta(phase, |s| s.wire.writes_coalesced), frames_out),
                frames_out,
            ),
        );
        metrics.insert(
            "wire.bytes_out_per_delivery",
            exact(
                ratio(delta(phase, |s| s.wire.bytes_out), deliveries),
                deliveries,
            ),
        );
        metrics.insert(
            "broker.snapshot_swaps",
            exact(delta(phase, |s| s.wire.matcher_swaps), 1.0),
        );
        let forwarded = delta(phase, |s| s.federation.events_forwarded);
        let peer_bytes = delta(phase, |s| {
            s.federation.binary.bytes_out + s.federation.json.bytes_out
        });
        metrics.insert(
            "fed.peer_bytes_per_event",
            exact(ratio(peer_bytes, forwarded), forwarded),
        );
        metrics.insert("fed.events_forwarded", exact(forwarded, 1.0));
        metrics.insert(
            "fed.events_dropped",
            exact(delta(phase, |s| s.federation.events_dropped), 1.0),
        );
        metrics.insert(
            "autosub.rt.derived",
            exact(delta(phase, |s| s.wire.autosub_derived), 1.0),
        );
        metrics.insert(
            "autosub.rt.retired",
            exact(delta(phase, |s| s.wire.autosub_retired), 1.0),
        );
        let last_refresh = phase
            .stats
            .1
            .iter()
            .map(|s| s.wire.autosub_last_refresh_us)
            .max()
            .unwrap_or(0);
        metrics.insert(
            "autosub.rt.last_refresh_us",
            exact(last_refresh as f64, 1.0),
        );

        let (first, last) = (&phase.boundaries[0], &phase.boundaries[WINDOWS]);
        let (mut user, mut sys) = (0.0, 0.0);
        for (after, before) in last.daemons.iter().zip(&first.daemons) {
            let (u, s) = after.user_sys_secs_since(before);
            user += u;
            sys += s;
        }
        metrics.insert("daemon.cpu_user_s", exact(user, 1.0));
        metrics.insert("daemon.cpu_sys_s", exact(sys, 1.0));
        metrics.insert("daemon.ctx_switches", exact(phase.ctx_switches as f64, 1.0));

        // --- the generator itself
        let mut late: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
        for lane in 0..LANES {
            let ops = &finished.sent[lane];
            let (first, last) = (phase.first[lane] as usize, phase.last[lane] as usize);
            // The second half of a pair waits for the first half's reply;
            // that wait is the daemon's doing, not the generator's.
            if lane == Lane::Unsubscribe as usize {
                continue;
            }
            for op in &ops[first..last] {
                if let Some(window) = phase.window_of(op.due_ns) {
                    late[window].push(op.picked_ns.saturating_sub(op.due_ns));
                }
            }
        }
        for window in &mut late {
            window.sort_unstable();
        }
        metrics.insert("gen.late_p90_us", percentile_summary(&late, 0.90, 1e3));
        metrics.insert("gen.late_p99_us", percentile_summary(&late, 0.99, 1e3));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let busy = phase
            .generator
            .1
            .cpu_ns
            .saturating_sub(phase.generator.0.cpu_ns) as f64
            / 1e9;
        metrics.insert(
            "gen.cpu_share",
            exact(100.0 * busy / (phase.secs() * cores), 1.0),
        );
    }
    let aggregated = finished
        .final_stats
        .iter()
        .map(|s| s.federation.subs_aggregated)
        .sum::<u64>();
    metrics.insert("fed.subs_aggregated", Summary::exact(aggregated as f64, 1));
    let whole_run = |counter: fn(&ServerStats) -> u64| {
        let counted: u64 = finished.final_stats.iter().map(counter).sum();
        Summary::exact(counted as f64, 1)
    };
    metrics.insert("wire.delivery_drops", whole_run(|s| s.wire.delivery_drops));
    metrics.insert("wire.errors", whole_run(|s| s.wire.errors));
    let rss_kb = finished.rss_kb.iter().sum::<u64>() as f64;
    metrics.insert(
        "daemon.rss_per_conn_kb",
        Summary::exact(rss_kb / finished.connections.max(1) as f64, 1),
    );

    // --- one peer hop, and what tracing cost
    let p50_of = |series: usize, kind: PhaseKind| {
        find(phases, kind).map(|phase| {
            let windows = latency_windows(
                &finished.log.deliveries[series],
                publishes,
                phase,
                Lane::Publish,
            );
            percentile_summary(&windows, 0.50, 1e3)
        })
    };
    let untraced = p50_of(0, PhaseKind::Latency);
    let hop = match (untraced, p50_of(1, PhaseKind::Latency)) {
        (Some(edge), Some(hub)) if hub.samples > 0 => {
            Summary::exact(edge.value - hub.value, edge.samples.min(hub.samples))
        }
        _ => Summary::exact(0.0, 0),
    };
    metrics.insert("fed.hop_us", hop);
    let overhead = match (untraced, p50_of(0, PhaseKind::Traced)) {
        (Some(plain), Some(traced)) if plain.value > 0.0 => Summary::exact(
            100.0 * (traced.value - plain.value) / plain.value,
            traced.samples,
        ),
        _ => Summary::exact(0.0, 0),
    };
    metrics.insert("trace.overhead_share", overhead);

    // --- the transport floor: one operation in flight on an idle daemon
    let round_trip = |kind: PhaseKind, lane: Lane| {
        find(phases, kind).map_or(Summary::exact(0.0, 0), |phase| {
            let windows = latency_windows(
                &finished.log.replies[lane as usize],
                &finished.sent[lane as usize],
                phase,
                lane,
            );
            percentile_summary(&windows, 0.50, 1e3)
        })
    };
    metrics.insert(
        "client.ping_rtt_us",
        round_trip(PhaseKind::PingProbe, Lane::Ping),
    );
    metrics.insert(
        "client.publish_rtt_us",
        round_trip(PhaseKind::PublishProbe, Lane::Publish),
    );
    metrics
}

/// Whether the open-loop sender held its schedule closely enough for the
/// run's latencies to be the daemon's (see [`MAX_LATE_SHARE`]).
pub fn generator_valid(metrics: &Metrics) -> bool {
    let value = |name: &str| metrics.get(name).map_or(0.0, |s| s.value);
    value("gen.late_p90_us") <= MAX_LATE_SHARE * value("deliver_p50_us")
}

/// How a run's operations fared against the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted: expected deliveries plus every request sent.
    pub attempted: u64,
    /// Operations that failed in any way.
    pub failed: u64,
}

impl Verdict {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Count attempted and failed operations, and say what failed.
pub fn verdict(finished: &Finished, phases: &[PhaseLog]) -> (Verdict, Vec<String>) {
    let check = &finished.log.check;
    let requests: u64 = finished.sent.iter().map(|ops| ops.len() as u64).sum();
    let attempted = check.correct + check.faults.missing + requests;
    let unanswered: u64 = phases.iter().map(|p| p.unanswered).sum();
    let drops: u64 = finished
        .final_stats
        .iter()
        .map(|s| s.wire.delivery_drops + s.broker.drops + s.federation.events_dropped)
        .sum();
    let mut complaints = Vec::new();
    let mut complain = |count: u64, what: &str| {
        if count > 0 {
            complaints.push(format!("{count} {what}"));
        }
        count
    };
    let failed = complain(check.faults.missing, "deliveries missing")
        + complain(check.faults.duplicate, "duplicate deliveries")
        + complain(check.faults.spurious, "spurious deliveries")
        + complain(
            check.faults.out_of_order,
            "deliveries out of publisher order",
        )
        + complain(finished.log.error_replies, "error replies")
        + complain(
            finished.log.wrong_replies,
            "replies contradicting the oracle",
        )
        + complain(unanswered, "operations unanswered after the drain")
        + complain(drops, "deliveries dropped inside the daemons");
    (Verdict { attempted, failed }, complaints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Snapshot;

    fn phase(kind: PhaseKind, start_ns: u64, end_ns: u64, ops: u64) -> PhaseLog {
        let window = (end_ns - start_ns) / WINDOWS as u64;
        PhaseLog {
            kind,
            start_ns,
            end_ns,
            first: [0; LANES],
            last: [ops; LANES],
            boundaries: (0..=WINDOWS as u64)
                .map(|i| Snapshot {
                    at_ns: start_ns + i * window,
                    daemons: Vec::new(),
                })
                .collect(),
            stats: (Vec::new(), Vec::new()),
            generator: Default::default(),
            ctx_switches: 0,
            unanswered: 0,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lands_in_the_due_window() {
        let phase = phase(PhaseKind::Latency, 1_000, 6_000, 5);
        // One operation per window, due at the window's start, each sent
        // 10 ns late and answered 100·(k+1) ns after it was due.
        let sent: Vec<SentOp> = (0..5)
            .map(|k| SentOp {
                due_ns: 1_000 + k * 1_000,
                picked_ns: 1_010 + k * 1_000,
            })
            .collect();
        let records: Vec<(u32, u64)> = (0..5u32)
            .map(|k| (k, 1_000 + u64::from(k) * 1_000 + 100 * (u64::from(k) + 1)))
            .collect();
        let windows = latency_windows(&records, &sent, &phase, Lane::Publish);
        let lens: Vec<usize> = windows.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1; 5]);
        assert_eq!(windows[4], vec![500]);
        let p50 = percentile_summary(&windows, 0.5, 1.0);
        assert_eq!(p50.value, 300.0, "median of 100..=500 by window");
        assert_eq!(p50.samples, 5);
    }

    #[test]
    fn a_generator_late_at_its_90th_percentile_invalidates_the_run() {
        let mut metrics = Metrics::new();
        metrics.insert("deliver_p50_us", Summary::exact(100.0, 1000));
        metrics.insert("gen.late_p90_us", Summary::exact(5.0, 1000));
        assert!(generator_valid(&metrics));
        metrics.insert("gen.late_p90_us", Summary::exact(5.1, 1000));
        assert!(!generator_valid(&metrics));
    }

    #[test]
    fn arrivals_are_counted_between_boundaries() {
        let phase = phase(PhaseKind::Saturation, 0, 5_000, 0);
        let records: Vec<(u32, u64)> = [0, 999, 1_000, 4_999, 5_000, 7_000]
            .into_iter()
            .map(|at| (0, at))
            .collect();
        assert_eq!(arrivals_per_window(&records, &phase), [2, 1, 0, 0, 1]);
        let rate = rate_summary(&[10, 10, 10, 10, 10], &phase, 1.0);
        assert_eq!(rate.value, 10.0 / 1e-6);
        assert_eq!(rate.spread, 0.0);
    }
}
