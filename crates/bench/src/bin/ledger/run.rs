//! The generator: one sender (the calling thread) and one receiver thread
//! driving a deployed workload through its phases.
//!
//! The sender walks fixed-rate [`Pacer`] schedules (open loop) or keeps a
//! fixed window of operations in flight (closed loop), encodes each
//! operation when it falls due and writes it to its socket. The receiver
//! owns the read side of **every** socket on one `reef_wire::poll::Epoll`,
//! reassembles frames with `FrameDecoder`, decodes them with the default
//! `WireCodec`, stamps them and holds each delivery against the oracle.
//! Both sides only log; all metrics are computed after the run from the
//! logs, with one `Instant` epoch shared by both threads.

use crate::conn::{codec, Conn};
use crate::daemon::ProcSample;
use crate::deploy::Deployment;
use crate::gen::{Inputs, Series, PROBE_USER_BASE, SEQ_ATTR};
use crate::oracle::{DeliveryCheck, Expected};
use crate::pacer::Pacer;
use crate::sched::prefer_this_thread;
use crate::spec::{Load, MISSING_AFTER_SECS, PROBE_CLICKS, UPLOAD_CLICKS, WINDOWS};
use crate::trace::Span;
use crate::Res;
use reef_pubsub::SubscriptionId;
use reef_wire::poll::{Epoll, EpollEvent, EPOLLIN};
use reef_wire::{ClientFrame, FrameDecoder, Request, Response, ServerFrame, ServerStats};
use std::io::Read;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// The kinds of operation the sender issues, one lane each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// `Publish` on the publisher socket; complete when the reply and
    /// every expected delivery have arrived.
    Publish = 0,
    /// 100-click `UploadClicks` on the browser socket.
    Upload = 1,
    /// `Subscribe` half of a pair, on the browser socket.
    Subscribe = 2,
    /// `Unsubscribe` half of a pair, half an interval later.
    Unsubscribe = 3,
    /// Probe upload; complete when its `FeedChanged` notice arrives.
    Probe = 4,
    /// `Ping` on the publisher socket.
    Ping = 5,
}

/// Number of lanes.
pub const LANES: usize = 6;

impl Lane {
    const ALL: [Lane; LANES] = [
        Lane::Publish,
        Lane::Upload,
        Lane::Subscribe,
        Lane::Unsubscribe,
        Lane::Probe,
        Lane::Ping,
    ];

    /// Correlation id of this lane's operation `index`.
    fn corr(self, index: u64) -> u64 {
        (self as u64) << 56 | index
    }

    /// How far into a phase this lane's schedule starts. Lanes whose
    /// intervals are multiples of one another (`churn`: 1 ms, 2.5 ms,
    /// 25 ms, 125 ms) would otherwise fall due in the same instant over
    /// and over, and the one sender would pick every second one up late.
    /// The second half of a pair trails the first by half a beat.
    fn phase_ns(self) -> u64 {
        match self {
            Lane::Publish | Lane::Ping => 0,
            Lane::Upload => 250_000,
            Lane::Probe => 500_000,
            Lane::Subscribe => 625_000,
            Lane::Unsubscribe => 1_875_000,
        }
    }

    /// Split a correlation id back into lane and index.
    fn of_corr(corr: u64) -> Option<(Lane, u64)> {
        let lane = *Lane::ALL.get((corr >> 56) as usize)?;
        Some((lane, corr & ((1 << 56) - 1)))
    }
}

/// How a lane is driven during one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Not used in this phase.
    Idle,
    /// Open loop at this many operations a second.
    Open(f64),
    /// Closed loop with this many operations in flight.
    Closed(usize),
}

/// What a phase is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Fills caches and lazy set-up; not reported.
    Warmup,
    /// Open loop at the fixed rates; latencies are taken here.
    Latency,
    /// The latency phase again with spans recorded.
    Traced,
    /// Publishes closed loop, everything else at its fixed rate;
    /// delivery throughput is taken here.
    Saturation,
    /// Uploads closed loop, everything else at its fixed rate; click
    /// throughput is taken here (`churn`, traced run only).
    UploadSaturation,
    /// One `Ping` in flight on an otherwise idle daemon.
    PingProbe,
    /// One `Publish` in flight on an otherwise idle daemon.
    PublishProbe,
}

impl PhaseKind {
    /// How each lane is driven in this phase under `load`.
    pub fn drives(self, load: &Load) -> [Drive; LANES] {
        let open = |rate: f64| {
            if rate > 0.0 {
                Drive::Open(rate)
            } else {
                Drive::Idle
            }
        };
        let mut drives = [
            open(load.publish_per_s),
            open(load.upload_per_s),
            open(load.pair_per_s),
            open(load.pair_per_s),
            open(load.probe_per_s),
            Drive::Idle,
        ];
        match self {
            PhaseKind::Warmup | PhaseKind::Latency | PhaseKind::Traced => {}
            PhaseKind::Saturation => {
                drives[Lane::Publish as usize] = Drive::Closed(load.publish_window);
            }
            PhaseKind::UploadSaturation => {
                drives[Lane::Upload as usize] = Drive::Closed(load.upload_window);
            }
            PhaseKind::PingProbe => {
                drives = [Drive::Idle; LANES];
                drives[Lane::Ping as usize] = Drive::Closed(1);
            }
            PhaseKind::PublishProbe => {
                drives = [Drive::Idle; LANES];
                drives[Lane::Publish as usize] = Drive::Closed(1);
            }
        }
        drives
    }
}

/// Completion slots are kept in rings this large; no lane ever has this
/// many operations in flight.
const RING: usize = 1 << 16;

/// The sender sleeps until this long before an operation is due and spins
/// the rest. On the reference VM a real-time thread is usually back on
/// its CPU 25 us after its timer fires, but one wake-up in fifteen takes
/// 50 to 90 us (the receiver, on the same CPU, is inside a system call);
/// one in the default class also waits out the timer slack (50 us) and, at
/// worst, the running thread's slice.
const SPIN_NS_REALTIME: u64 = 100_000;
/// See [`SPIN_NS_REALTIME`].
const SPIN_NS_DEFAULT: u64 = 150_000;

/// An operation that depends on a reply not yet seen is retried this
/// much later.
const RETRY_NS: u64 = 100_000;

/// State both threads touch while a run is in progress.
struct Shared {
    epoch: Instant,
    stop: AtomicBool,
    /// Record receive-side spans for sampled publishes.
    tracing: AtomicBool,
    trace_every: AtomicU64,
    /// A closed-loop lane is waiting on completions: unpark the sender.
    wake_sender: AtomicBool,
    /// Replies and deliveries still owed per in-flight publish.
    remaining: Vec<AtomicU32>,
    /// Completed operations per lane.
    done: [AtomicU64; LANES],
    /// Subscription id + 1 of each in-flight pair (0: reply not yet seen).
    pair_ids: Vec<AtomicU64>,
    /// When the sender's `write` of a traced publish returned.
    written_ns: Vec<AtomicU64>,
    sender: Thread,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn complete(&self, lane: Lane) {
        self.done[lane as usize].fetch_add(1, Ordering::Release);
        if self.wake_sender.load(Ordering::Relaxed) {
            self.sender.unpark();
        }
    }

    /// One reply or delivery of publish `seq` arrived.
    fn publish_progress(&self, seq: u64) {
        // AcqRel pairs with the sender's Release store that armed the slot.
        if self.remaining[seq as usize % RING].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.complete(Lane::Publish);
        }
    }
}

/// One operation as the sender saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentOp {
    /// When it was due (closed loop: when the window had room).
    pub due_ns: u64,
    /// When the sender picked it up (how late the generator ran).
    pub picked_ns: u64,
}

/// Daemon CPU and counters at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Nanoseconds since the epoch.
    pub at_ns: u64,
    /// `/proc` sample per daemon.
    pub daemons: Vec<ProcSample>,
}

/// What one phase did, in the terms post-processing needs.
#[derive(Debug, Clone)]
pub struct PhaseLog {
    /// What the phase was for.
    pub kind: PhaseKind,
    /// First instant of the phase.
    pub start_ns: u64,
    /// End of the scheduled part (the drain follows).
    pub end_ns: u64,
    /// Per lane: index of the first operation issued in this phase.
    pub first: [u64; LANES],
    /// Per lane: one past the last operation issued in this phase.
    pub last: [u64; LANES],
    /// CPU samples at every window boundary (`WINDOWS + 1` of them).
    pub boundaries: Vec<Snapshot>,
    /// Daemon counters before the first and after the last operation.
    pub stats: (Vec<ServerStats>, Vec<ServerStats>),
    /// The generator's own CPU over the phase.
    pub generator: (ProcSample, ProcSample),
    /// Context switches of all daemons over the phase.
    pub ctx_switches: u64,
    /// Operations that were still unanswered when the drain gave up.
    pub unanswered: u64,
}

impl PhaseLog {
    /// Length of the scheduled part in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Which window an instant of this phase falls into.
    pub fn window_of(&self, at_ns: u64) -> Option<usize> {
        if at_ns < self.start_ns || at_ns >= self.end_ns {
            return None;
        }
        let len = (self.end_ns - self.start_ns) as u128;
        let offset = (at_ns - self.start_ns) as u128;
        Some(((offset * WINDOWS as u128 / len) as usize).min(WINDOWS - 1))
    }
}

/// Everything the receiver saw.
#[derive(Debug)]
pub struct RxLog {
    /// `(seq, arrival)` of every correct delivery, per latency series.
    pub deliveries: [Vec<(u32, u64)>; 2],
    /// `(index, arrival)` of every reply, per lane.
    pub replies: [Vec<(u32, u64)>; LANES],
    /// `(probe index, arrival)` of every probe's `FeedChanged` notice.
    pub feed_changes: Vec<(u32, u64)>,
    /// The delivery oracle's verdicts.
    pub check: DeliveryCheck,
    /// `Error` replies.
    pub error_replies: u64,
    /// Replies whose content contradicts the oracle (wrong receipt,
    /// wrong delivered count, drops, notices for the wrong user).
    pub wrong_replies: u64,
    /// Receive-side spans of the traced phase.
    pub spans: Vec<Span>,
}

struct RxSocket {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Index and series when this is a subscriber socket.
    subscriber: Option<(usize, Series)>,
}

struct Receiver {
    shared: Arc<Shared>,
    sockets: Vec<RxSocket>,
    log: RxLog,
    /// `Published` replies are checked against the oracle's total only
    /// when every subscriber is local to the publisher's daemon.
    single_daemon: bool,
}

impl Receiver {
    fn run(mut self) -> Res<RxLog> {
        let epoll = Epoll::new()?;
        for (token, socket) in self.sockets.iter().enumerate() {
            epoll.add(socket.stream.as_raw_fd(), EPOLLIN, token as u64)?;
        }
        let mut events = vec![EpollEvent::default(); 512];
        let mut buf = vec![0u8; 64 * 1024];
        while !self.shared.stop.load(Ordering::Acquire) {
            let ready = epoll.wait(&mut events, 20)?;
            for event in &events[..ready] {
                self.drain_socket(event.data() as usize, &mut buf)?;
            }
        }
        Ok(self.log)
    }

    /// One `read` on a readable socket (level-triggered: whatever is left
    /// raises readiness again), then every complete frame it surfaced.
    fn drain_socket(&mut self, token: usize, buf: &mut [u8]) -> Res<()> {
        let tracing = self.shared.tracing.load(Ordering::Relaxed);
        let read_start = if tracing { self.shared.now_ns() } else { 0 };
        let socket = &mut self.sockets[token];
        let n = socket.stream.read(buf)?;
        if n == 0 {
            return Err("a daemon closed a socket mid-run".into());
        }
        let read_end = if tracing { self.shared.now_ns() } else { 0 };
        socket.decoder.extend(&buf[..n]);
        loop {
            let t0 = if tracing { self.shared.now_ns() } else { 0 };
            let socket = &mut self.sockets[token];
            let Some(frame) = socket.decoder.next_frame()? else {
                return Ok(());
            };
            let t1 = if tracing { self.shared.now_ns() } else { 0 };
            let message = codec().decode_server(&frame)?;
            let at = self.shared.now_ns();
            let subscriber = socket.subscriber;
            let traced_seq = self.handle(message, subscriber, at);
            if let (true, Some(seq)) = (tracing, traced_seq) {
                let checked = self.shared.now_ns();
                let written = self.shared.written_ns[seq as usize % RING].load(Ordering::Acquire);
                let chain = [
                    ("daemon.transit", "client.write", written, read_start),
                    ("client.read", "daemon.transit", read_start, read_end),
                    ("frame.decode", "client.read", t0, t1),
                    ("codec.decode", "frame.decode", t1, at),
                    ("oracle.check", "codec.decode", at, checked),
                ];
                self.log
                    .spans
                    .extend(chain.map(|(name, parent, start, end)| Span {
                        name,
                        parent,
                        id: seq,
                        start_ns: start.min(end),
                        end_ns: end,
                    }));
            }
        }
    }

    /// Account for one decoded server frame. Returns the sequence number
    /// when it was a delivery of a publish sampled for tracing.
    fn handle(
        &mut self,
        message: ServerFrame,
        subscriber: Option<(usize, Series)>,
        at: u64,
    ) -> Option<u64> {
        match message {
            ServerFrame::Deliver(deliver) => {
                let seq = deliver.event.event.get(SEQ_ATTR).and_then(|v| v.as_i64());
                let (Some(seq), Some((socket, series))) = (seq, subscriber) else {
                    self.log.check.faults.spurious += 1;
                    return None;
                };
                let seq = seq as u64;
                if self.log.check.observe(socket, seq) {
                    self.log.deliveries[series as usize].push((seq as u32, at));
                    self.shared.publish_progress(seq);
                }
                let every = self.shared.trace_every.load(Ordering::Relaxed);
                seq.is_multiple_of(every).then_some(seq)
            }
            ServerFrame::Reply { corr, response } => {
                self.reply(corr, response, at);
                None
            }
            ServerFrame::FeedChanged(change) => {
                match change.user.0.checked_sub(PROBE_USER_BASE) {
                    Some(probe) if change.installed.len() == 1 && change.retired.is_empty() => {
                        self.log.feed_changes.push((probe, at));
                        self.shared.complete(Lane::Probe);
                    }
                    // A reader's derived set moved, or a probe derived
                    // something else than its one feed: the oracle's
                    // picture of the subscriptions no longer holds.
                    _ => self.log.wrong_replies += 1,
                }
                None
            }
        }
    }

    fn reply(&mut self, corr: u64, response: Response, at: u64) {
        let Some((lane, index)) = Lane::of_corr(corr) else {
            self.log.wrong_replies += 1;
            return;
        };
        self.log.replies[lane as usize].push((index as u32, at));
        let as_expected = match (&response, lane) {
            (
                Response::Published {
                    delivered, dropped, ..
                },
                Lane::Publish,
            ) => {
                *dropped == 0
                    && (!self.single_daemon
                        || *delivered == u64::from(self.log.check.expected().total(index)))
            }
            (Response::ClicksAccepted { receipt }, Lane::Upload) => {
                receipt.accepted == UPLOAD_CLICKS as u64 && receipt.rejected == 0
            }
            (Response::ClicksAccepted { receipt }, Lane::Probe) => {
                receipt.accepted == PROBE_CLICKS as u64 && receipt.rejected == 0
            }
            (Response::Subscribed { subscription }, Lane::Subscribe) => {
                self.shared.pair_ids[index as usize % RING]
                    .store(subscription.0 + 1, Ordering::Release);
                true
            }
            (Response::Unsubscribed { .. }, Lane::Unsubscribe) => true,
            (Response::Pong, Lane::Ping) => true,
            (Response::Error { .. }, _) => {
                self.log.error_replies += 1;
                true
            }
            _ => false,
        };
        if !as_expected {
            self.log.wrong_replies += 1;
        }
        match (lane, &response) {
            // A refused publish will never be delivered: release its slot.
            (Lane::Publish, Response::Error { .. }) => {
                self.shared.remaining[index as usize % RING].store(0, Ordering::Release);
                self.shared.complete(Lane::Publish);
            }
            (Lane::Publish, _) => self.shared.publish_progress(index),
            // A probe completes on its notice, not on its receipt.
            (Lane::Probe, Response::ClicksAccepted { .. }) => {}
            _ => self.shared.complete(lane),
        }
    }
}

/// The sending half of a run, and the handle on the receiving half.
pub struct Generator<'a> {
    shared: Arc<Shared>,
    inputs: &'a Inputs,
    load: Load,
    /// Copies owed across all sockets, per pool entry.
    totals: Vec<u32>,
    deployment: Deployment,
    receiver: Option<JoinHandle<Res<RxLog>>>,
    /// Publish templates, one per pool event; re-stamped on every send.
    templates: Vec<ClientFrame>,
    /// Next operation index per lane, running across phases.
    next: [u64; LANES],
    /// Every operation sent, per lane, indexed by operation index.
    pub sent: [Vec<SentOp>; LANES],
    /// Sender-side spans of the traced phase.
    pub spans: Vec<Span>,
    /// Effective event-loop shards of daemon 0, as `Stats` reports them.
    pub loop_threads: usize,
    /// Whether the sender got real-time priority.
    pub realtime: bool,
    spin_ns: u64,
}

impl<'a> Generator<'a> {
    /// Take over a deployment: move a clone of every socket to a fresh
    /// receiver thread and keep the originals for writing.
    pub fn start(
        inputs: &'a Inputs,
        expected: Expected,
        mut deployment: Deployment,
    ) -> Res<Generator<'a>> {
        let loop_threads = deployment.control[0].stats()?.wire.loops.len();
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            trace_every: AtomicU64::new(u64::MAX),
            wake_sender: AtomicBool::new(false),
            remaining: (0..RING).map(|_| AtomicU32::new(0)).collect(),
            done: Default::default(),
            pair_ids: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            written_ns: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            sender: std::thread::current(),
        });
        let mut sockets = Vec::with_capacity(deployment.subscribers.len() + 1);
        for (index, (conn, plan)) in deployment
            .subscribers
            .iter()
            .zip(&inputs.sockets)
            .enumerate()
        {
            sockets.push(RxSocket {
                stream: conn.stream.try_clone()?,
                decoder: FrameDecoder::new(),
                subscriber: Some((index, plan.series)),
            });
        }
        sockets.push(RxSocket {
            stream: deployment.publisher.stream.try_clone()?,
            decoder: FrameDecoder::new(),
            subscriber: None,
        });
        let totals = (0..expected.pool() as u64)
            .map(|seq| expected.total(seq))
            .collect();
        let mut deliveries = [Vec::new(), Vec::new()];
        // Reserved up front (untouched pages cost nothing): a reallocation
        // mid-run would stall the receiver and read as daemon latency.
        deliveries[0].reserve(16 << 20);
        deliveries[1].reserve(1 << 20);
        let receiver = Receiver {
            shared: Arc::clone(&shared),
            sockets,
            single_daemon: inputs.daemons == 1,
            log: RxLog {
                deliveries,
                replies: std::array::from_fn(|_| Vec::with_capacity(1 << 20)),
                feed_changes: Vec::new(),
                check: DeliveryCheck::new(expected),
                error_replies: 0,
                wrong_replies: 0,
                spans: Vec::new(),
            },
        };
        let handle = std::thread::Builder::new()
            .name("ledger-receiver".into())
            .spawn(move || receiver.run())?;
        let realtime = prefer_this_thread();
        let templates = inputs
            .events
            .iter()
            .map(|event| ClientFrame {
                corr: 0,
                request: Request::Publish {
                    event: event.clone(),
                },
            })
            .collect();
        // A write that cannot make progress for this long means the daemon
        // stopped reading; fail the run instead of hanging the harness.
        let stall = Some(Duration::from_secs(MISSING_AFTER_SECS));
        deployment.publisher.stream.set_write_timeout(stall)?;
        for conn in &deployment.subscribers {
            conn.stream.set_write_timeout(stall)?;
        }
        Ok(Generator {
            shared,
            inputs,
            load: inputs.workload.load(),
            totals,
            deployment,
            receiver: Some(handle),
            templates,
            next: [0; LANES],
            sent: Default::default(),
            spans: Vec::new(),
            loop_threads,
            realtime,
            spin_ns: if realtime {
                SPIN_NS_REALTIME
            } else {
                SPIN_NS_DEFAULT
            },
        })
    }

    /// Probe users the run may trigger: one per scheduled probe upload
    /// over `total_secs` of phases, with room to spare.
    pub fn probes_needed(load: &Load, total_secs: f64) -> u32 {
        if load.probe_per_s > 0.0 {
            (load.probe_per_s * total_secs).ceil() as u32 + 8
        } else {
            0
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            at_ns: self.shared.now_ns(),
            daemons: self
                .deployment
                .daemons
                .iter()
                .map(|d| ProcSample::take(Some(d.pid())))
                .collect(),
        }
    }

    fn stats(&mut self) -> Res<Vec<ServerStats>> {
        self.deployment
            .control
            .iter_mut()
            .map(Conn::stats)
            .collect()
    }

    fn ctx_switches(&self) -> u64 {
        self.deployment
            .daemons
            .iter()
            .map(|d| crate::daemon::ctx_switches(d.pid()))
            .sum()
    }

    /// Operations of `lane` sent but not completed.
    fn in_flight(&self, lane: Lane) -> u64 {
        self.next[lane as usize]
            .saturating_sub(self.shared.done[lane as usize].load(Ordering::Acquire))
    }

    /// Encode and write operation `next[lane]`. Returns `false` when the
    /// operation cannot go yet (an `Unsubscribe` whose `Subscribe` has not
    /// been answered).
    fn issue(&mut self, lane: Lane, due_ns: u64, traced: bool) -> Res<bool> {
        let index = self.next[lane as usize];
        let corr = lane.corr(index);
        let picked_up = self.shared.now_ns();
        let browser = 0;
        let (encoded, socket) = match lane {
            Lane::Publish => {
                let slot = index as usize % self.templates.len();
                self.shared.remaining[index as usize % RING]
                    .store(self.totals[slot] + 1, Ordering::Release);
                let frame = &mut self.templates[slot];
                frame.corr = corr;
                if let Request::Publish { event } = &mut frame.request {
                    event.set(SEQ_ATTR, index as i64);
                }
                (codec().encode_client(frame)?, None)
            }
            Lane::Ping => (
                codec().encode_client(&ClientFrame {
                    corr,
                    request: Request::Ping,
                })?,
                None,
            ),
            Lane::Upload => {
                let batch = &self.inputs.batches[index as usize % self.inputs.batches.len()];
                let request = Request::UploadClicks {
                    batch: batch.clone(),
                };
                (
                    codec().encode_client(&ClientFrame { corr, request })?,
                    Some(browser),
                )
            }
            Lane::Probe => {
                let request = Request::UploadClicks {
                    batch: Inputs::probe_batch(index as u32),
                };
                (
                    codec().encode_client(&ClientFrame { corr, request })?,
                    Some(browser),
                )
            }
            Lane::Subscribe => {
                let pairs = &self
                    .inputs
                    .churn
                    .as_ref()
                    .ok_or("pairs need churn")?
                    .pair_filters;
                self.shared.pair_ids[index as usize % RING].store(0, Ordering::Release);
                let request = Request::Subscribe {
                    filter: pairs[index as usize % pairs.len()].clone(),
                };
                (
                    codec().encode_client(&ClientFrame { corr, request })?,
                    Some(browser),
                )
            }
            Lane::Unsubscribe => {
                let id = self.shared.pair_ids[index as usize % RING].load(Ordering::Acquire);
                if id == 0 || index >= self.next[Lane::Subscribe as usize] {
                    return Ok(false);
                }
                let request = Request::Unsubscribe {
                    subscription: SubscriptionId(id - 1),
                };
                (
                    codec().encode_client(&ClientFrame { corr, request })?,
                    Some(browser),
                )
            }
        };
        let encoded_at = if traced { self.shared.now_ns() } else { 0 };
        let conn = match socket {
            Some(subscriber) => &mut self.deployment.subscribers[subscriber],
            None => &mut self.deployment.publisher,
        };
        conn.send_encoded(&encoded)?;
        let sent_ns = self.shared.now_ns();
        self.sent[lane as usize].push(SentOp {
            due_ns,
            picked_ns: picked_up,
        });
        self.next[lane as usize] += 1;
        if traced && lane == Lane::Publish {
            self.shared.written_ns[index as usize % RING].store(sent_ns, Ordering::Release);
            let chain = [
                ("gen.due", "", due_ns, picked_up),
                ("client.encode", "gen.due", picked_up, encoded_at),
                ("client.write", "client.encode", encoded_at, sent_ns),
            ];
            self.spans
                .extend(chain.map(|(name, parent, start, end)| Span {
                    name,
                    parent,
                    id: index,
                    start_ns: start.min(end),
                    end_ns: end,
                }));
        }
        Ok(true)
    }

    /// Run one phase of `secs` seconds, then wait for everything it sent
    /// to complete before handing back its log.
    pub fn phase(&mut self, kind: PhaseKind, secs: f64) -> Res<PhaseLog> {
        let drives = kind.drives(&self.load);
        let stats_before = self.stats()?;
        let ctx_before = self.ctx_switches();
        let generator_before = ProcSample::take(None);
        let first = self.next;

        let traced = kind == PhaseKind::Traced;
        if traced {
            let publishes = (self.load.publish_per_s * secs) as u64;
            let copies = self.totals.iter().map(|&t| f64::from(t)).sum::<f64>()
                / self.totals.len().max(1) as f64;
            let every = crate::trace::sample_every(publishes, copies);
            self.shared.trace_every.store(every, Ordering::Relaxed);
            self.shared.tracing.store(true, Ordering::Release);
        }
        let closed = drives.iter().any(|d| matches!(d, Drive::Closed(_)));
        self.shared.wake_sender.store(closed, Ordering::Release);

        let start_ns = self.shared.now_ns();
        let end_ns = start_ns + (secs * 1e9) as u64;
        let window_ns = (end_ns - start_ns) / WINDOWS as u64;
        let mut pacers: [Option<Pacer>; LANES] = [None; LANES];
        // Never spin for more than a quarter of an interval: a real-time
        // thread that never sleeps is throttled by the kernel for 50 ms a
        // second, and while it spins the receiver cannot run.
        let mut spin_ns = self.spin_ns;
        for lane in Lane::ALL {
            if let Drive::Open(rate) = drives[lane as usize] {
                let interval = Pacer::interval_for(rate);
                spin_ns = spin_ns.min(interval / 4);
                pacers[lane as usize] =
                    Some(Pacer::new(start_ns + lane.phase_ns(), interval, end_ns));
            }
        }
        // An operation that could not go when due is retried from here on.
        let mut retry_at = [0u64; LANES];
        let mut boundaries = Vec::with_capacity(WINDOWS + 1);

        loop {
            let now = self.shared.now_ns();
            if boundaries.len() <= WINDOWS && now >= start_ns + boundaries.len() as u64 * window_ns
            {
                boundaries.push(self.snapshot());
                continue;
            }
            // The open-loop operation that has been due the longest.
            let next_open = Lane::ALL
                .into_iter()
                .filter_map(|lane| {
                    let due = pacers[lane as usize]?.next_due()?;
                    Some((due.max(retry_at[lane as usize]), due, lane))
                })
                .min_by_key(|&(eligible, _, _)| eligible);
            if let Some((eligible, due, lane)) = next_open {
                if now >= eligible {
                    let every = self.shared.trace_every.load(Ordering::Relaxed);
                    let trace_this = traced && self.next[lane as usize].is_multiple_of(every);
                    if self.issue(lane, due, trace_this)? {
                        pacers[lane as usize]
                            .as_mut()
                            .expect("lane is paced")
                            .advance();
                    } else {
                        retry_at[lane as usize] = now + RETRY_NS;
                    }
                    continue;
                }
            }
            if now >= end_ns {
                break;
            }
            let mut progressed = false;
            for lane in Lane::ALL {
                if let Drive::Closed(window) = drives[lane as usize] {
                    if self.in_flight(lane) < window as u64 {
                        progressed |= self.issue(lane, now, false)?;
                    }
                }
            }
            if progressed {
                continue;
            }
            let next_boundary = start_ns + boundaries.len() as u64 * window_ns;
            let wake_at = next_open
                .map_or(end_ns, |(eligible, _, _)| eligible)
                .min(next_boundary)
                .min(end_ns);
            if closed {
                // Waiting for a window slot to free up must sleep, never
                // spin: the receiver needs the CPU to see the reply.
                let left = wake_at.saturating_sub(now).min(1_000_000);
                std::thread::park_timeout(Duration::from_nanos(left));
                continue;
            }
            // Sleep until `spin_ns` before the next *scheduled* operation
            // and spin from there, so that it goes out on time. An
            // operation being retried (it waits for a reply) is slept
            // towards, for the receiver's sake — but never past the point
            // where a scheduled one wants the sender awake: polling for a
            // late reply must not make the other lanes late.
            let spin_from = Lane::ALL
                .into_iter()
                .filter_map(|lane| {
                    let due = pacers[lane as usize]?.next_due()?;
                    (retry_at[lane as usize] <= due).then_some(due)
                })
                .min()
                .map_or(u64::MAX, |due| due.saturating_sub(spin_ns));
            let sleep_to = wake_at.min(spin_from);
            if now < sleep_to {
                std::thread::park_timeout(Duration::from_nanos(sleep_to - now));
            } else {
                std::hint::spin_loop();
            }
        }
        while boundaries.len() <= WINDOWS {
            boundaries.push(self.snapshot());
        }

        // Drain: everything sent must complete, or count as missing.
        let deadline = Instant::now() + Duration::from_secs(MISSING_AFTER_SECS);
        self.shared.wake_sender.store(true, Ordering::Release);
        // Pairs whose second half never went out are closed here, so the
        // next phase starts from the same static population.
        while self.next[Lane::Unsubscribe as usize] < self.next[Lane::Subscribe as usize]
            && Instant::now() < deadline
        {
            let now = self.shared.now_ns();
            if !self.issue(Lane::Unsubscribe, now, false)? {
                std::thread::park_timeout(Duration::from_micros(200));
            }
        }
        let mut unanswered = self.unanswered();
        while unanswered > 0 && Instant::now() < deadline {
            std::thread::park_timeout(Duration::from_millis(1));
            unanswered = self.unanswered();
        }
        self.shared.wake_sender.store(false, Ordering::Release);
        if traced {
            self.shared.tracing.store(false, Ordering::Release);
            self.shared.trace_every.store(u64::MAX, Ordering::Relaxed);
        }
        if unanswered > 0 {
            // Forget what will never complete, so later phases' windows
            // are not narrowed by it; it stays counted as failed.
            for lane in Lane::ALL {
                self.shared.done[lane as usize].store(self.next[lane as usize], Ordering::Release);
            }
        }

        Ok(PhaseLog {
            kind,
            start_ns,
            end_ns,
            first,
            last: self.next,
            boundaries,
            stats: (stats_before, self.stats()?),
            generator: (generator_before, ProcSample::take(None)),
            ctx_switches: self.ctx_switches().saturating_sub(ctx_before),
            unanswered,
        })
    }

    fn unanswered(&self) -> u64 {
        Lane::ALL.into_iter().map(|lane| self.in_flight(lane)).sum()
    }

    /// Stop the receiver, settle the oracle and stop the daemons. Returns
    /// the receiver's log, the deployment's set-up figures and whatever
    /// the daemons left on disk.
    pub fn finish(mut self) -> Res<Finished> {
        self.shared.stop.store(true, Ordering::Release);
        let mut log = self
            .receiver
            .take()
            .expect("finish is called once")
            .join()
            .map_err(|_| "the receiver thread panicked")??;
        log.check.finish(self.next[Lane::Publish as usize]);
        let final_stats = self.stats()?;
        let rss_kb: Vec<u64> = self
            .deployment
            .daemons
            .iter()
            .map(|d| crate::daemon::rss_hwm_kb(d.pid()))
            .collect();
        let connections = self.deployment.subscribers.len() + 1 + self.deployment.control.len();
        let derive_ms = std::mem::take(&mut self.deployment.derive_ms);
        let data_dirs = self.deployment.tear_down();
        Ok(Finished {
            log,
            sent: self.sent,
            spans: self.spans,
            final_stats,
            rss_kb,
            connections,
            derive_ms,
            data_dirs,
            loop_threads: self.loop_threads,
            sender_realtime: self.realtime,
            epoch: self.shared.epoch,
        })
    }
}

/// What a finished run hands to post-processing.
#[derive(Debug)]
pub struct Finished {
    /// Everything the receiver saw.
    pub log: RxLog,
    /// Everything the sender sent, per lane, by operation index.
    pub sent: [Vec<SentOp>; LANES],
    /// Sender-side spans.
    pub spans: Vec<Span>,
    /// Daemon counters after the last phase.
    pub final_stats: Vec<ServerStats>,
    /// Peak resident set per daemon, kB.
    pub rss_kb: Vec<u64>,
    /// Sockets the harness held open against the daemons.
    pub connections: usize,
    /// `AutoSubscribe` round trips of set-up, ms.
    pub derive_ms: Vec<f64>,
    /// Data directories left by durable daemons; the caller removes them.
    pub data_dirs: Vec<std::path::PathBuf>,
    /// Effective event-loop shards of daemon 0.
    pub loop_threads: usize,
    /// Whether the sender ran with real-time priority.
    pub sender_realtime: bool,
    /// The instant every logged time counts from.
    pub epoch: Instant,
}
