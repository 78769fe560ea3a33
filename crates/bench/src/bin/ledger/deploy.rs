//! Set-up: spawn the daemons, open and handshake every socket, install
//! subscriptions, histories and enrolments — the interval `setup_s` times.

use crate::conn::Conn;
use crate::daemon::{Daemon, DaemonOpts};
use crate::gen::{steady_feeds, Inputs, UserHistory, PROBE_USER_BASE};
use crate::spec::{Workload, AUTOSUB_REFRESH_MS};
use crate::Res;
use reef_attention::ClickBatch;
use reef_core::{AutoSubConfig, AutoSubEngine};
use reef_pubsub::Filter;
use reef_simweb::UserId;
use reef_wire::{Request, Response};
use std::time::{Duration, Instant};

/// Clicks per upload while a reader's history is installed during set-up.
const HISTORY_CHUNK: usize = 500;

/// How long set-up waits for the daemons to settle (peer link up,
/// advertisements crossed, first autosub refresh applied).
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);

/// A deployed workload: running daemons and connected, installed sockets.
#[derive(Debug)]
pub struct Deployment {
    /// The daemons; daemon 0 is where the publisher connects.
    pub daemons: Vec<Daemon>,
    /// One `Stats` connection per daemon, never used for load.
    pub control: Vec<Conn>,
    /// The publishing socket.
    pub publisher: Conn,
    /// Subscriber sockets, in `Inputs::sockets` order.
    pub subscribers: Vec<Conn>,
    /// Spawn of the first daemon → everything installed and settled.
    pub setup_s: f64,
    /// `AutoSubscribe` round trips of the enrolled readers (`churn`), ms.
    pub derive_ms: Vec<f64>,
}

/// The filters each subscriber socket holds once set-up has settled: the
/// static ones from the plan plus, on `churn`'s browser socket, every
/// reader's derived feeds — one subscription per reader per feed, which is
/// where the duplicate ratio of auto-derived filters comes from.
pub fn settled_filters(inputs: &Inputs) -> Vec<Vec<Filter>> {
    let mut per_socket: Vec<Vec<Filter>> =
        inputs.sockets.iter().map(|s| s.filters.clone()).collect();
    if let Some(churn) = &inputs.churn {
        per_socket[0].extend(churn.readers.iter().flat_map(steady_feeds));
    }
    per_socket
}

/// Poll `probe` until it holds or [`SETTLE_TIMEOUT`] passes.
fn settle(what: &str, mut probe: impl FnMut() -> Res<bool>) -> Res<()> {
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    while !probe()? {
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}").into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

impl Deployment {
    /// Bring the workload up. `probes` probe users are enrolled (with empty
    /// histories) on `churn`'s browser socket for the run to trigger.
    /// The daemons are confined to `daemon_cpus` (empty: unconfined).
    pub fn set_up(inputs: &Inputs, probes: u32, daemon_cpus: &[usize]) -> Res<Deployment> {
        let started = Instant::now();
        let churn = inputs.workload == Workload::Churn;
        // Daemons come up one at a time, and each spoke's peer link is
        // waited for before anything else connects: the daemons shard
        // sockets by descriptor number, so the order in which they accept
        // decides which event loop serves which socket. A fixed order
        // keeps that placement the same on every run.
        let mut daemons: Vec<Daemon> = Vec::with_capacity(inputs.daemons);
        let mut control: Vec<Conn> = Vec::with_capacity(inputs.daemons);
        for i in 0..inputs.daemons {
            let opts = DaemonOpts {
                peer: daemons.first().map(|hub| hub.addr),
                durable: churn,
                autosub_refresh_ms: churn.then_some(AUTOSUB_REFRESH_MS),
                cpus: daemon_cpus.to_vec(),
            };
            let daemon = Daemon::spawn(&opts)?;
            control.push(Conn::connect(daemon.addr, &format!("ledger-control-{i}"))?);
            daemons.push(daemon);
            if i > 0 {
                let hub = &mut control[0];
                settle("the peer link to come up", || {
                    Ok(hub.stats()?.federation.peers == i as u64)
                })?;
            }
        }

        let mut subscribers = Vec::with_capacity(inputs.sockets.len());
        for plan in &inputs.sockets {
            let mut conn = Conn::connect(daemons[plan.daemon].addr, &plan.name)?;
            let requests = plan.filters.iter().map(|filter| Request::Subscribe {
                filter: filter.clone(),
            });
            for reply in conn.request_all(requests)? {
                if !matches!(reply, Response::Subscribed { .. }) {
                    return Err(format!("{}: subscribe refused: {reply:?}", plan.name).into());
                }
            }
            subscribers.push(conn);
        }

        let mut derive_ms = Vec::new();
        if let Some(churn) = &inputs.churn {
            let browser = &mut subscribers[0];
            for reader in &churn.readers {
                install_history(browser, reader)?;
                derive_ms.push(enrol_reader(browser, reader)?);
            }
            let enrolments = (0..probes).map(|i| Request::AutoSubscribe {
                user: UserId(PROBE_USER_BASE + i),
                policy: None,
            });
            for reply in browser.request_all(enrolments)? {
                match reply {
                    Response::AutoSubscribed { receipt } if receipt.entries.is_empty() => {}
                    other => return Err(format!("probe enrolment: {other:?}").into()),
                }
            }
            // The first refresh retires feeds sitting exactly on the install
            // threshold; wait until the daemon holds the steady set.
            let steady: u64 = churn
                .readers
                .iter()
                .map(|r| steady_feeds(r).len() as u64)
                .sum();
            let hub = &mut control[0];
            settle("the derived feed set to reach its steady state", || {
                Ok(hub.stats()?.wire.autosub_active == steady)
            })?;
        }

        if inputs.daemons > 1 {
            // Subscriptions held behind a spoke must be advertised at the
            // hub before a publish there can cross the peer link. Identical
            // filters aggregate, so count distinct ones per spoke.
            let mut advertised = 0u64;
            for spoke in 1..inputs.daemons {
                let mut keys: Vec<String> = inputs
                    .sockets
                    .iter()
                    .filter(|s| s.daemon == spoke)
                    .flat_map(|s| s.filters.iter().map(|f| format!("{f:?}")))
                    .collect();
                keys.sort();
                keys.dedup();
                advertised += keys.len() as u64;
            }
            let local: u64 = inputs
                .sockets
                .iter()
                .filter(|s| s.daemon == 0)
                .map(|s| s.filters.len() as u64)
                .sum();
            let hub = &mut control[0];
            settle("advertisements to reach the hub", || {
                Ok(hub.stats()?.federation.routing_entries >= local + advertised)
            })?;
        }

        let publisher = Conn::connect(daemons[0].addr, "ledger-publisher")?;
        Ok(Deployment {
            daemons,
            control,
            publisher,
            subscribers,
            setup_s: started.elapsed().as_secs_f64(),
            derive_ms,
        })
    }

    /// Close every socket and stop every daemon, waiting for each to exit.
    /// Returns the data directories the daemons leave behind.
    pub fn tear_down(self) -> Vec<std::path::PathBuf> {
        drop(self.publisher);
        drop(self.subscribers);
        drop(self.control);
        // Spokes first, so no daemon logs a lost peer on the way out.
        self.daemons
            .into_iter()
            .rev()
            .filter_map(Daemon::stop)
            .collect()
    }
}

/// Upload one reader's whole history and check every receipt.
fn install_history(browser: &mut Conn, reader: &UserHistory) -> Res<()> {
    let uploads = reader
        .clicks
        .chunks(HISTORY_CHUNK)
        .map(|chunk| Request::UploadClicks {
            batch: ClickBatch {
                user: reader.user,
                clicks: chunk.to_vec(),
            },
        });
    let mut accepted = 0u64;
    for reply in browser.request_all(uploads)? {
        match reply {
            Response::ClicksAccepted { receipt } if receipt.rejected == 0 => {
                accepted += receipt.accepted;
            }
            other => return Err(format!("history upload of {}: {other:?}", reader.user).into()),
        }
    }
    if accepted != reader.clicks.len() as u64 {
        return Err(format!(
            "{}: {} clicks uploaded, {accepted} accepted",
            reader.user,
            reader.clicks.len()
        )
        .into());
    }
    Ok(())
}

/// Enrol one reader, time the `AutoSubscribe` round trip (derive +
/// install over the full history) and hold the receipt against an
/// in-process `AutoSubEngine` run on the same clicks.
fn enrol_reader(browser: &mut Conn, reader: &UserHistory) -> Res<f64> {
    let started = Instant::now();
    let reply = browser.request(Request::AutoSubscribe {
        user: reader.user,
        policy: None,
    })?;
    let millis = started.elapsed().as_secs_f64() * 1e3;
    let Response::AutoSubscribed { receipt } = reply else {
        return Err(format!("enrolment of {}: {reply:?}", reader.user).into());
    };
    let mut engine = AutoSubEngine::new(reader.user, AutoSubConfig::default());
    engine.observe(&reader.clicks, 0.0);
    let mut want: Vec<String> = engine
        .active()
        .iter()
        .map(|d| format!("{:?}", d.filter))
        .collect();
    let mut got: Vec<String> = receipt
        .entries
        .iter()
        .map(|e| format!("{:?}", e.filter))
        .collect();
    want.sort();
    got.sort();
    if want != got {
        return Err(format!(
            "{}: daemon derived {got:?}, the in-process engine {want:?}",
            reader.user
        )
        .into());
    }
    Ok(millis)
}
