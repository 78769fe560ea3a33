//! The server-side automatic-subscription engine — the paper's headline
//! loop run inside the daemon.
//!
//! A client enrolls a user with [`Request::AutoSubscribe`]; from then on
//! the daemon mines that user's uploaded clicks (the same
//! `DurableClickStore` that serves `UploadClicks`) with a
//! [`reef_core::AutoSubEngine`] and installs the derived filters as
//! *real broker subscriptions owned by the enrolling connection* — the
//! user starts receiving matching events without ever sending a
//! `Subscribe`. A background refresh task re-observes new clicks on a
//! fixed cadence and applies the engine's decay policy, so interests
//! that stop being reinforced are retired from the broker instead of
//! accumulating forever. Every installed/retired delta is pushed to the
//! owning connection as an unsolicited [`ServerFrame::FeedChanged`]
//! notice.
//!
//! The module splits in two:
//!
//! * [`AutosubOptions`] — the public knob set, configured through
//!   [`crate::server::BrokerServerBuilder::autosub`] and the matching
//!   `reefd --autosub*` flags;
//! * `AutosubRuntime` — the crate-private engine registry:
//!   `handle_request` enrolls/unenrolls through it, the refresh thread
//!   drives it, and the event loop drains its pending `FeedChange`
//!   notices.
//!
//! [`Request::AutoSubscribe`]: crate::protocol::Request::AutoSubscribe
//! [`ServerFrame::FeedChanged`]: crate::protocol::ServerFrame::FeedChanged

use crate::protocol::{AutoSubEntry, AutoSubPolicy, AutoSubReceipt, FeedChange};
use crate::server::ServerCore;
use crate::stats::AutosubGauges;
use parking_lot::Mutex;
use reef_core::{AutoSubConfig, AutoSubEngine, DerivedFilter};
use reef_pubsub::{Clock, FilterKey, SubscriberId, SubscriptionId, SystemClock};
use reef_simweb::UserId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default cadence of the background refresh task.
const DEFAULT_REFRESH_INTERVAL: Duration = Duration::from_millis(1000);

/// Configuration of the daemon's automatic-subscription engine.
///
/// The library default is *enabled* with the engine defaults, so
/// embedded servers and tests get working auto-subscriptions out of the
/// box; the `reefd` binary keeps the feature behind an explicit
/// `--autosub` flag.
#[derive(Debug, Clone)]
pub struct AutosubOptions {
    enabled: bool,
    default_policy: AutoSubPolicy,
    refresh_interval: Duration,
    clock: Arc<dyn Clock>,
}

impl Default for AutosubOptions {
    fn default() -> Self {
        AutosubOptions {
            enabled: true,
            default_policy: AutoSubPolicy::default(),
            refresh_interval: DEFAULT_REFRESH_INTERVAL,
            clock: SystemClock::shared(),
        }
    }
}

impl AutosubOptions {
    /// Enable or disable the subsystem. When disabled, `AutoSubscribe`
    /// requests are refused with an error reply and no refresh thread is
    /// spawned.
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Policy applied to enrollments whose `AutoSubscribe` carried no
    /// explicit policy (recommender mode, filter cap, decay half-life,
    /// score floor).
    pub fn default_policy(mut self, policy: AutoSubPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// How often the background task re-observes uploaded clicks, applies
    /// decay and installs/retires derived subscriptions (default 1 s).
    pub fn refresh_interval(mut self, interval: Duration) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Whether the subsystem is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configured refresh cadence.
    pub fn interval(&self) -> Duration {
        self.refresh_interval
    }

    /// Clock the engine's decay math reads "now" from. Defaults to
    /// [`SystemClock`]; deterministic tests inject a
    /// [`reef_pubsub::ManualClock`] so interest decay is a pure function
    /// of the schedule driving it.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }
}

/// One enrolled `(connection, user)` pair: the per-user engine plus the
/// broker subscription ids backing its currently-installed filters.
struct Enrollment {
    user: UserId,
    subscriber: SubscriberId,
    engine: AutoSubEngine,
    /// Derived filter → the broker subscription realizing it. The key
    /// holds the filter the broker and the routing core share.
    installed: HashMap<FilterKey, SubscriptionId>,
}

/// The shared registry of enrollments, driven by request handlers, the
/// refresh thread and connection teardown.
pub(crate) struct AutosubRuntime {
    options: AutosubOptions,
    state: Mutex<HashMap<(SubscriberId, u32), Enrollment>>,
    /// `FeedChange` notices queued per connection, drained by the event
    /// loop.
    notices: Mutex<HashMap<SubscriberId, Vec<FeedChange>>>,
    derived_total: AtomicU64,
    retired_total: AtomicU64,
    last_refresh_us: AtomicU64,
}

impl std::fmt::Debug for AutosubRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutosubRuntime")
            .field("enabled", &self.options.enabled)
            .field("enrollments", &self.state.lock().len())
            .finish()
    }
}

/// Map a wire policy onto the engine configuration it asks for.
fn config_of(policy: &AutoSubPolicy) -> AutoSubConfig {
    AutoSubConfig {
        mode: policy.recommender,
        max_filters: policy.max_filters as usize,
        half_life_secs: policy.half_life_secs,
        min_score: policy.min_score,
        ..AutoSubConfig::default()
    }
}

fn entry_of(derived: &DerivedFilter) -> AutoSubEntry {
    AutoSubEntry {
        filter: derived.filter.clone(),
        reason: derived.reason.clone(),
        score: derived.score,
    }
}

impl AutosubRuntime {
    pub(crate) fn new(options: AutosubOptions) -> AutosubRuntime {
        AutosubRuntime {
            options,
            state: Mutex::new(HashMap::new()),
            notices: Mutex::new(HashMap::new()),
            derived_total: AtomicU64::new(0),
            retired_total: AtomicU64::new(0),
            last_refresh_us: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.options.enabled
    }

    pub(crate) fn refresh_interval(&self) -> Duration {
        self.options.refresh_interval
    }

    /// The engine's "now" in seconds, read off the injected clock.
    fn now_secs(&self) -> f64 {
        self.options.clock.now_ms() as f64 / 1000.0
    }

    /// Enroll `user` on behalf of `subscriber`'s connection, observing
    /// the already-uploaded click history immediately so the receipt
    /// reflects what the engine derives right now. Re-enrolling replaces
    /// the previous enrollment (its installed filters are retired first,
    /// then re-derived from scratch under the new policy).
    pub(crate) fn enroll(
        &self,
        core: &ServerCore,
        subscriber: SubscriberId,
        user: UserId,
        policy: Option<AutoSubPolicy>,
    ) -> Result<AutoSubReceipt, String> {
        if !self.options.enabled {
            return Err("automatic subscriptions are disabled on this daemon".into());
        }
        let policy = policy.unwrap_or_else(|| self.options.default_policy.clone());
        let mut state = self.state.lock();
        if let Some(mut old) = state.remove(&(subscriber, user.0)) {
            self.retire_enrollment(core, &mut old);
        }
        let mut enrollment = Enrollment {
            user,
            subscriber,
            engine: AutoSubEngine::new(user, config_of(&policy)),
            installed: HashMap::new(),
        };
        let now = self.now_secs();
        let diff = {
            let clicks = core.clicks.lock();
            enrollment.engine.observe(clicks.clicks_of(user), now)
        };
        // The receipt itself carries the initial state, so enrollment
        // queues no FeedChange notice.
        let _ = self.apply_diff(core, &mut enrollment, &diff);
        let entries: Vec<AutoSubEntry> = enrollment.engine.active().iter().map(entry_of).collect();
        state.insert((subscriber, user.0), enrollment);
        let (users, active) = Self::tally(&state);
        drop(state);
        self.record_gauges(core, users, active);
        Ok(AutoSubReceipt { user, entries })
    }

    /// Drop `user`'s enrollment on `subscriber`'s connection, retiring
    /// every engine-installed subscription from the broker. Idempotent:
    /// unenrolling an unknown user answers with an empty receipt.
    pub(crate) fn unenroll(
        &self,
        core: &ServerCore,
        subscriber: SubscriberId,
        user: UserId,
    ) -> Result<AutoSubReceipt, String> {
        if !self.options.enabled {
            return Err("automatic subscriptions are disabled on this daemon".into());
        }
        let mut state = self.state.lock();
        let entries = match state.remove(&(subscriber, user.0)) {
            Some(mut enrollment) => self.retire_enrollment(core, &mut enrollment),
            None => Vec::new(),
        };
        let (users, active) = Self::tally(&state);
        drop(state);
        self.record_gauges(core, users, active);
        Ok(AutoSubReceipt { user, entries })
    }

    /// Connection teardown: drop every enrollment owned by `subscriber`
    /// and its undelivered notices. Runs before the broker subscriber is
    /// deregistered, so the routing core sees a withdrawal for each
    /// engine-installed subscription just like manually-placed ones.
    pub(crate) fn drop_subscriber(&self, core: &ServerCore, subscriber: SubscriberId) {
        self.notices.lock().remove(&subscriber);
        let mut state = self.state.lock();
        let keys: Vec<(SubscriberId, u32)> = state
            .keys()
            .filter(|(owner, _)| *owner == subscriber)
            .copied()
            .collect();
        if keys.is_empty() {
            return;
        }
        for key in keys {
            if let Some(mut enrollment) = state.remove(&key) {
                self.retire_enrollment(core, &mut enrollment);
            }
        }
        let (users, active) = Self::tally(&state);
        drop(state);
        self.record_gauges(core, users, active);
    }

    /// One refresh cycle: re-observe every enrollment over its user's
    /// current click history, apply decay, install/retire broker
    /// subscriptions, queue `FeedChange` notices and refresh the gauges.
    pub(crate) fn refresh(&self, core: &ServerCore) {
        if !self.options.enabled {
            return;
        }
        let started = Instant::now();
        let now = self.now_secs();
        let mut changes: Vec<(SubscriberId, FeedChange)> = Vec::new();
        let mut state = self.state.lock();
        for enrollment in state.values_mut() {
            let diff = {
                let clicks = core.clicks.lock();
                enrollment
                    .engine
                    .observe(clicks.clicks_of(enrollment.user), now)
            };
            if let Some(change) = self.apply_diff(core, enrollment, &diff) {
                changes.push((enrollment.subscriber, change));
            }
        }
        let (users, active) = Self::tally(&state);
        drop(state);
        if !changes.is_empty() {
            let mut notices = self.notices.lock();
            for (subscriber, change) in changes {
                notices.entry(subscriber).or_default().push(change);
            }
        }
        self.last_refresh_us
            .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.record_gauges(core, users, active);
    }

    /// Drain the queued `FeedChange` notices for one connection (called
    /// from the event loop).
    pub(crate) fn take_notices(&self, subscriber: SubscriberId) -> Vec<FeedChange> {
        self.notices.lock().remove(&subscriber).unwrap_or_default()
    }

    /// Cheap emptiness probe so the epoll loop skips the per-connection
    /// drain on quiet iterations.
    #[cfg(target_os = "linux")]
    pub(crate) fn has_notices(&self) -> bool {
        !self.notices.lock().is_empty()
    }

    /// Install `diff.installed` as broker subscriptions and retire
    /// `diff.retired` from the broker and routing core, returning the
    /// notice describing what actually changed (None when nothing did).
    fn apply_diff(
        &self,
        core: &ServerCore,
        enrollment: &mut Enrollment,
        diff: &reef_core::AutoSubDiff,
    ) -> Option<FeedChange> {
        if diff.is_empty() {
            return None;
        }
        let mut installed = Vec::new();
        for derived in &diff.installed {
            // One copy of the filter for the broker, the routing core and
            // this registry.
            let filter = Arc::new(derived.filter.clone());
            match core
                .broker
                .subscribe(enrollment.subscriber, Arc::clone(&filter))
            {
                Ok(id) => {
                    core.federation.local_subscribe(id, Arc::clone(&filter));
                    enrollment.installed.insert(FilterKey::new(filter), id);
                    self.derived_total.fetch_add(1, Ordering::Relaxed);
                    installed.push(entry_of(derived));
                }
                Err(_) => {
                    // The subscriber is gone (connection raced away) or
                    // the broker refused the filter; count it and move on.
                    core.stats.record_error();
                }
            }
        }
        let mut retired = Vec::new();
        for derived in &diff.retired {
            if let Some(id) = enrollment.installed.remove(&FilterKey::of(&derived.filter)) {
                let _ = core.broker.unsubscribe(id);
                core.federation.local_unsubscribe(id);
                self.retired_total.fetch_add(1, Ordering::Relaxed);
                retired.push(entry_of(derived));
            }
        }
        if installed.is_empty() && retired.is_empty() {
            None
        } else {
            Some(FeedChange {
                user: enrollment.user,
                installed,
                retired,
            })
        }
    }

    /// Retire every installed subscription of one enrollment, reporting
    /// what was active (strongest first, the engine's ordering).
    fn retire_enrollment(
        &self,
        core: &ServerCore,
        enrollment: &mut Enrollment,
    ) -> Vec<AutoSubEntry> {
        let entries: Vec<AutoSubEntry> = enrollment
            .engine
            .retire_all()
            .iter()
            .map(entry_of)
            .collect();
        for (_, id) in enrollment.installed.drain() {
            let _ = core.broker.unsubscribe(id);
            core.federation.local_unsubscribe(id);
            self.retired_total.fetch_add(1, Ordering::Relaxed);
        }
        entries
    }

    fn tally(state: &HashMap<(SubscriberId, u32), Enrollment>) -> (u64, u64) {
        let users = state.len() as u64;
        let active = state
            .values()
            .map(|enrollment| enrollment.installed.len() as u64)
            .sum();
        (users, active)
    }

    fn record_gauges(&self, core: &ServerCore, users: u64, active: u64) {
        core.stats.record_autosub(&AutosubGauges {
            users,
            active,
            derived: self.derived_total.load(Ordering::Relaxed),
            retired: self.retired_total.load(Ordering::Relaxed),
            last_refresh_us: self.last_refresh_us.load(Ordering::Relaxed),
        });
    }
}
