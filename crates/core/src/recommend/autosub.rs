//! The auto-subscription engine: decayed interest scores over a user's
//! click history, turned into filters a broker can install and retire.
//!
//! This is the server-side half of the paper's loop (§2.2): attention
//! data flows in as clicks, a recommender derives filters from it, and
//! the daemon places them as *real* subscriptions on the user's behalf.
//! The engine here is deliberately pure — it never touches a broker or
//! a clock. Callers feed it the user's full click history plus a
//! timestamp and get back a diff of filters to install and retire; the
//! wire layer (`reef-wire`'s `autosub` module) owns the actual broker
//! subscriptions and decides when to observe.
//!
//! Interest decays exponentially: each key's score is halved every
//! `half_life_secs` since it was last reinforced, so a feed the user
//! stops clicking falls below `min_score` and its derived filter is
//! retired rather than accumulating forever.
//!
//! Scores are kept as *forward decay* weights (Cormode et al., "Forward
//! Decay", ICDE 2009): every interest's weight is its score at one shared
//! landmark — the time of the last observe that consumed clicks — and
//! its score at `t` is the weight decayed from the landmark to `t`. All
//! scores share one decay factor, so between clicks the ranking never
//! changes and the derived set can only shrink, at the moment an
//! installed score crosses `min_score`. [`AutoSubEngine::next_expiry`]
//! reports that moment, which lets a caller observe on uploads and on
//! deadlines instead of on a poll, with the same derived sets at every
//! instant.

use crate::recommend::content::ContentRecommender;
use reef_attention::{host_of, looks_like_feed_url, Click};
use reef_pubsub::Filter;
use reef_simweb::UserId;
use reef_textindex::OfferWeightMode;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// Which recommender derives filters from clicks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AutoSubMode {
    /// Per-host click counts become topic subscriptions to the host's
    /// feed (the §3.2 feed case study, minus the crawler).
    #[default]
    Topic,
    /// Offer-Weight term selection over clicked-URL text becomes keyword
    /// filters (§3.3), via [`ContentRecommender`].
    Content,
}

impl AutoSubMode {
    /// Parse a mode name as used by `reefd --autosub-recommender`.
    pub fn parse(name: &str) -> Option<AutoSubMode> {
        match name {
            "topic" => Some(AutoSubMode::Topic),
            "content" => Some(AutoSubMode::Content),
            _ => None,
        }
    }

    /// The flag-style name (`topic` / `content`).
    pub fn name(self) -> &'static str {
        match self {
            AutoSubMode::Topic => "topic",
            AutoSubMode::Content => "content",
        }
    }
}

impl fmt::Display for AutoSubMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning for one user's [`AutoSubEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoSubConfig {
    /// Recommender choice.
    pub mode: AutoSubMode,
    /// At most this many derived filters are installed at once.
    pub max_filters: usize,
    /// Interest half-life in seconds: a score halves after this long
    /// without reinforcement. Non-positive disables decay.
    pub half_life_secs: f64,
    /// Scores below this never install a filter; installed filters whose
    /// score decays below it are retired.
    pub min_score: f64,
    /// Event attribute keyword filters match against (content mode).
    pub content_attr: String,
}

impl Default for AutoSubConfig {
    fn default() -> Self {
        AutoSubConfig {
            mode: AutoSubMode::Topic,
            max_filters: 4,
            half_life_secs: 600.0,
            min_score: 2.0,
            content_attr: "body".to_owned(),
        }
    }
}

/// One filter the engine currently derives (or just installed/retired),
/// with the human-readable reason the receipt and `FeedChanged` notices
/// carry.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedFilter {
    /// The filter itself.
    pub filter: Filter,
    /// Why it was derived ("topic: 5 clicks on news.example").
    pub reason: String,
    /// The interest score at derivation time.
    pub score: f64,
}

/// What one [`AutoSubEngine::observe`] pass changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutoSubDiff {
    /// Filters newly crossing the install threshold.
    pub installed: Vec<DerivedFilter>,
    /// Previously installed filters whose interest decayed away (or was
    /// displaced by stronger ones).
    pub retired: Vec<DerivedFilter>,
}

impl AutoSubDiff {
    /// `true` when the pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.installed.is_empty() && self.retired.is_empty()
    }
}

/// One scored interest (a feed URL or a keyword term).
#[derive(Debug, Clone)]
struct Interest {
    filter: Filter,
    /// Short label for reasons: the clicked host (topic) or term (content).
    label: String,
    /// The score at the engine's landmark.
    weight: f64,
    /// Clicks that ever reinforced this interest.
    clicks: u64,
}

/// Exponential decay from a landmark time.
#[derive(Debug, Clone, Copy)]
struct Decay {
    /// Seconds for a score to halve; non-positive disables decay.
    half_life: f64,
    landmark: f64,
}

impl Decay {
    /// The score at `t` of an interest weighing `weight` at the landmark.
    fn score(self, weight: f64, t: f64) -> f64 {
        let elapsed = t - self.landmark;
        if self.half_life > 0.0 && elapsed > 0.0 {
            weight * 0.5f64.powf(elapsed / self.half_life)
        } else {
            weight
        }
    }
}

/// Per-user auto-subscription state: consumes the user's click history
/// incrementally and maintains the set of derived filters.
pub struct AutoSubEngine {
    user: UserId,
    config: AutoSubConfig,
    /// Clicks of the user's history already consumed.
    seen: usize,
    /// Time (caller seconds) every interest's weight is the score at.
    landmark: f64,
    /// Time of the last observe.
    now: f64,
    interests: HashMap<String, Interest>,
    /// Keys currently published as installed filters.
    installed: BTreeSet<String>,
    /// Content-mode corpus; unused (and unallocated) in topic mode.
    content: Option<ContentRecommender>,
}

impl fmt::Debug for AutoSubEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AutoSubEngine")
            .field("user", &self.user)
            .field("mode", &self.config.mode)
            .field("seen", &self.seen)
            .field("interests", &self.interests.len())
            .field("installed", &self.installed.len())
            .finish()
    }
}

/// URL tokens that carry no interest signal (scheme, markup suffixes,
/// generic TLD-ish labels).
const URL_NOISE: [&str; 14] = [
    "http", "https", "www", "html", "htm", "php", "xml", "rss", "atom", "rdf", "feed", "index",
    "com", "example",
];

/// Clicked-URL text for the content recommender: the URL's alphanumeric
/// words minus scheme/markup noise.
fn url_text(url: &str) -> String {
    url.split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() >= 3 && !URL_NOISE.contains(&w.to_lowercase().as_str()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The feed URL a plain page click on `host` votes for. Clicks that
/// already look like feed URLs vote for themselves instead.
fn feed_url_for(url: &str) -> String {
    if looks_like_feed_url(url) {
        url.to_owned()
    } else {
        format!("http://{}/feed.xml", host_of(url))
    }
}

impl AutoSubEngine {
    /// An engine for one user.
    pub fn new(user: UserId, config: AutoSubConfig) -> Self {
        let content = match config.mode {
            AutoSubMode::Topic => None,
            AutoSubMode::Content => Some(ContentRecommender::new()),
        };
        AutoSubEngine {
            user,
            config,
            seen: 0,
            landmark: 0.0,
            now: 0.0,
            interests: HashMap::new(),
            installed: BTreeSet::new(),
            content,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AutoSubConfig {
        &self.config
    }

    /// The user this engine tracks.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Clicks of the history already consumed by [`AutoSubEngine::observe`].
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Consume any new clicks in `clicks` (the user's full history, in
    /// insertion order), decay existing interests to `now` (seconds, any
    /// monotonic origin) and return the install/retire diff.
    pub fn observe(&mut self, clicks: &[Click], now: f64) -> AutoSubDiff {
        let new = &clicks[self.seen.min(clicks.len())..];
        self.seen = clicks.len();
        self.now = now;

        // Interests decayed below this are noise: not ranked, forgotten
        // unless installed, and started afresh when clicked again.
        let floor = self.config.min_score * 1e-3;
        if !new.is_empty() {
            // Move the landmark to `now`, so every weight is today's
            // score, then apply the bumps.
            let decay = self.decay();
            for interest in self.interests.values_mut() {
                interest.weight = decay.score(interest.weight, now);
            }
            self.landmark = now;
            let bumps = match self.config.mode {
                AutoSubMode::Topic => self.topic_bumps(new),
                AutoSubMode::Content => self.content_bumps(new),
            };
            for (key, filter, label, bump, count) in bumps {
                let fresh = Interest {
                    filter,
                    label,
                    weight: 0.0,
                    clicks: 0,
                };
                let interest = match self.interests.entry(key) {
                    Entry::Occupied(entry) if entry.get().weight >= floor => entry.into_mut(),
                    Entry::Occupied(mut entry) => {
                        entry.insert(fresh);
                        entry.into_mut()
                    }
                    Entry::Vacant(entry) => entry.insert(fresh),
                };
                interest.weight += bump;
                interest.clicks += count;
            }
        }

        // Rank what clears the threshold; the strongest `max_filters` win.
        // Weights rank like scores (one shared decay factor) but do not
        // move between clicks, so neither does the ranking.
        let decay = self.decay();
        let min_score = self.config.min_score;
        let mut ranked: Vec<(&String, &Interest)> = self
            .interests
            .iter()
            .filter(|(_, i)| decay.score(i.weight, now) >= min_score)
            .collect();
        ranked.sort_by(|a, b| {
            b.1.weight
                .partial_cmp(&a.1.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        ranked.truncate(self.config.max_filters);
        let current: BTreeSet<String> = ranked.iter().map(|(k, _)| (*k).clone()).collect();

        let mut diff = AutoSubDiff::default();
        for key in &current {
            if !self.installed.contains(key) {
                diff.installed.push(self.derived(key));
            }
        }
        for key in &self.installed {
            if !current.contains(key) {
                diff.retired.push(self.derived(key));
            }
        }
        self.installed = current;

        // Forget interests that decayed to noise and are not installed.
        let installed = &self.installed;
        self.interests
            .retain(|key, i| decay.score(i.weight, now) >= floor || installed.contains(key));
        diff
    }

    /// The earliest time at which observing with no new clicks retires an
    /// installed filter, in the seconds [`AutoSubEngine::observe`] takes.
    /// `None` when nothing is installed or nothing decays.
    ///
    /// Until that time, and until the next click, every observe returns an
    /// empty diff: all scores decay by one factor, so the ranking holds
    /// and the derived set can only shrink when its weakest member falls
    /// below `min_score`. The time is exact — the first `f64` at which the
    /// comparison `observe` makes flips — and always later than the last
    /// observe, so a caller sleeping until it never spins.
    pub fn next_expiry(&self) -> Option<f64> {
        let half_life = self.config.half_life_secs;
        let min_score = self.config.min_score;
        // Policies arrive over the wire: NaN and infinite values must not
        // send the search below into an endless loop.
        if !(half_life > 0.0 && half_life.is_finite() && min_score > 0.0) {
            return None;
        }
        let weight = self
            .installed
            .iter()
            .map(|key| self.interests[key].weight)
            .min_by(f64::total_cmp)?;
        let decay = self.decay();
        let below = |t: f64| decay.score(weight, t) < min_score;
        // The closed form, then the float boundary around it: `lo` never
        // retires (the set was ranked at `now`), `hi` always does.
        let guess = self.landmark + half_life * (weight / min_score).log2();
        if !guess.is_finite() {
            return None;
        }
        let (mut lo, mut hi) = (self.now, guess);
        let mut step = f64::EPSILON * guess.abs().max(lo.abs()).max(half_life);
        if guess > lo && below(guess) {
            loop {
                let t = guess - step;
                if t <= lo {
                    break;
                }
                if !below(t) {
                    lo = t;
                    break;
                }
                hi = t;
                step *= 2.0;
            }
        } else {
            lo = guess.max(lo);
            loop {
                hi = lo + step;
                if below(hi) {
                    break;
                }
                lo = hi;
                step *= 2.0;
            }
        }
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                return Some(hi);
            }
            if below(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    /// Forget that `filter` is installed, because the caller could not
    /// place it; the next observe offers it again. Returns whether it was
    /// installed.
    pub fn uninstall(&mut self, filter: &Filter) -> bool {
        let key = self
            .installed
            .iter()
            .find(|key| self.interests[*key].filter == *filter)
            .cloned();
        key.is_some_and(|key| self.installed.remove(&key))
    }

    /// Snapshot of the currently derived filters, strongest first.
    pub fn active(&self) -> Vec<DerivedFilter> {
        let mut out: Vec<DerivedFilter> = self.installed.iter().map(|k| self.derived(k)).collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Drop all state and report the filters that were installed, so the
    /// caller can withdraw them from the broker.
    pub fn retire_all(&mut self) -> Vec<DerivedFilter> {
        let active = self.active();
        self.interests.clear();
        self.installed.clear();
        active
    }

    fn decay(&self) -> Decay {
        Decay {
            half_life: self.config.half_life_secs,
            landmark: self.landmark,
        }
    }

    fn derived(&self, key: &str) -> DerivedFilter {
        let interest = &self.interests[key];
        DerivedFilter {
            filter: interest.filter.clone(),
            reason: format!(
                "{}: {} clicks on {}",
                self.config.mode, interest.clicks, interest.label
            ),
            score: self.decay().score(interest.weight, self.now),
        }
    }

    /// Topic mode: every click votes 1.0 for its host's feed URL.
    fn topic_bumps(&self, new: &[Click]) -> Vec<(String, Filter, String, f64, u64)> {
        let mut by_feed: HashMap<String, (String, u64)> = HashMap::new();
        for click in new {
            let feed = feed_url_for(&click.url);
            let entry = by_feed
                .entry(feed)
                .or_insert_with(|| (click.host().to_owned(), 0));
            entry.1 += 1;
        }
        by_feed
            .into_iter()
            .map(|(feed, (host, n))| {
                let filter = Filter::topic(&feed);
                (feed, filter, host, n as f64, n)
            })
            .collect()
    }

    /// Content mode: clicked-URL words feed the content recommender; its
    /// selected terms are bumped by how many new clicks mention them.
    fn content_bumps(&mut self, new: &[Click]) -> Vec<(String, Filter, String, f64, u64)> {
        let content = self
            .content
            .as_mut()
            .expect("content recommender exists in content mode");
        let mut docs: Vec<HashSet<String>> = Vec::with_capacity(new.len());
        for click in new {
            let text = url_text(&click.url);
            docs.push(content.tokenizer().tokenize(&text).into_iter().collect());
            content.add_history_doc(self.user, &text);
        }
        let candidates = content.interest_terms_local(
            self.user,
            (self.config.max_filters * 2).max(8),
            OfferWeightMode::TfIntegrated,
        );
        candidates
            .into_iter()
            .filter_map(|t| {
                let n = docs.iter().filter(|d| d.contains(&t.term)).count() as u64;
                if n == 0 {
                    return None;
                }
                let filter = Filter::keyword(&self.config.content_attr, &t.term);
                Some((format!("kw:{}", t.term), filter, t.term, n as f64, n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn click(user: u32, tick: u64, url: &str) -> Click {
        Click {
            user: UserId(user),
            day: 0,
            tick,
            url: url.to_owned(),
            referrer: None,
        }
    }

    fn topic_engine(min_score: f64, half_life: f64) -> AutoSubEngine {
        AutoSubEngine::new(
            UserId(7),
            AutoSubConfig {
                min_score,
                half_life_secs: half_life,
                ..AutoSubConfig::default()
            },
        )
    }

    #[test]
    fn empty_history_derives_nothing() {
        let mut engine = topic_engine(2.0, 600.0);
        let diff = engine.observe(&[], 0.0);
        assert!(diff.is_empty());
        assert!(engine.active().is_empty());
        assert_eq!(engine.seen(), 0);
    }

    #[test]
    fn single_interest_user_gets_exactly_that_feed() {
        let mut engine = topic_engine(2.0, 600.0);
        let clicks: Vec<Click> = (0..5)
            .map(|t| click(7, t, "http://news.example/story.html"))
            .collect();
        let diff = engine.observe(&clicks, 1.0);
        assert_eq!(diff.installed.len(), 1);
        assert!(diff.retired.is_empty());
        let derived = &diff.installed[0];
        assert_eq!(
            derived.filter,
            Filter::topic("http://news.example/feed.xml")
        );
        assert!(
            derived.reason.contains("news.example"),
            "{}",
            derived.reason
        );
        // A re-observe of the same history shortly after changes nothing.
        let again = engine.observe(&clicks, 2.0);
        assert!(again.is_empty(), "{again:?}");
        assert_eq!(engine.active().len(), 1);
    }

    #[test]
    fn feed_shaped_clicks_subscribe_to_the_feed_itself() {
        let mut engine = topic_engine(2.0, 600.0);
        let clicks: Vec<Click> = (0..3)
            .map(|t| click(7, t, "http://blog.example/posts.rss"))
            .collect();
        let diff = engine.observe(&clicks, 0.0);
        assert_eq!(diff.installed.len(), 1);
        assert_eq!(
            diff.installed[0].filter,
            Filter::topic("http://blog.example/posts.rss")
        );
    }

    #[test]
    fn decay_to_zero_retires_the_filter() {
        let mut engine = topic_engine(2.0, 1.0);
        let clicks: Vec<Click> = (0..4)
            .map(|t| click(7, t, "http://news.example/a.html"))
            .collect();
        let diff = engine.observe(&clicks, 0.0);
        assert_eq!(diff.installed.len(), 1);
        let filter = diff.installed[0].filter.clone();
        // 20 half-lives later the score is ~4 × 2⁻²⁰ — far below
        // min_score, so the filter must be retired, not left dangling.
        let later = engine.observe(&clicks, 20.0);
        assert_eq!(later.installed.len(), 0);
        assert_eq!(later.retired.len(), 1);
        assert_eq!(later.retired[0].filter, filter);
        assert!(engine.active().is_empty());
    }

    #[test]
    fn reinforced_interest_survives_what_idle_interest_does_not() {
        let mut engine = topic_engine(2.0, 10.0);
        let mut clicks: Vec<Click> = (0..4)
            .map(|t| click(7, t, "http://stale.example/x.html"))
            .chain((4..8).map(|t| click(7, t, "http://live.example/y.html")))
            .collect();
        let diff = engine.observe(&clicks, 0.0);
        assert_eq!(diff.installed.len(), 2);
        // Only live.example keeps getting clicks.
        for t in 8..12 {
            clicks.push(click(7, t, "http://live.example/y.html"));
        }
        let later = engine.observe(&clicks, 40.0);
        assert_eq!(later.retired.len(), 1);
        assert!(later.retired[0].reason.contains("stale.example"));
        let active = engine.active();
        assert_eq!(active.len(), 1);
        assert!(active[0].reason.contains("live.example"));
    }

    #[test]
    fn max_filters_caps_the_installed_set() {
        let mut engine = AutoSubEngine::new(
            UserId(7),
            AutoSubConfig {
                max_filters: 2,
                min_score: 1.0,
                ..AutoSubConfig::default()
            },
        );
        let mut clicks = Vec::new();
        let mut tick = 0;
        for (host, n) in [("a.example", 5), ("b.example", 4), ("c.example", 3)] {
            for _ in 0..n {
                clicks.push(click(7, tick, &format!("http://{host}/p.html")));
                tick += 1;
            }
        }
        let diff = engine.observe(&clicks, 0.0);
        assert_eq!(diff.installed.len(), 2);
        let reasons: Vec<&str> = diff.installed.iter().map(|d| d.reason.as_str()).collect();
        assert!(
            reasons.iter().any(|r| r.contains("a.example")),
            "{reasons:?}"
        );
        assert!(
            reasons.iter().any(|r| r.contains("b.example")),
            "{reasons:?}"
        );
    }

    #[test]
    fn content_mode_derives_keyword_filters_from_urls() {
        let mut engine = AutoSubEngine::new(
            UserId(7),
            AutoSubConfig {
                mode: AutoSubMode::Content,
                min_score: 2.0,
                ..AutoSubConfig::default()
            },
        );
        let clicks: Vec<Click> = (0..6)
            .map(|t| {
                click(
                    7,
                    t,
                    &format!("http://site{t}.example/brokers/story-{t}.html"),
                )
            })
            .collect();
        let diff = engine.observe(&clicks, 0.0);
        assert!(
            diff.installed
                .iter()
                .any(|d| d.reason.contains("broker") && d.filter.len() == 1),
            "{diff:?}"
        );
    }

    #[test]
    fn retire_all_reports_what_was_installed() {
        let mut engine = topic_engine(2.0, 600.0);
        let clicks: Vec<Click> = (0..3)
            .map(|t| click(7, t, "http://news.example/a.html"))
            .collect();
        engine.observe(&clicks, 0.0);
        let retired = engine.retire_all();
        assert_eq!(retired.len(), 1);
        assert!(engine.active().is_empty());
        assert!(engine.observe(&clicks, 1.0).is_empty());
    }
}
