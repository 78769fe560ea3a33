//! # reef — automatic subscriptions in publish-subscribe systems
//!
//! A from-scratch Rust reproduction of Brenna, Gurrin, Johansen &
//! Zagorodnov, *Automatic Subscriptions In Publish-Subscribe Systems*,
//! ICDCS Workshops 2006 — the **Reef** architecture, which watches a
//! user's attention (browsing history) and automatically creates, refines
//! and removes subscriptions in a publish-subscribe system.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`pubsub`] | `reef-pubsub` | events, filters, matchers, broker, sans-io broker routing core |
//! | [`simweb`] | `reef-simweb` | topic model, synthetic Web, browsing workload |
//! | [`textindex`] | `reef-textindex` | tokenizer, Porter stemmer, BM25, Offer Weight, metrics |
//! | [`feeds`] | `reef-feeds` | XML parser, RSS/Atom/RDF, WAIF FeedEvents proxy |
//! | [`attention`] | `reef-attention` | clicks, recorders, click store, attention parser |
//! | [`core`] | `reef-core` | crawler, recommenders, frontend, centralized & distributed Reef |
//! | [`videonews`] | `reef-videonews` | synthetic TRECVid archive, §3.3 ranking experiment |
//!
//! # Quickstart
//!
//! ```
//! use reef::core::{CentralizedReef, ReefConfig};
//! use reef::simweb::browse::generate_history;
//! use reef::simweb::{BrowseConfig, WebConfig, WebUniverse};
//!
//! // A small synthetic Web and two users browsing it for three days.
//! let universe = WebUniverse::generate(WebConfig::default(), 7);
//! let mut browse = BrowseConfig::default();
//! browse.users = 2;
//! browse.days = 3;
//! browse.mean_page_views_per_day = 25.0;
//! let history = generate_history(&universe, &browse, 7);
//!
//! // The centralized Reef loop: record → upload → crawl → recommend →
//! // subscribe → poll feeds → deliver → react.
//! let mut reef = CentralizedReef::new(&history.profiles, ReefConfig::default(), 7);
//! for day in 0..history.days {
//!     let report = reef.run_day(&universe, &history, day);
//!     println!("day {day}: {} events delivered", report.events_delivered);
//! }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries that regenerate every result of the paper.

#![warn(missing_docs)]

pub use reef_attention as attention;
pub use reef_core as core;
pub use reef_feeds as feeds;
pub use reef_pubsub as pubsub;
pub use reef_simweb as simweb;
pub use reef_textindex as textindex;
pub use reef_videonews as videonews;
pub use reef_wire as wire;
