//! Guard-rail tests: scaled-down versions of the paper experiments whose
//! *shapes* must hold on every run. The full-size numbers come from the
//! experiment binaries in `crates/bench/src/bin/`: `exp_browsing_stats`
//! (E1) and `exp_video_precision` (E2), run with
//! `cargo run --release -p reef-bench --bin <name>`.

use reef::simweb::browse::generate_history;
use reef::simweb::{browsing_stats, BrowseConfig, RequestKind, TopicId, WebConfig, WebUniverse};
use reef::textindex::OfferWeightMode;
use reef::videonews::{ArchiveConfig, ExperimentConfig, VideoArchive, VideoExperiment};
use std::collections::HashSet;

#[test]
fn e1_shape_ad_share_and_single_visit_tail() {
    let universe = WebUniverse::generate(WebConfig::paper_e1(), 1);
    let browse = BrowseConfig {
        days: 14, // two weeks is enough for the proportions
        ..BrowseConfig::paper_e1()
    };
    let history = generate_history(&universe, &browse, 1);
    let stats = browsing_stats(&universe, &history);
    // ~70% of requests go to ad servers.
    assert!(
        (0.6..0.8).contains(&stats.ad_request_share),
        "ad share {}",
        stats.ad_request_share
    );
    // A long tail of servers is visited exactly once.
    assert!(stats.single_visit_servers * 10 > stats.distinct_servers);
    // Feeds are discoverable on the crawl-worthy remainder.
    assert!(stats.discoverable_feeds > 50);
    assert!(stats.crawlworthy_servers < stats.distinct_servers);
}

#[test]
fn e2_shape_query_beats_airing_order_and_five_terms_undercover() {
    let universe = WebUniverse::generate(WebConfig::paper_e2(), 2);
    let browse = BrowseConfig {
        days: 10,
        ..BrowseConfig::paper_e2()
    };
    let history = generate_history(&universe, &browse, 2);
    let profile = &history.profiles[0];

    let mut seen = HashSet::new();
    let mut texts = Vec::new();
    for r in history
        .requests
        .iter()
        .filter(|r| r.kind == RequestKind::Page)
    {
        if seen.insert(r.url.as_str()) {
            if let Some(p) = universe.fetch(&r.url) {
                if p.content_type == "text/html" && !p.text.is_empty() {
                    texts.push(p.text.as_str());
                }
            }
        }
    }
    let background: Vec<&str> = universe
        .pages()
        .iter()
        .filter(|p| p.content_type == "text/html" && !seen.contains(p.url.as_str()))
        .step_by(4)
        .take(1200)
        .map(|p| p.text.as_str())
        .collect();
    let archive = VideoArchive::generate(universe.model(), ArchiveConfig::default(), 2);
    let interests: Vec<TopicId> = profile.interests.iter().map(|(t, _)| *t).collect();

    let experiment = VideoExperiment::prepare(
        &archive,
        texts.iter().copied(),
        background.iter().copied(),
        archive.judgments(&interests),
        ExperimentConfig::default(),
    );
    // Average both points over several noisy judgment draws.
    let mut imp5 = 0.0;
    let mut imp30 = 0.0;
    let draws = 10;
    let r5 = experiment.ranked_ids(5, OfferWeightMode::TfIntegrated);
    let r30 = experiment.ranked_ids(30, OfferWeightMode::TfIntegrated);
    for d in 0..draws {
        let judgments = archive.noisy_judgments(&interests, 0.445, 0.25, 1000 + d);
        imp5 += experiment.evaluate_ranking(&r5, &judgments).improvement_pct;
        imp30 += experiment
            .evaluate_ranking(&r30, &judgments)
            .improvement_pct;
    }
    imp5 /= draws as f64;
    imp30 /= draws as f64;
    assert!(
        imp30 > 0.0,
        "30-term query must beat airing order, got {imp30}"
    );
    assert!(
        imp30 > imp5,
        "30 terms must beat 5 terms (got {imp5} vs {imp30})"
    );
}

#[test]
fn e1_universe_scale_matches_paper() {
    let universe = WebUniverse::generate(WebConfig::paper_e1(), 3);
    let history = generate_history(&universe, &BrowseConfig::paper_e1(), 3);
    let stats = browsing_stats(&universe, &history);
    // Within ±15% of the paper's headline scale.
    assert!(
        (65_000..90_000).contains(&(stats.total_requests as usize)),
        "{}",
        stats.total_requests
    );
    assert!(
        (2_100..3_000).contains(&(stats.distinct_servers as usize)),
        "{}",
        stats.distinct_servers
    );
    assert!(
        (350..520).contains(&(stats.discoverable_feeds as usize)),
        "{}",
        stats.discoverable_feeds
    );
}
