//! # reef-bench — experiment harness
//!
//! Shared setup and reporting code for the experiment binaries that
//! regenerate every result of the paper and for the criterion
//! micro-benchmarks.

#![warn(missing_docs)]

use reef_simweb::browse::generate_history;
use reef_simweb::{BrowseConfig, BrowsingHistory, WebConfig, WebUniverse};
use serde::Serialize;
use std::fmt::Display;
use std::path::PathBuf;

/// Default seed of all experiment binaries (override with `REEF_SEED`).
pub const DEFAULT_SEED: u64 = 2006;

/// Read the experiment seed from `REEF_SEED`, defaulting to
/// [`DEFAULT_SEED`].
pub fn seed_from_env() -> u64 {
    std::env::var("REEF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Build the §3.2 workload: 5 users, 10 weeks, the paper-calibrated
/// universe.
pub fn e1_setup(seed: u64) -> (WebUniverse, BrowsingHistory) {
    let universe = WebUniverse::generate(WebConfig::paper_e1(), seed);
    let history = generate_history(&universe, &BrowseConfig::paper_e1(), seed);
    (universe, history)
}

/// Build the §3.3 workload: 1 user, 6 weeks, >10k page views.
pub fn e2_setup(seed: u64) -> (WebUniverse, BrowsingHistory) {
    let universe = WebUniverse::generate(WebConfig::paper_e2(), seed);
    let history = generate_history(&universe, &BrowseConfig::paper_e2(), seed);
    (universe, history)
}

/// A row of a paper-vs-measured table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Quantity name.
    pub metric: String,
    /// The value the paper reports (empty when the paper gives none).
    pub paper: String,
    /// The value this reproduction measures.
    pub measured: String,
}

impl Row {
    /// Build a row.
    pub fn new(metric: impl Display, paper: impl Display, measured: impl Display) -> Self {
        Row {
            metric: metric.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
        }
    }
}

/// Print a paper-vs-measured table to stdout.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    let w_metric = rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let w_paper = rows.iter().map(|r| r.paper.len()).max().unwrap_or(5).max(5);
    let w_meas = rows
        .iter()
        .map(|r| r.measured.len())
        .max()
        .unwrap_or(8)
        .max(8);
    println!(
        "{:<w_metric$}  {:>w_paper$}  {:>w_meas$}",
        "metric", "paper", "measured"
    );
    println!("{}", "-".repeat(w_metric + w_paper + w_meas + 4));
    for row in rows {
        println!(
            "{:<w_metric$}  {:>w_paper$}  {:>w_meas$}",
            row.metric, row.paper, row.measured
        );
    }
}

/// Write a JSON result file under `results/` (created on demand). Returns
/// the path written, or `None` if the directory could not be created.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).ok()?;
    std::fs::write(&path, json).ok()?;
    Some(path)
}

/// Label identifying the build a result came from: `REEF_BENCH_LABEL`
/// when set, else `git describe --always --dirty`, else `"unknown"`.
pub fn bench_label() -> String {
    if let Ok(label) = std::env::var("REEF_BENCH_LABEL") {
        if !label.is_empty() {
            return label;
        }
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The envelope [`emit_json`] wraps every experiment result in, so all
/// `results/*.json` files share a `{name, label, metrics}` shape.
struct ResultEnvelope {
    envelope: serde::Value,
}

impl Serialize for ResultEnvelope {
    fn to_value(&self) -> serde::Value {
        self.envelope.clone()
    }
}

/// Write an experiment result under `results/<name>.json`, wrapped in the
/// shared `{name, label, metrics}` envelope (label from [`bench_label`]).
/// Returns the path written, or `None` if writing failed.
pub fn emit_json<T: Serialize>(name: &str, metrics: &T) -> Option<PathBuf> {
    let envelope = ResultEnvelope {
        envelope: serde::Value::Map(vec![
            ("name".to_owned(), serde::Value::Str(name.to_owned())),
            ("label".to_owned(), serde::Value::Str(bench_label())),
            ("metrics".to_owned(), metrics.to_value()),
        ]),
    };
    write_json(name, &envelope)
}

/// Format a percent value with sign.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_build_and_are_deterministic() {
        let (u1, h1) = e1_setup(1);
        let (_u2, h2) = e1_setup(1);
        assert_eq!(h1.requests.len(), h2.requests.len());
        assert!(u1.feeds().len() > 100);
    }

    #[test]
    fn rows_format() {
        let rows = vec![Row::new("total requests", "77000", "76500")];
        print_table("test", &rows);
        assert_eq!(rows[0].metric, "total requests");
    }

    #[test]
    fn pct_formats_with_sign() {
        assert_eq!(pct(34.0), "+34.0%");
        assert_eq!(pct(-2.5), "-2.5%");
    }

    #[test]
    fn bench_label_is_never_empty() {
        assert!(!bench_label().is_empty());
    }
}
