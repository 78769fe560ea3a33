//! `ledger --compare A B`: two sets of runs in, one verdict per workload ×
//! end-to-end metric out (ROADMAP's `bench-diff`).
//!
//! Each file holds one result envelope per line, as `ledger --out FILE`
//! appends them. A metric is `regressed` when B's median is worse than
//! A's by more than the metric's bound, `unresolved` when either set's
//! own run-to-run spread is wider than the bound (so the comparison could
//! not have seen a regression of that size), `missing` when A measured it
//! and B did not (a workload that crashed, a metric that was dropped),
//! `ok` otherwise. A regressed or missing row, a higher `failed_share` and
//! a run whose generator ran late (`generator_valid: false`) each fail the
//! comparison.

use crate::report::Json;
use crate::spec::{Better, MetricDef, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::Res;
use std::collections::{BTreeMap, BTreeSet};

/// The judgement on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound: cannot tell.
    Unresolved,
    /// Set A has the metric for this workload, set B does not.
    Missing,
}

impl Judgement {
    fn name(self) -> &'static str {
        match self {
            Judgement::Ok => "ok",
            Judgement::Regressed => "regressed",
            Judgement::Unresolved => "unresolved",
            Judgement::Missing => "missing",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub metric: &'static MetricDef,
    /// Median over set A's runs, and A's spread (IQR/median).
    pub a: (f64, f64),
    /// Median over set B's runs, and B's spread.
    pub b: (f64, f64),
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    /// The judgement.
    pub judgement: Judgement,
}

/// Values of every workload × metric across the runs of one set, each
/// workload's worst `failed_share`, and the workloads with an invalid run.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed_share: BTreeMap<String, f64>,
    invalid: BTreeSet<String>,
}

fn parse_set(text: &str) -> Res<RunSet> {
    let mut set = RunSet::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let envelope: Json = serde_json::from_str(line)?;
        for workload in envelope.get("workloads").items() {
            let name = workload
                .get("name")
                .text()
                .ok_or("a workload without a name")?
                .to_owned();
            let failed = workload.get("failed_share").number().unwrap_or(0.0);
            let worst = set.failed_share.entry(name.clone()).or_insert(0.0);
            *worst = worst.max(failed);
            if workload.get("generator_valid").0 == serde::Value::Bool(false) {
                set.invalid.insert(name.clone());
            }
            for (metric, summary) in workload.get("metrics").entries() {
                if let Some(value) = summary.get("value").number() {
                    set.values
                        .entry((name.clone(), metric))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    if set.values.is_empty() {
        return Err("no results found".into());
    }
    Ok(set)
}

/// How much worse `b` is than `a` as a share of `a`, given the direction.
/// Against a baseline of zero any change is without measure.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let worse = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a != 0.0 {
        worse / a.abs()
    } else if worse == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(worse)
    }
}

fn judge(a: &[f64], b: &[f64], def: &'static MetricDef, workload: &str) -> Row {
    let (a_mid, b_mid) = (median(a), median(b));
    let (a_spread, b_spread) = (iqr_share(a), iqr_share(b));
    let worse = worse_by(a_mid, b_mid, def.better);
    let judgement = if a_spread > def.bound || b_spread > def.bound {
        Judgement::Unresolved
    } else if worse > def.bound {
        Judgement::Regressed
    } else {
        Judgement::Ok
    };
    Row {
        workload: workload.to_owned(),
        metric: def,
        a: (a_mid, a_spread),
        b: (b_mid, b_spread),
        worse_by: worse,
        judgement,
    }
}

/// What `--compare` found.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload × end-to-end metric that set A measured.
    pub rows: Vec<Row>,
    /// Workloads whose `failed_share` is higher in B than in A.
    pub failing_more: Vec<String>,
    /// `set: workload` of every workload with a run whose generator ran
    /// late: its latencies are not results, whichever side it is on.
    pub invalid: Vec<String>,
}

impl Comparison {
    fn count(&self, judgement: Judgement) -> usize {
        self.rows
            .iter()
            .filter(|r| r.judgement == judgement)
            .count()
    }

    /// Nothing regressed or went missing, no workload fails more
    /// operations than before, and every run was valid.
    pub fn passed(&self) -> bool {
        self.count(Judgement::Regressed) == 0
            && self.count(Judgement::Missing) == 0
            && self.failing_more.is_empty()
            && self.invalid.is_empty()
    }

    /// Print the table and the summary line.
    pub fn print(&self) {
        println!(
            "{:<10} {:<28} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
            "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B worse", "bound"
        );
        for row in &self.rows {
            println!(
                "{:<10} {:<28} {:>14.3} {:>6.1}% {:>14.3} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                row.workload,
                row.metric.name,
                row.a.0,
                row.a.1 * 100.0,
                row.b.0,
                row.b.1 * 100.0,
                row.worse_by * 100.0,
                row.metric.bound * 100.0,
                row.judgement.name()
            );
        }
        for workload in &self.failing_more {
            println!("{workload}: failed_share is higher in B");
        }
        for run in &self.invalid {
            println!("{run}: a run's generator ran late (generator_valid is false)");
        }
        println!(
            "{} ok, {} regressed, {} unresolved, {} missing",
            self.count(Judgement::Ok),
            self.count(Judgement::Regressed),
            self.count(Judgement::Unresolved),
            self.count(Judgement::Missing)
        );
    }
}

/// Compare two sets of result envelopes (the text of the two files).
pub fn compare(a_text: &str, b_text: &str) -> Res<Comparison> {
    let (a, b) = (parse_set(a_text)?, parse_set(b_text)?);
    let mut rows = Vec::new();
    for workload in a.failed_share.keys() {
        for def in END_TO_END {
            let key = (workload.clone(), def.name.to_owned());
            let Some(a_values) = a.values.get(&key) else {
                continue;
            };
            rows.push(match b.values.get(&key) {
                Some(b_values) => judge(a_values, b_values, def, workload),
                None => Row {
                    workload: workload.clone(),
                    metric: def,
                    a: (median(a_values), iqr_share(a_values)),
                    b: (f64::NAN, f64::NAN),
                    worse_by: f64::NAN,
                    judgement: Judgement::Missing,
                },
            });
        }
    }
    let failing_more = a
        .failed_share
        .iter()
        .filter(|(w, &before)| b.failed_share.get(*w).copied().unwrap_or(0.0) > before)
        .map(|(w, _)| w.clone())
        .collect();
    let invalid = [("A", &a), ("B", &b)]
        .into_iter()
        .flat_map(|(set, runs)| runs.invalid.iter().map(move |w| format!("{set}: {w}")))
        .collect();
    Ok(Comparison {
        rows,
        failing_more,
        invalid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One envelope line with a single workload and the given metrics.
    fn envelope(workload: &str, failed_share: f64, valid: bool, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"x\"}}"))
            .collect();
        format!(
            "{{\"name\":\"ledger\",\"workloads\":[{{\"name\":\"{workload}\",\"failed_share\":{failed_share:?},\"generator_valid\":{valid},\"metrics\":{{{}}}}}]}}\n",
            metrics.join(",")
        )
    }

    fn set(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|v| envelope(workload, 0.0, true, &[(metric, *v)]))
            .collect()
    }

    fn only_row(a: &str, b: &str) -> Row {
        let comparison = compare(a, b).expect("comparable");
        assert!(comparison.failing_more.is_empty() && comparison.invalid.is_empty());
        assert_eq!(comparison.rows.len(), 1);
        comparison.rows[0].clone()
    }

    #[test]
    fn within_the_bound_is_ok() {
        let a = set(
            "fanout",
            "deliver_p50_us",
            &[100.0, 101.0, 99.0, 100.5, 100.0],
        );
        let b = set(
            "fanout",
            "deliver_p50_us",
            &[105.0, 106.0, 104.0, 105.0, 105.5],
        );
        let row = only_row(&a, &b);
        assert_eq!(row.judgement, Judgement::Ok);
        assert!((row.worse_by - 0.05).abs() < 1e-9);
        assert!(compare(&a, &b).expect("comparable").passed());
    }

    #[test]
    fn lower_is_better_metric_regresses_upwards() {
        let a = set(
            "fanout",
            "deliver_p50_us",
            &[100.0, 101.0, 99.0, 100.0, 100.0],
        );
        let b = set(
            "fanout",
            "deliver_p50_us",
            &[140.0, 141.0, 139.0, 140.0, 140.0],
        );
        assert_eq!(only_row(&a, &b).judgement, Judgement::Regressed);
        assert!(!compare(&a, &b).expect("comparable").passed());
        // The same numbers the other way round are an improvement.
        assert_eq!(only_row(&b, &a).judgement, Judgement::Ok);
    }

    #[test]
    fn higher_is_better_metric_regresses_downwards() {
        let a = set("selective", "deliveries_per_s", &[1000.0, 1010.0, 990.0]);
        let b = set("selective", "deliveries_per_s", &[600.0, 605.0, 595.0]);
        let row = only_row(&a, &b);
        assert_eq!(row.judgement, Judgement::Regressed);
        assert!((row.worse_by - 0.4).abs() < 1e-9);
        assert_eq!(only_row(&b, &a).judgement, Judgement::Ok);
    }

    #[test]
    fn a_baseline_of_zero_still_regresses() {
        let a = set("fanout", "deliver_p50_us", &[0.0, 0.0, 0.0]);
        let b = set("fanout", "deliver_p50_us", &[5.0, 5.0, 5.0]);
        let row = only_row(&a, &b);
        assert_eq!(row.judgement, Judgement::Regressed);
        assert_eq!(row.worse_by, f64::INFINITY);
        assert_eq!(only_row(&a, &a).judgement, Judgement::Ok);
        // Throughput that was zero and now is not has only improved.
        let a = set("fanout", "deliveries_per_s", &[0.0, 0.0, 0.0]);
        let b = set("fanout", "deliveries_per_s", &[9.0, 9.0, 9.0]);
        assert_eq!(only_row(&a, &b).judgement, Judgement::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = set(
            "churn",
            "deliver_p50_us",
            &[100.0, 140.0, 60.0, 120.0, 80.0],
        );
        let b = set(
            "churn",
            "deliver_p50_us",
            &[100.0, 100.0, 100.0, 100.0, 100.0],
        );
        assert_eq!(only_row(&a, &b).judgement, Judgement::Unresolved);
    }

    #[test]
    fn a_workload_or_metric_absent_from_b_fails_the_comparison() {
        let both = [("setup_s", 1.0), ("deliver_p50_us", 100.0)];
        let a = envelope("fanout", 0.0, true, &both) + &envelope("churn", 0.0, true, &both);
        // B lost `churn` altogether and `deliver_p50_us` on `fanout`.
        let b = envelope("fanout", 0.0, true, &both[..1]);
        let comparison = compare(&a, &b).expect("comparable");
        let verdicts: Vec<(&str, &str, Judgement)> = comparison
            .rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.name, r.judgement))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("churn", "setup_s", Judgement::Missing),
                ("churn", "deliver_p50_us", Judgement::Missing),
                ("fanout", "setup_s", Judgement::Ok),
                ("fanout", "deliver_p50_us", Judgement::Missing),
            ]
        );
        assert!(!comparison.passed());
        // What only B has is new, not missing.
        assert!(compare(&b, &a).expect("comparable").passed());
    }

    #[test]
    fn a_run_with_a_late_generator_fails_the_comparison() {
        let good = envelope("fanout", 0.0, true, &[("setup_s", 1.0)]);
        let late = envelope("fanout", 0.0, false, &[("setup_s", 1.0)]);
        let comparison = compare(&good, &(good.clone() + &late)).expect("comparable");
        assert_eq!(comparison.invalid, ["B: fanout"]);
        assert_eq!(comparison.rows[0].judgement, Judgement::Ok);
        assert!(!comparison.passed());
        let comparison = compare(&late, &good).expect("comparable");
        assert_eq!(comparison.invalid, ["A: fanout"]);
        assert!(!comparison.passed());
    }

    #[test]
    fn higher_failed_share_is_reported_and_fails_the_comparison() {
        let a = envelope("fanout", 0.0, true, &[("setup_s", 1.0)]);
        let b = envelope("fanout", 0.001, true, &[("setup_s", 1.0)]);
        let comparison = compare(&a, &b).expect("comparable");
        assert_eq!(comparison.failing_more, ["fanout"]);
        assert!(!comparison.passed());
        assert!(compare(&a, &a).expect("comparable").passed());
    }

    #[test]
    fn per_layer_metrics_are_not_judged() {
        let a = set("fanout", "matcher.match_ns", &[100.0]);
        let b = set("fanout", "matcher.match_ns", &[900.0]);
        assert!(compare(&a, &b).expect("comparable").rows.is_empty());
        assert!(compare("", &b).is_err());
    }
}
