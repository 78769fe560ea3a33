//! Results: the per-workload record, the table a person reads, the one
//! JSON line the benchmark driver reads, and the envelope `--compare`
//! reads — machine and run included, so a number never travels without
//! the box it came from.

use crate::measure::{Metrics, Verdict};
use crate::sched::CpuPlan;
use crate::spec::{metric_def, Load, MetricDef, Workload, END_TO_END, PER_LAYER};
use serde::Value;

/// A JSON value that can cross `serde_json` in both directions (the
/// vendored `serde::Value` itself implements neither trait).
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    /// The field `key` of an object (`Null` when absent or not an object).
    pub fn get(&self, key: &str) -> Json {
        let found = self
            .0
            .as_map()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.clone());
        Json(found.unwrap_or(Value::Null))
    }

    /// The elements of an array (empty when not an array).
    pub fn items(&self) -> Vec<Json> {
        self.0
            .as_seq()
            .map(|items| items.iter().cloned().map(Json).collect())
            .unwrap_or_default()
    }

    /// The entries of an object (empty when not an object).
    pub fn entries(&self) -> Vec<(String, Json)> {
        self.0
            .as_map()
            .map(|entries| {
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), Json(v.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Any JSON number as `f64`.
    pub fn number(&self) -> Option<f64> {
        match self.0 {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// A JSON string.
    pub fn text(&self) -> Option<&str> {
        match &self.0 {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// Lengths of the phases one run went through, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSecs {
    /// Warm-up (not reported).
    pub warmup: f64,
    /// Open-loop latency phase.
    pub latency: f64,
    /// The traced repeat of the latency phase (0 in an untraced run).
    pub traced: f64,
    /// Closed-loop saturation phase.
    pub saturation: f64,
}

/// One workload's outcome.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// Everything measured, by metric name.
    pub metrics: Metrics,
    /// Attempted and failed operations.
    pub verdict: Verdict,
    /// What failed, in words.
    pub complaints: Vec<String>,
    /// `false` when the open-loop sender itself ran too late for the
    /// latencies to mean anything.
    pub generator_valid: bool,
    /// Earlier attempts at this run discarded because the generator ran
    /// late in them.
    pub invalid_attempts: u32,
    /// Daemons the workload ran against.
    pub daemons: usize,
    /// Event-loop shards daemon 0 actually ran.
    pub loop_threads: usize,
    /// Whether the sender thread was granted real-time priority.
    pub sender_realtime: bool,
    /// Phase lengths.
    pub phases: PhaseSecs,
}

impl WorkloadResult {
    /// Outputs matched the oracle, nothing failed, and the generator held
    /// its schedule: the run's numbers may be reported as results.
    pub fn correct(&self) -> bool {
        self.verdict.failed == 0 && self.generator_valid
    }

    /// The last line of standard output in a single-workload run: exactly
    /// the keys the driver expects, `metrics` restricted to `table`.
    pub fn contract_line(&self, table: &[MetricDef]) -> String {
        let metrics = table
            .iter()
            .map(|def| {
                let value = self.metrics.get(def.name).map_or(0.0, |s| s.value);
                (
                    def.name.to_owned(),
                    object(vec![
                        ("value", Value::Float(value)),
                        ("unit", text(def.unit)),
                    ]),
                )
            })
            .collect();
        let line = object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.verdict.attempted.max(1))),
            ("failed", Value::UInt(self.verdict.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&Json(line)).expect("finite numbers serialize")
    }

    fn to_json(&self) -> Value {
        let load: Load = self.workload.load();
        let metrics = self
            .metrics
            .iter()
            .filter_map(|(name, summary)| {
                let def = metric_def(name)?;
                Some((
                    (*name).to_owned(),
                    object(vec![
                        ("value", Value::Float(summary.value)),
                        ("unit", text(def.unit)),
                        ("better", text(def.better.name())),
                        ("spread", Value::Float(summary.spread)),
                        ("samples", Value::UInt(summary.samples)),
                    ]),
                ))
            })
            .collect();
        object(vec![
            ("name", text(self.workload.name())),
            ("daemons", Value::UInt(self.daemons as u64)),
            ("loop_threads", Value::UInt(self.loop_threads as u64)),
            ("sender_realtime", Value::Bool(self.sender_realtime)),
            (
                "load",
                object(vec![
                    ("publish_per_s", Value::Float(load.publish_per_s)),
                    ("publish_window", Value::UInt(load.publish_window as u64)),
                    ("event_bytes", Value::UInt(load.event_bytes as u64)),
                    ("upload_per_s", Value::Float(load.upload_per_s)),
                    ("upload_window", Value::UInt(load.upload_window as u64)),
                    ("pair_per_s", Value::Float(load.pair_per_s)),
                    ("probe_per_s", Value::Float(load.probe_per_s)),
                ]),
            ),
            (
                "phases",
                object(vec![
                    ("warmup_s", Value::Float(self.phases.warmup)),
                    ("latency_s", Value::Float(self.phases.latency)),
                    ("traced_s", Value::Float(self.phases.traced)),
                    ("saturation_s", Value::Float(self.phases.saturation)),
                ]),
            ),
            ("attempted", Value::UInt(self.verdict.attempted)),
            ("failed", Value::UInt(self.verdict.failed)),
            ("failed_share", Value::Float(self.verdict.failed_share())),
            ("generator_valid", Value::Bool(self.generator_valid)),
            (
                "invalid_attempts",
                Value::UInt(u64::from(self.invalid_attempts)),
            ),
            ("metrics", Value::Map(metrics)),
        ])
    }

    /// Print every metric by name with unit, direction, spread and sample
    /// count, end-to-end first.
    pub fn print_table(&self) {
        println!(
            "\n== {} — {} daemon(s), {} loop thread(s), sender {}; failed_share {:.6} ({} of {}){}",
            self.workload.name(),
            self.daemons,
            self.loop_threads,
            if self.sender_realtime {
                "real-time"
            } else {
                "default priority"
            },
            self.verdict.failed_share(),
            self.verdict.failed,
            self.verdict.attempted,
            if self.generator_valid {
                ""
            } else {
                "  ** INVALID: the generator ran late, latencies are not reported as results **"
            },
        );
        println!("   why: {}", self.workload.why());
        if self.invalid_attempts > 0 {
            println!(
                "   {} earlier attempt(s) discarded: the generator ran late",
                self.invalid_attempts
            );
        }
        for complaint in &self.complaints {
            println!("   !! {complaint}");
        }
        println!(
            "{:<34} {:>16} {:<6} {:<7} {:>8} {:>10}",
            "metric", "value", "unit", "better", "spread", "samples"
        );
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let Some(summary) = self.metrics.get(def.name) else {
                continue;
            };
            println!(
                "{:<34} {:>16.3} {:<6} {:<7} {:>7.1}% {:>10}",
                def.name,
                summary.value,
                def.unit,
                def.better.name(),
                summary.spread * 100.0,
                summary.samples
            );
        }
    }
}

/// The machine and run a set of results came from.
pub fn envelope(
    seed: u64,
    seconds: f64,
    plan: Option<&CpuPlan>,
    results: &[WorkloadResult],
) -> Json {
    let cpus = |cpus: &[usize]| Value::Seq(cpus.iter().map(|&c| Value::UInt(c as u64)).collect());
    let cores = plan.map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |plan| plan.daemons.len() + plan.generator.len(),
    );
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    Json(object(vec![
        ("name", text("ledger")),
        ("label", Value::Str(reef_bench::bench_label())),
        (
            "machine",
            object(vec![
                ("cores", Value::UInt(cores as u64)),
                ("daemon_cpus", cpus(plan.map_or(&[], |plan| &plan.daemons))),
                (
                    "generator_cpus",
                    cpus(plan.map_or(&[], |plan| &plan.generator)),
                ),
                ("kernel", Value::Str(kernel)),
                (
                    "loop_threads",
                    Value::UInt(results.first().map_or(0, |r| r.loop_threads) as u64),
                ),
            ]),
        ),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        (
            "workloads",
            Value::Seq(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn contract_line_has_exactly_the_drivers_keys() {
        let mut metrics = Metrics::new();
        for def in END_TO_END {
            metrics.insert(def.name, Summary::exact(1.25, 10));
        }
        let result = WorkloadResult {
            workload: Workload::Fanout,
            metrics,
            verdict: Verdict {
                attempted: 1000,
                failed: 0,
            },
            complaints: Vec::new(),
            generator_valid: true,
            invalid_attempts: 0,
            daemons: 1,
            loop_threads: 2,
            sender_realtime: true,
            phases: PhaseSecs::default(),
        };
        // A late generator makes the run incorrect, in the driver's line
        // and in the envelope alike.
        let late = WorkloadResult {
            generator_valid: false,
            ..result.clone()
        };
        let line: Json = serde_json::from_str(&late.contract_line(END_TO_END)).expect("JSON");
        assert_eq!(line.get("correct").0, Value::Bool(false));
        let workload = &envelope(7, 12.0, None, &[late]).get("workloads").items()[0];
        assert_eq!(workload.get("generator_valid").0, Value::Bool(false));

        let line = result.contract_line(END_TO_END);
        assert!(!line.contains('\n'));
        let parsed: Json = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<String> = parsed.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").number(), Some(1000.0));
        let reported = parsed.get("metrics").entries();
        assert_eq!(reported.len(), END_TO_END.len());
        let setup = parsed.get("metrics").get("setup_s");
        assert_eq!(setup.get("value").number(), Some(1.25));
        assert_eq!(setup.get("unit").text(), Some("s"));

        let plan = CpuPlan {
            daemons: vec![0],
            generator: vec![1],
        };
        let envelope = envelope(7, 12.0, Some(&plan), &[result]);
        assert_eq!(envelope.get("machine").get("cores").number(), Some(2.0));
        assert_eq!(
            envelope.get("machine").get("daemon_cpus").items()[0].number(),
            Some(0.0)
        );
        assert_eq!(envelope.get("seed").number(), Some(7.0));
        assert!(envelope.get("machine").get("cores").number().unwrap_or(0.0) >= 1.0);
        let workload = &envelope.get("workloads").items()[0];
        assert_eq!(workload.get("name").text(), Some("fanout"));
        assert_eq!(
            workload
                .get("metrics")
                .get("deliver_p50_us")
                .get("better")
                .text(),
            Some("lower")
        );
    }
}
