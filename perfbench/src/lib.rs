//! Whole-run benchmark of the BAAT simulator.
//!
//! Three workloads run in one process on one simulation thread, through
//! the library APIs: a BAAT fleet day, an e-Buff fleet day and the quick
//! paper-figure sweep. A plain run reports the end-to-end metrics; a
//! traced run times the calls into each layer from this crate and
//! reports the per-layer metrics. See `README.md` for the layer map.

pub mod aa;
pub mod digest;
pub mod stats;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;

/// One end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression. Mirrors the
/// `end_to_end` list of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Allowed worsening as a share of the median.
    pub bound: f64,
}

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 50;

/// The end-to-end metrics, all "lower is better".
pub const END_TO_END: [Bound; 3] = [
    Bound {
        name: "run_s",
        unit: "s",
        bound: 0.25,
    },
    Bound {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    Bound {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
    },
];

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every operation passed its output check and none failed.
    pub correct: bool,
    /// Operations attempted (fleet days, or figure sections).
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` as `{"name": {"value": v, "unit": u}}`. Non-finite
    /// values, which JSON cannot carry, are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads back a value written by [`Outcome::to_json`].
    pub fn parse_value(line: &str, name: &str) -> Option<f64> {
        let pat = format!("\"{name}\": {{\"value\": ");
        let rest = &line[line.find(&pat)? + pat.len()..];
        rest[..rest.find(',')?].parse().ok()
    }

    /// Reads back a top-level field written by [`Outcome::to_json`].
    pub fn parse_field(line: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\": ");
        let rest = &line[line.find(&pat)? + pat.len()..];
        Some(rest[..rest.find(',')?].to_string())
    }
}
