//! Tests of the benchmark's own arithmetic and bookkeeping.

use baat_core::Scheme;
use baat_perfbench::digest::{report_digest, text_digest, Fnv};
use baat_perfbench::stats::{median, percentile, quartiles, spread, tail_percentile};
use baat_perfbench::trace::{Span, SpanLog};
use baat_perfbench::workload::{
    build_fleet, input_seed, per_layer_names, traced_day, Workload, INPUTS,
};
use baat_perfbench::{Metric, Outcome, END_TO_END, RUN_SECONDS};

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    // 600 control calls: p98 leaves 12 beyond it, p99 only 6.
    assert_eq!(tail_percentile(600), Some(98));
    // 2,280 plain steps: p99 leaves 22 beyond it.
    assert_eq!(tail_percentile(2280), Some(99));
    assert_eq!(tail_percentile(100), Some(90));
    assert_eq!(tail_percentile(11), Some(9));
    assert_eq!(tail_percentile(10), None);
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn percentiles_use_nearest_rank() {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 50), Some(50.0));
    assert_eq!(percentile(&v, 98), Some(98.0));
    assert_eq!(percentile(&v, 99), Some(99.0));
    assert_eq!(percentile(&[7.0], 99), Some(7.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    assert_eq!(median(&v), Some(5.5));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
    assert_eq!(spread(&[4.0, 1.0, 3.0, 2.0]), Some(1.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_direct_children() {
    let log = SpanLog::from_spans(vec![
        span("workload", None, 0, 1_000),
        span("run", Some(0), 100, 900),
        span("engine.plain_step", Some(1), 110, 200),
        span("engine.control_step", Some(1), 200, 600),
        span("policy.control", Some(3), 250, 550),
        span("engine.plain_step", Some(1), 600, 700),
        span("report.into_report", Some(1), 700, 880),
    ]);
    let own = log.self_secs();
    assert!((own[3] - 100e-9).abs() < 1e-15, "control step minus policy");
    let layers = log.layer_self_secs(1);
    let ns = |name: &str| (layers[name] * 1e9).round() as u64;
    assert_eq!(ns("policy.control"), 300);
    assert_eq!(ns("engine.control_step"), 100);
    assert_eq!(ns("engine.plain_step"), 190);
    assert_eq!(ns("report.into_report"), 180);
    assert_eq!(ns("run"), 30, "unattributed: gaps between the children");
    assert!(!layers.contains_key("workload"), "only the subtree counts");
    let total: f64 = layers.values().sum();
    assert!((total - log.spans()[1].secs()).abs() < 1e-15);
    assert_eq!(log.subtree_secs(1, "engine.plain_step").len(), 2);
}

#[test]
fn a_fleet_day_has_600_control_steps_of_2880() {
    let mut log = SpanLog::new();
    let root = log.open("workload", None);
    let (report, day) = traced_day((Scheme::Baat, 12), 42, &mut log, root).expect("day runs");
    assert_eq!(day.steps, 2880);
    assert_eq!(day.control_steps, 600);
    assert_eq!(log.subtree_secs(day.run, "engine.control_step").len(), 600);
    assert_eq!(log.subtree_secs(day.run, "engine.plain_step").len(), 2280);
    assert_eq!(log.subtree_secs(day.run, "policy.control").len(), 600);
    // Wrapping the policy changes nothing the engine computes.
    let (sim, mut policy) = build_fleet((Scheme::Baat, 12), 42);
    let bare = sim.run(&mut policy).expect("day runs");
    assert_eq!(report, bare);
}

#[test]
fn digests_repeat_across_runs_and_follow_the_seed() {
    let digest = |seed| {
        let (sim, mut policy) = build_fleet((Scheme::EBuff, 12), seed);
        report_digest(&sim.run(&mut policy).expect("day runs"))
    };
    assert_eq!(digest(42), digest(42));
    assert_ne!(digest(42), digest(43));
    // A run's inputs start at its seed and are otherwise all distinct.
    let inputs: Vec<u64> = (0..INPUTS).map(|k| input_seed(42, k)).collect();
    assert_eq!(inputs[0], 42);
    let mut distinct = inputs.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), INPUTS);
    assert!((0..INPUTS).all(|k| input_seed(43, k) != inputs[k]));
    // FNV-1a reference vectors.
    assert_eq!(text_digest(""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(text_digest("a"), 0xaf63_dc4c_8601_ec8c);
    // The streaming digest is the same hash fed piece by piece.
    let mut streamed = Fnv::default();
    streamed.bytes(b"foo").bytes(b"bar");
    assert_eq!(streamed.finish(), text_digest("foobar"));
}

#[test]
fn result_line_round_trips() {
    let outcome = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![
            Metric::new("run_s", "s", 2.5),
            Metric::new("setup_s", "s", 1.25e-5),
        ],
    };
    let line = outcome.to_json();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"run_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
         \"setup_s\": {\"value\": 1.25e-5, \"unit\": \"s\"}}}"
    );
    assert_eq!(Outcome::parse_value(&line, "setup_s"), Some(1.25e-5));
    assert_eq!(
        Outcome::parse_field(&line, "correct").as_deref(),
        Some("true")
    );
}

/// `BENCHMARK.json` records the exact traffic, bounds and metric names
/// this harness runs and reports; a change to either side shows here.
#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    let run_seconds = format!("\"run_seconds\": {RUN_SECONDS},");
    assert!(json.contains(&run_seconds), "{run_seconds}");
    for w in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", w.name());
        if !Workload::BENCHMARKED.contains(&w) {
            assert!(!json.contains(&entry), "{entry} is not benchmarked");
            continue;
        }
        assert!(json.contains(&entry), "{entry}");
        assert!(
            json.contains(&w.traffic(w.default_seed())),
            "traffic of {}",
            w.name()
        );
    }
    for b in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
            b.name, b.unit, b.bound
        );
        assert!(json.contains(&entry), "{entry}");
    }
    for (name, unit) in per_layer_names() {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
}
