//! The three workloads, each run plain (end-to-end metrics) or traced
//! (per-layer metrics).
//!
//! A run repeats its operation — a fleet day, or one pass over the
//! figure sections — for about `seconds`, and reports the fastest
//! repeat.
//! Outputs are compared between repeats and checked once, after the
//! last timed repeat and after peak memory is read.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use baat_battery::{BatteryModel, Chemistry};
use baat_bench::experiments::{
    ablations, chem_ablation, fig03_05, fig10, fig12, fig13, fig14, fig15, fig16, fig17, fig18_19,
    fig20, fig21, fig22, table1,
};
use baat_bench::runner::{day_config, fleet_config, scenario_seed, EXPERIMENT_DT};
use baat_core::Scheme;
use baat_sim::{DirtyReason, Event, Policy, SimReport, Simulation};
use baat_solar::Weather;

use crate::digest::{check_report_invariants, expected_digest, report_digest, text_digest};
use crate::stats::{fastest, median, percentile, tail_percentile};
use crate::trace::{ActionCounts, SpanId, SpanLog, TracedPolicy};
use crate::{Metric, Outcome};

/// Engine worker threads: one, the sequential reference path.
pub const ENGINE_THREADS: usize = 1;
/// Scenario-runner worker threads (`BAAT_RUNNER_THREADS`): one.
pub const RUNNER_THREADS: usize = 1;
/// Fleet days are cloudy: the stressed supply, on which BAAT acts most.
pub const FLEET_WEATHER: Weather = Weather::Cloudy;

/// Set-up samples taken before every repeat, so that `setup_s` spreads
/// over the same window as `run_s`: single constructions on a fleet
/// (about 1.5 ms each), batches on the prototype (tens of µs each, too
/// short to time singly).
const FLEET_SETUP_SAMPLES: usize = 24;
const PROTOTYPE_SETUP_BATCHES: usize = 24;
const PROTOTYPE_SETUP_BATCH: usize = 32;
/// Inputs per plain run: fleet days, or figure passes, on this many
/// seeds derived from `--seed` (the first is `--seed` itself), taken in
/// turn. One cloudy day costs up to 20 % more than another on the BAAT
/// fleet, so a run reports the mean over its inputs rather than one
/// day's cost.
pub const INPUTS: usize = 4;
/// Repeats a run makes even when `seconds` ends sooner: every input
/// once in a plain run, three of each kind in a traced one.
const MIN_REPEATS: usize = INPUTS;
const MIN_TRACED_REPEATS: usize = 6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BAAT on 300 hosts, one cloudy day.
    FleetBaatDay,
    /// e-Buff on 500 hosts, one cloudy day.
    FleetEbuffDay,
    /// The `figures --quick` sections on the 6-node prototype.
    PaperFigures,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::FleetBaatDay,
        Workload::FleetEbuffDay,
        Workload::PaperFigures,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. The e-Buff
    /// fleet is left out: its `run_s` did not repeat within the bound
    /// on a shared 2-vCPU host (see `README.md`). It can still be run
    /// by name, traced or in A/A mode.
    pub const BENCHMARKED: [Workload; 2] = [Workload::FleetBaatDay, Workload::PaperFigures];

    /// Name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetBaatDay => "fleet_baat_day",
            Workload::FleetEbuffDay => "fleet_ebuff_day",
            Workload::PaperFigures => "paper_figures",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed whose output digest is recorded.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::PaperFigures => 2015,
            _ => 42,
        }
    }

    /// The fleet a fleet workload runs: scheme and host count.
    pub fn fleet(self) -> Option<(Scheme, usize)> {
        match self {
            Workload::FleetBaatDay => Some((Scheme::Baat, 300)),
            Workload::FleetEbuffDay => Some((Scheme::EBuff, 500)),
            Workload::PaperFigures => None,
        }
    }

    /// The exact traffic of a run from `seed`; at the default seed, as
    /// recorded in `BENCHMARK.json`.
    pub fn traffic(self, seed: u64) -> String {
        let threads = format!("engine threads {ENGINE_THREADS}, runner threads {RUNNER_THREADS}");
        let dt = EXPERIMENT_DT.as_secs();
        match self.fleet() {
            Some((scheme, hosts)) => format!(
                "{} on {hosts} hosts, weather [{FLEET_WEATHER:?}], dt {dt} s, \
                 {INPUTS} days per run from seed {seed}, {threads}",
                scheme.name(),
            ),
            None => format!(
                "figures --quick sections on the 6-node prototype, dt {dt} s, \
                 {INPUTS} passes per run from seed {seed}, {threads}",
            ),
        }
    }

    /// Digest of one operation's output at `seed`: the fleet day's
    /// report, or the rendered figure text.
    pub fn output_digest(self, seed: u64) -> u64 {
        match self.fleet() {
            Some(fleet) => {
                let (sim, mut policy) = build_fleet(fleet, seed);
                let report = sim.run(&mut policy).expect("fleet days run to completion");
                report_digest(&report)
            }
            None => text_digest(&figures_pass(seed, None).0),
        }
    }

    /// Runs the workload for about `seconds`, traced or not.
    pub fn run(self, seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<SpanLog>) {
        match (self.fleet(), trace) {
            (Some(fleet), false) => (fleet_plain(self, fleet, seed, seconds), None),
            (Some(fleet), true) => {
                let (outcome, log) = fleet_traced(self, fleet, seed, seconds);
                (outcome, Some(log))
            }
            (None, false) => (figures_plain(seed, seconds), None),
            (None, true) => {
                let (outcome, log) = figures_traced(seed, seconds);
                (outcome, Some(log))
            }
        }
    }
}

/// Builds a fleet day: configuration, engine and policy — everything
/// `setup_s` times.
pub fn build_fleet((scheme, hosts): (Scheme, usize), seed: u64) -> (Simulation, Box<dyn Policy>) {
    let config = fleet_config(hosts, FLEET_WEATHER, seed);
    let sim = Simulation::new(config).expect("fleet configurations are valid");
    (sim, scheme.build())
}

/// Builds the 6-node prototype day every figure scenario starts from.
fn build_prototype(seed: u64) -> (Simulation, Box<dyn Policy>) {
    let sim = Simulation::new(day_config(Weather::Sunny, seed))
        .expect("prototype configurations are valid");
    (sim, Scheme::Baat.build())
}

/// Seed of input `k` of a run started with `seed`.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    match k {
        0 => seed,
        _ => scenario_seed(seed, k),
    }
}

/// Seconds per call of `build`, one value per batch of `batch` calls.
/// Results are held until the batch ends, so dropping them is not
/// timed.
fn setup_samples<T>(batches: usize, batch: usize, mut build: impl FnMut() -> T) -> Vec<f64> {
    let mut held = Vec::with_capacity(batch);
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                held.push(black_box(build()));
            }
            let secs = t.elapsed().as_secs_f64() / batch as f64;
            held.clear();
            secs
        })
        .collect()
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `f`, turning an error or a panic into a message.
fn guarded<T, E: std::fmt::Debug>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("{e:?}")),
        Err(_) => Err("panicked".into()),
    }
}

/// A repeat that produced no output: why, and how many of its
/// operations failed.
#[derive(Debug)]
struct Failed {
    msg: String,
    ops: u64,
}

impl Failed {
    /// One failed operation.
    fn one(msg: String) -> Self {
        Self { msg, ops: 1 }
    }
}

/// Tallies repeated outputs per input: the first output of each input
/// is kept for the final check, and every later one must equal it.
struct Tally<T> {
    firsts: Vec<Option<T>>,
    matching_first: Vec<u64>,
    attempted: u64,
    failed_ops: u64,
    mismatches: u64,
}

impl<T: PartialEq> Tally<T> {
    fn new(inputs: usize) -> Self {
        Self {
            firsts: (0..inputs).map(|_| None).collect(),
            matching_first: vec![0; inputs],
            attempted: 0,
            failed_ops: 0,
            mismatches: 0,
        }
    }

    fn record(&mut self, input: usize, result: Result<T, Failed>) {
        self.attempted += 1;
        match result {
            Err(e) => {
                eprintln!("operation failed: {}", e.msg);
                self.failed_ops += e.ops;
            }
            Ok(v) => match &self.firsts[input] {
                None => {
                    self.firsts[input] = Some(v);
                    self.matching_first[input] += 1;
                }
                Some(first) if *first == v => self.matching_first[input] += 1,
                Some(_) => {
                    eprintln!("input {input}: output differs from its first repeat");
                    self.mismatches += 1;
                }
            },
        }
    }

    /// Applies the final check to each input's kept output; every
    /// repeat equal to it shares its verdict. A repeat whose output
    /// differs from its input's first, or fails the check, fails all of
    /// its `ops_per_repeat` operations; a repeat that errored fails the
    /// operations it reported.
    fn finish(
        self,
        ops_per_repeat: u64,
        check: impl Fn(usize, &T) -> Result<(), String>,
        metrics: Vec<Metric>,
    ) -> Outcome {
        let mut failed_repeats = self.mismatches;
        for (input, first) in self.firsts.iter().enumerate() {
            let verdict = match first {
                Some(first) => check(input, first),
                None => Err("no repeat completed".into()),
            };
            if let Err(e) = verdict {
                eprintln!("input {input}: output check failed: {e}");
                failed_repeats += self.matching_first[input].max(1);
            }
        }
        let failed = self.failed_ops + failed_repeats * ops_per_repeat;
        Outcome {
            correct: failed == 0,
            attempted: self.attempted * ops_per_repeat,
            failed,
            metrics,
        }
    }
}

/// The measuring window: decides whether another repeat fits.
struct Window {
    started: Instant,
    seconds: f64,
    min_repeats: usize,
    calls: usize,
    last: f64,
    longest: f64,
}

impl Window {
    fn new(seconds: f64, min_repeats: usize) -> Self {
        Self {
            started: Instant::now(),
            seconds,
            min_repeats,
            calls: 0,
            last: 0.0,
            longest: 0.0,
        }
    }

    /// Called before each repeat: true until `min_repeats` are done,
    /// then while the longest repeat so far still fits in what is left
    /// of the window, so that a run measures for about `seconds`.
    fn more(&mut self) -> bool {
        let now = self.started.elapsed().as_secs_f64();
        if self.calls > 0 {
            self.longest = self.longest.max(now - self.last);
        }
        self.last = now;
        self.calls += 1;
        self.calls <= self.min_repeats || now + self.longest <= self.seconds
    }
}

fn check_fleet(workload: Workload, seed: u64, report: &SimReport) -> Result<(), String> {
    let (_, hosts) = workload.fleet().expect("fleet workload");
    check_report_invariants(report, hosts, 1)?;
    match expected_digest(workload.name(), seed) {
        Some(want) if report_digest(report) != want => Err(format!(
            "digest {:#018x}, expected {want:#018x}",
            report_digest(report)
        )),
        _ => Ok(()),
    }
}

fn fleet_plain(workload: Workload, fleet: (Scheme, usize), seed: u64, seconds: f64) -> Outcome {
    plain_window(
        seconds,
        1,
        |s| setup_samples(FLEET_SETUP_SAMPLES, 1, || build_fleet(fleet, s)),
        |s| {
            let (sim, mut policy) = build_fleet(fleet, s);
            let t = Instant::now();
            let result = guarded(|| sim.run(&mut policy)).map_err(Failed::one);
            (t.elapsed().as_secs_f64(), result)
        },
        |s, r| check_fleet(workload, s, r),
        seed,
    )
}

/// Repeats `op` — which times itself and returns its output — for about
/// `seconds`, taking the run's inputs in turn, and checks the outputs.
/// Set-up samples come from `setup` after each repeat, so that both
/// spread over the same window and every sample meets the allocator in
/// the state a finished run leaves. Peak memory is read after the last
/// repeat and before any check. `op`, `setup` and `check` receive the
/// input's seed.
fn plain_window<T: PartialEq>(
    seconds: f64,
    ops_per_repeat: u64,
    mut setup: impl FnMut(u64) -> Vec<f64>,
    mut op: impl FnMut(u64) -> (f64, Result<T, Failed>),
    check: impl Fn(u64, &T) -> Result<(), String>,
    seed: u64,
) -> Outcome {
    let mut tally = Tally::new(INPUTS);
    let mut runs = vec![Vec::new(); INPUTS];
    let mut setups = Vec::new();
    let mut window = Window::new(seconds, MIN_REPEATS);
    let mut repeat = 0;
    while window.more() {
        let input = repeat % INPUTS;
        let s = input_seed(seed, input);
        let (secs, result) = op(s);
        eprintln!("  repeat {} (input {input}): {secs:.4} s", repeat + 1);
        runs[input].push(secs);
        tally.record(input, result);
        setups.extend(setup(s));
        repeat += 1;
    }
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    let run_s = runs.iter().map(|r| fastest(r)).sum::<f64>() / INPUTS as f64;
    for (input, r) in runs.iter().enumerate() {
        eprintln!(
            "  input {input}: {} repeats, fastest {:.4} s, median {:.4} s",
            r.len(),
            fastest(r),
            median(r).unwrap_or(f64::NAN)
        );
    }
    eprintln!(
        "  {} set-up samples: fastest {:.3e} s, median {:.3e} s",
        setups.len(),
        fastest(&setups),
        median(&setups).unwrap_or(f64::NAN),
    );
    let metrics = vec![
        Metric::new("run_s", "s", run_s),
        Metric::new("setup_s", "s", fastest(&setups)),
        Metric::new("peak_rss_mb", "MB", rss),
    ];
    tally.finish(
        ops_per_repeat,
        |input, out| check(input_seed(seed, input), out),
        metrics,
    )
}

/// What a traced fleet day observed besides its spans.
#[derive(Debug, Clone)]
pub struct DayCounts {
    /// The day's `run` span.
    pub run: SpanId,
    /// Engine steps taken.
    pub steps: u64,
    /// Steps in which the policy was consulted.
    pub control_steps: u64,
    /// Requests the policy returned.
    pub actions: ActionCounts,
    /// `FleetView::reason_marks` per `DirtyReason`, in `DirtyReason::ALL`
    /// order.
    pub marks: [u64; DirtyReason::COUNT],
    /// Raw sensor samples held across the battery pack.
    pub telemetry_samples: u64,
}

/// One fleet day stepped by hand under a [`TracedPolicy`], its spans
/// recorded under `parent`.
pub fn traced_day(
    fleet: (Scheme, usize),
    seed: u64,
    log: &mut SpanLog,
    parent: SpanId,
) -> Result<(SimReport, DayCounts), String> {
    let (mut sim, inner) = build_fleet(fleet, seed);
    let run = log.open("run", Some(parent));
    let mut policy = TracedPolicy::new(inner, log);
    let steps = sim.total_steps();
    let mut control_steps = 0;
    for _ in 0..steps {
        let step = policy.begin_step(run);
        guarded(|| sim.step(&mut policy))?;
        control_steps += u64::from(policy.end_step(step));
    }
    let marks = DirtyReason::ALL.map(|r| sim.fleet().reason_marks(r));
    let telemetry_samples = sim
        .batteries()
        .iter()
        .map(|b| b.telemetry().samples().count() as u64)
        .sum();
    let actions = policy.actions;
    let name = policy.name();
    let into_report = policy.log.open("report.into_report", Some(run));
    let report = guarded(|| sim.into_report(name))?;
    log.close(into_report);
    log.close(run);
    let counts = DayCounts {
        run,
        steps,
        control_steps,
        actions,
        marks,
        telemetry_samples,
    };
    Ok((report, counts))
}

/// Alternates untraced and traced repeats of one input for about
/// `seconds`, so that tracing overhead is measured in one process, and
/// checks the outputs. `untraced` times itself; `traced` records its
/// spans under the given parent and returns its output, its `run` span
/// and what else it observed. `layers` reads the per-layer metrics off
/// the fastest traced repeat and the input's output.
fn traced_window<T: PartialEq, X>(
    seconds: f64,
    ops_per_repeat: u64,
    mut untraced: impl FnMut() -> (f64, Result<T, Failed>),
    mut traced: impl FnMut(&mut SpanLog, SpanId) -> Result<(T, SpanId, X), Failed>,
    layers: impl FnOnce(&SpanLog, SpanId, &X, &T) -> Vec<Metric>,
    check: impl Fn(&T) -> Result<(), String>,
) -> (Outcome, SpanLog) {
    let mut log = SpanLog::new();
    let root = log.open("workload", None);
    let mut untraced_s = Vec::new();
    let mut runs: Vec<(f64, SpanId, X)> = Vec::new();
    let mut tally = Tally::new(1);
    let mut window = Window::new(seconds, MIN_TRACED_REPEATS);
    let mut i = 0;
    while window.more() {
        if i % 2 == 0 {
            let (secs, result) = untraced();
            untraced_s.push(secs);
            tally.record(0, result);
        } else {
            match traced(&mut log, root) {
                Ok((output, run, seen)) => {
                    runs.push((log.spans()[run].secs(), run, seen));
                    tally.record(0, Ok(output));
                }
                Err(e) => tally.record(0, Err(e)),
            }
        }
        i += 1;
    }
    log.close(root);
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut metrics = Vec::new();
    if let (Some((secs, run, seen)), Some(output)) = (runs.first(), &tally.firsts[0]) {
        metrics = layers(&log, *run, seen, output);
        metrics.push(Metric::new("trace.run_s", "s", *secs));
    }
    let untraced_fastest = fastest(&untraced_s);
    let traced_fastest = runs.first().map_or(f64::NAN, |r| r.0);
    metrics.push(Metric::new("trace.untraced_run_s", "s", untraced_fastest));
    metrics.push(Metric::new(
        "trace.overhead_s",
        "s",
        traced_fastest - untraced_fastest,
    ));
    let outcome = tally.finish(ops_per_repeat, |_, output| check(output), metrics);
    (complete_layers(outcome), log)
}

fn fleet_traced(
    workload: Workload,
    fleet: (Scheme, usize),
    seed: u64,
    seconds: f64,
) -> (Outcome, SpanLog) {
    traced_window(
        seconds,
        1,
        || {
            let (sim, mut policy) = build_fleet(fleet, seed);
            let t = Instant::now();
            let result = guarded(|| sim.run(&mut policy)).map_err(Failed::one);
            (t.elapsed().as_secs_f64(), result)
        },
        |log, root| {
            let (report, counts) = traced_day(fleet, seed, log, root).map_err(Failed::one)?;
            Ok((report, counts.run, counts))
        },
        |log, _, counts, report| {
            let mut m = fleet_layers(workload, log, counts);
            m.extend(report_counts(report));
            m
        },
        |report| check_fleet(workload, seed, report),
    )
}

/// Counts read from a fleet day's report and its event log.
fn report_counts(r: &SimReport) -> [Metric; 5] {
    let count = |f: fn(&Event) -> bool| r.events.count(f) as f64;
    [
        Metric::new(
            "policy.actions.rejected",
            "count",
            count(|e| matches!(e, Event::Action { outcome } if outcome.is_rejected())),
        ),
        Metric::new("cluster.completed_jobs", "count", r.completed_jobs as f64),
        Metric::new("cluster.migrations", "count", r.migrations as f64),
        Metric::new(
            "cluster.shutdowns",
            "count",
            count(|e| matches!(e, Event::ServerShutdown { .. })),
        ),
        Metric::new(
            "cluster.placement_failed",
            "count",
            count(|e| matches!(e, Event::PlacementFailed { .. })),
        ),
    ]
}

/// The `p`-th percentile of `values`, or 0 when there are too few
/// samples for it by [`tail_percentile`].
fn tail(values: &[f64], p: u32) -> f64 {
    match tail_percentile(values.len()) {
        Some(max) if p <= max => percentile(values, p).unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Per-layer metrics of one traced fleet day.
fn fleet_layers(workload: Workload, log: &SpanLog, day: &DayCounts) -> Vec<Metric> {
    let (_, hosts) = workload.fleet().expect("fleet workload");
    let layers = log.layer_self_secs(day.run);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let control_ms: Vec<f64> = log
        .subtree_secs(day.run, "policy.control")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let plain_us: Vec<f64> = log
        .subtree_secs(day.run, "engine.plain_step")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let control_step_s: f64 = log
        .subtree_secs(day.run, "engine.control_step")
        .iter()
        .sum();
    let plain_step_s = layer("engine.plain_step");
    let plain_steps = day.steps - day.control_steps;
    let actions = day.actions;
    let mut m = vec![
        Metric::new("policy.control_s", "s", layer("policy.control")),
        Metric::new("policy.control_calls", "count", control_ms.len() as f64),
        Metric::new("policy.control_ms.p50", "ms", tail(&control_ms, 50)),
        Metric::new("policy.control_ms.p98", "ms", tail(&control_ms, 98)),
        Metric::new("policy.actions.total", "count", actions.total() as f64),
        Metric::new("policy.actions.set_dvfs", "count", actions.set_dvfs as f64),
        Metric::new("policy.actions.migrate", "count", actions.migrate as f64),
        Metric::new("engine.steps", "count", day.steps as f64),
        Metric::new("engine.control_steps", "count", day.control_steps as f64),
        Metric::new("engine.control_step_s", "s", control_step_s),
        Metric::new(
            "engine.control_overhead_s",
            "s",
            layer("engine.control_step"),
        ),
        Metric::new("engine.plain_step_s", "s", plain_step_s),
        Metric::new("engine.plain_step_us.p50", "us", tail(&plain_us, 50)),
        Metric::new("engine.plain_step_us.p99", "us", tail(&plain_us, 99)),
        Metric::new(
            "engine.ns_per_host_step",
            "ns",
            plain_step_s * 1e9 / (plain_steps.max(1) as f64 * hosts as f64),
        ),
        Metric::new("engine.unattributed_s", "s", layer("run")),
        Metric::new("report.into_report_s", "s", layer("report.into_report")),
        Metric::new(
            "battery.telemetry_samples",
            "count",
            day.telemetry_samples as f64,
        ),
    ];
    for (reason, marks) in DirtyReason::ALL.iter().zip(day.marks) {
        m.push(Metric::new(
            format!("fleet.dirty_marks.{}", reason.name()),
            "count",
            marks as f64,
        ));
    }
    m
}

/// One `figures --quick` section.
struct Section {
    /// Span name; the metric is `<span>_s`.
    span: &'static str,
    /// Heading as printed by `figures`.
    title: &'static str,
    /// Runs the section with the quick parameters and renders it.
    render: fn(u64) -> String,
}

/// The sections of `figures --quick`, in print order, with the same
/// parameters.
const SECTIONS: [Section; 16] = [
    Section {
        span: "figures.fig03_05",
        title: "Figs 3–5 — measured battery degradation",
        render: |_| fig03_05::render(&fig03_05::run(2, 10)),
    },
    Section {
        span: "figures.fig03_05_liion",
        title: "Figs 3–5 (li-ion) — the same protocol on an LFP unit",
        render: |_| fig03_05::render(&fig03_05::run_chemistry(Chemistry::LiIon, 2, 10)),
    },
    Section {
        span: "figures.fig10",
        title: "Fig 10 — cycle life vs depth of discharge",
        render: |_| fig10::render(&fig10::run_paper()),
    },
    Section {
        span: "figures.fig12",
        title: "Fig 12 — runtime profiling by weather",
        render: |seed| fig12::render(&fig12::run(seed)),
    },
    Section {
        span: "figures.fig13",
        title: "Fig 13 — aging-metric comparison of the four schemes",
        render: |seed| fig13::render(&fig13::run(seed)),
    },
    Section {
        span: "figures.fig14",
        title: "Fig 14 — lifetime vs solar availability",
        render: |seed| fig14::render(&fig14::run(&[0.45, 0.75], 4, seed)),
    },
    Section {
        span: "figures.fig15",
        title: "Fig 15 — lifetime vs server-to-battery ratio",
        render: |seed| fig15::render(&fig15::run(&[2.0, 6.0, 10.0], 3, seed)),
    },
    Section {
        span: "figures.fig16",
        title: "Fig 16 — annual depreciation cost",
        render: |seed| fig16::render(&fig16::run(&[0.3, 0.5], 3, seed)),
    },
    Section {
        span: "figures.fig17",
        title: "Fig 17 — servers addable without raising TCO",
        render: |seed| fig17::render(&fig17::run(&[0.45, 0.85], 3, seed)),
    },
    Section {
        span: "figures.fig18_19",
        title: "Figs 18–19 — low-SoC exposure and SoC distribution",
        render: |seed| fig18_19::render(&fig18_19::run(6, seed)),
    },
    Section {
        span: "figures.fig20",
        title: "Fig 20 — compute throughput of the four schemes",
        render: |seed| fig20::render(&fig20::run_paper(seed)),
    },
    Section {
        span: "figures.fig21",
        title: "Fig 21 — performance vs planned DoD",
        render: |seed| fig21::render(&fig21::run(&[0.4, 0.6, 0.9], 2, seed)),
    },
    Section {
        span: "figures.fig22",
        title: "Fig 22 — planned-aging benefit vs service horizon",
        render: |seed| fig22::render(&fig22::run(&[300.0, 900.0, 2700.0], 2, seed)),
    },
    Section {
        span: "figures.table1",
        title: "Table 1 — battery usage scenarios",
        render: |seed| table1::render(&table1::run(7, seed)),
    },
    Section {
        span: "figures.ablations",
        title: "Ablations — reproduction design choices",
        render: ablations::render,
    },
    Section {
        span: "figures.chem_ablation",
        title: "Chemistry ablation — lead-acid vs li-ion banks",
        render: |seed| chem_ablation::render(&chem_ablation::run(vec![Weather::Cloudy], seed)),
    },
];

/// One pass over the sections, rendered as `figures --quick` prints it.
/// With a log, each section gets a span under `run`. Returns the text
/// and the number of sections that failed.
fn figures_pass(seed: u64, mut log: Option<(&mut SpanLog, SpanId)>) -> (String, u64) {
    let mut text = format!(
        "# BAAT reproduction — regenerated figures\n\n\
         Seed {seed}; quick parameters. Paper targets quoted inline.\n\n"
    );
    let mut failed = 0;
    for section in &SECTIONS {
        let span = log
            .as_mut()
            .map(|(l, run)| l.open(section.span, Some(*run)));
        let body = guarded(|| Ok::<_, ()>((section.render)(seed)));
        if let (Some((l, _)), Some(span)) = (log.as_mut(), span) {
            l.close(span);
        }
        match body {
            Ok(body) => text.push_str(&format!("## {}\n\n{body}\n", section.title)),
            Err(e) => {
                eprintln!("section {} failed: {e}", section.span);
                failed += 1;
            }
        }
    }
    (text, failed)
}

fn check_figures(seed: u64, text: &str) -> Result<(), String> {
    let headings = text.lines().filter(|l| l.starts_with("## ")).count();
    if headings != SECTIONS.len() {
        return Err(format!(
            "{headings} of {} sections rendered",
            SECTIONS.len()
        ));
    }
    if text.contains("NaN") {
        return Err("a section printed NaN".into());
    }
    match expected_digest(Workload::PaperFigures.name(), seed) {
        Some(want) if text_digest(text) != want => Err(format!(
            "digest {:#018x}, expected {want:#018x}",
            text_digest(text)
        )),
        _ => Ok(()),
    }
}

/// A pass's result: its text, or, when sections failed, as many failed
/// operations.
fn pass_result(text: String, failed: u64) -> Result<String, Failed> {
    match failed {
        0 => Ok(text),
        n => Err(Failed {
            msg: format!("{n} section(s) failed"),
            ops: n,
        }),
    }
}

fn figures_plain(seed: u64, seconds: f64) -> Outcome {
    plain_window(
        seconds,
        SECTIONS.len() as u64,
        |s| {
            setup_samples(PROTOTYPE_SETUP_BATCHES, PROTOTYPE_SETUP_BATCH, || {
                build_prototype(s)
            })
        },
        |s| {
            let t = Instant::now();
            let (text, failed) = figures_pass(s, None);
            (t.elapsed().as_secs_f64(), pass_result(text, failed))
        },
        |s, text: &String| check_figures(s, text),
        seed,
    )
}

fn figures_traced(seed: u64, seconds: f64) -> (Outcome, SpanLog) {
    traced_window(
        seconds,
        SECTIONS.len() as u64,
        || {
            let t = Instant::now();
            let (text, failed) = figures_pass(seed, None);
            (t.elapsed().as_secs_f64(), pass_result(text, failed))
        },
        |log, root| {
            let run = log.open("run", Some(root));
            let (text, failed) = figures_pass(seed, Some((&mut *log, run)));
            log.close(run);
            pass_result(text, failed).map(|text| (text, run, ()))
        },
        |log, run, (), _| {
            let layers = log.layer_self_secs(run);
            let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
            let mut m: Vec<Metric> = SECTIONS
                .iter()
                .map(|section| Metric::new(format!("{}_s", section.span), "s", layer(section.span)))
                .collect();
            m.push(Metric::new("engine.unattributed_s", "s", layer("run")));
            m
        },
        |text| check_figures(seed, text),
    )
}

/// Every per-layer metric name, in report order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("policy.control_s", "s"),
        ("policy.control_calls", "count"),
        ("policy.control_ms.p50", "ms"),
        ("policy.control_ms.p98", "ms"),
        ("policy.actions.total", "count"),
        ("policy.actions.set_dvfs", "count"),
        ("policy.actions.migrate", "count"),
        ("policy.actions.rejected", "count"),
        ("policy.actions.accepted_ratio", "ratio"),
        ("engine.steps", "count"),
        ("engine.control_steps", "count"),
        ("engine.control_step_s", "s"),
        ("engine.control_overhead_s", "s"),
        ("engine.plain_step_s", "s"),
        ("engine.plain_step_us.p50", "us"),
        ("engine.plain_step_us.p99", "us"),
        ("engine.ns_per_host_step", "ns"),
        ("engine.unattributed_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    names.extend(
        DirtyReason::ALL
            .iter()
            .map(|r| (format!("fleet.dirty_marks.{}", r.name()), "count")),
    );
    names.extend(
        [
            "cluster.completed_jobs",
            "cluster.migrations",
            "cluster.shutdowns",
            "cluster.placement_failed",
            "battery.telemetry_samples",
        ]
        .map(|n| (n.to_string(), "count")),
    );
    names.push(("report.into_report_s".into(), "s"));
    names.extend(SECTIONS.iter().map(|s| (format!("{}_s", s.span), "s")));
    names.extend(
        ["trace.run_s", "trace.untraced_run_s", "trace.overhead_s"].map(|n| (n.to_string(), "s")),
    );
    names
}

/// Orders the traced metrics as [`per_layer_names`] lists them, derives
/// the accepted ratio, and fills layers this workload never calls with
/// zero.
fn complete_layers(mut outcome: Outcome) -> Outcome {
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    let total = value("policy.actions.total").unwrap_or(0.0);
    let rejected = value("policy.actions.rejected").unwrap_or(0.0);
    let accepted = if total > 0.0 {
        (total - rejected) / total
    } else {
        0.0
    };
    let mut measured = std::mem::take(&mut outcome.metrics);
    measured.push(Metric::new(
        "policy.actions.accepted_ratio",
        "ratio",
        accepted,
    ));
    outcome.metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, unit, value)
        })
        .collect();
    outcome
}
