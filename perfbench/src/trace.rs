//! Spans recorded from the benchmark's side of each layer boundary, and
//! the policy wrapper that times `Policy::control` from outside.
//!
//! Span hierarchy: `workload` → `run` (one fleet day, or one pass over
//! the figure sections) → `engine.plain_step` / `engine.control_step` /
//! `report.into_report` / `figures.<section>` → `policy.control`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use baat_sim::{Action, ControlCtx, PlacementSpec, Policy, SystemView};
use baat_workload::WorkloadKind;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the log origin.
    pub start_ns: u64,
    /// End, ns since the log origin (equal to start while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store, written out once the benchmark ends.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self::from_spans(Vec::new())
    }

    /// A log holding already-timed spans (for analysis and tests).
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Self {
            origin: Instant::now(),
            spans,
        }
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames `id` once its kind is known (a step becomes a control
    /// step when the policy was consulted inside it).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the durations of its
    /// direct children (children never overlap — everything here runs
    /// on one thread).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Self time summed per layer name over the subtree rooted at
    /// `root` (the root included).
    pub fn layer_self_secs(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let own = self.self_secs();
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if self.descends_from(id, root) {
                *out.entry(span.name).or_insert(0.0) += own[id];
            }
        }
        out
    }

    /// Durations in seconds of the spans named `name` at or below
    /// `root`.
    pub fn subtree_secs(&self, root: SpanId, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(id, s)| s.name == name && self.descends_from(*id, root))
            .map(|(_, s)| s.secs())
            .collect()
    }

    /// Whether `id` is `root` or lies below it.
    fn descends_from(&self, mut id: SpanId, root: SpanId) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(parent) => id = parent,
                None => return false,
            }
        }
    }

    /// One JSON object per span: id, parent (-1 for none), name, start
    /// and end in ns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// What the policy asked for, counted as it left `control`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCounts {
    /// `Action::SetDvfs` requests.
    pub set_dvfs: u64,
    /// `Action::Migrate` requests.
    pub migrate: u64,
    /// `Action::SetSocFloor` requests.
    pub set_soc_floor: u64,
}

impl ActionCounts {
    /// All requests.
    pub fn total(&self) -> u64 {
        self.set_dvfs + self.migrate + self.set_soc_floor
    }
}

/// Wraps a policy and records a `policy.control` span, under the step
/// span currently open, around every `control` call. Everything else is
/// forwarded untouched, so the run is the one the bare policy makes.
pub struct TracedPolicy<'a, P> {
    inner: P,
    /// The spans of the traced run.
    pub log: &'a mut SpanLog,
    step: Option<SpanId>,
    controlled: bool,
    /// Requests returned by `control`.
    pub actions: ActionCounts,
}

impl<'a, P: Policy> TracedPolicy<'a, P> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: P, log: &'a mut SpanLog) -> Self {
        Self {
            inner,
            log,
            step: None,
            controlled: false,
            actions: ActionCounts::default(),
        }
    }

    /// Opens a step span under `parent`; the caller steps the engine,
    /// then calls [`TracedPolicy::end_step`].
    pub fn begin_step(&mut self, parent: SpanId) -> SpanId {
        let id = self.log.open("engine.plain_step", Some(parent));
        self.step = Some(id);
        self.controlled = false;
        id
    }

    /// Closes the step span, naming it a control step when `control`
    /// ran inside it. Returns whether it did.
    pub fn end_step(&mut self, id: SpanId) -> bool {
        self.log.close(id);
        if self.controlled {
            self.log.rename(id, "engine.control_step");
        }
        self.step = None;
        self.controlled
    }
}

impl<P: Policy> Policy for TracedPolicy<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        let span = self.log.open("policy.control", self.step);
        let actions = self.inner.control(view, ctx);
        self.log.close(span);
        self.controlled = true;
        for action in &actions {
            match action {
                Action::SetDvfs { .. } => self.actions.set_dvfs += 1,
                Action::Migrate { .. } => self.actions.migrate += 1,
                Action::SetSocFloor { .. } => self.actions.set_soc_floor += 1,
            }
        }
        actions
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        self.inner.placement_order(kind, view)
    }

    fn placement_spec(&self) -> PlacementSpec {
        self.inner.placement_spec()
    }

    fn save_state(&self) -> Vec<u64> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &[u64]) {
        self.inner.load_state(state)
    }
}
