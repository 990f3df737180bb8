//! The benchmark's own span recorder and the `Traced` problem
//! decorator.
//!
//! Layers are measured from outside: a span is opened around each
//! call from the benchmark into a `pdnn` public function. Spans stay
//! in memory and are written as JSONL when the traced child exits. A
//! span's *self time* is its duration minus the part of that interval
//! its children cover — for the root `hf_train` span that is exactly
//! the optimizer's own work (CG vector algebra, damping, line-search
//! bookkeeping), because every `HfProblem` call is a child.

use crate::json::Json;
use pdnn::core::{HeldoutEval, HfProblem};
use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread.
pub struct Recorder {
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let parent = inner.open.last().copied();
            inner.open.push(id);
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id as usize].end_ns = self.now_ns();
        inner.open.pop();
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Total length of the union of `intervals` (which may overlap or nest).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (lo, hi) in intervals {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    covered
}

/// Nanoseconds of `spans[id]` not covered by the union of its direct
/// children's intervals (children may overlap each other; each is
/// clipped to the parent).
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let parent = &spans[id as usize];
    let children = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .collect();
    parent.duration_ns() - union_ns(children)
}

/// `(total seconds, calls)` over all spans named `name`.
pub fn total_by_name(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| {
            (t + s.duration_ns() as f64 * 1e-9, n + 1)
        })
}

/// The first span named `name`.
pub fn find(spans: &[Span], name: &str) -> Option<u32> {
    spans.iter().find(|s| s.name == name).map(|s| s.id)
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("id", Json::Num(f64::from(s.id))),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("name", Json::Str(s.name.to_string())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// Span names the decorator emits, one per `HfProblem` method that
/// does work.
pub const SPAN_GRADIENT: &str = "problem.gradient";
pub const SPAN_SAMPLE: &str = "problem.sample_curvature";
pub const SPAN_GN: &str = "problem.gn_product";
pub const SPAN_FISHER: &str = "problem.fisher_diagonal";
pub const SPAN_HELDOUT: &str = "problem.heldout_eval";
pub const SPAN_THETA: &str = "problem.theta";
pub const SPAN_SET_THETA: &str = "problem.set_theta";
/// Root span around `HfOptimizer::train`.
pub const SPAN_ROOT: &str = "hf_train";

/// `HfProblem` decorator: forwards every call to `inner` inside a
/// span. Changes no argument and no result, so a traced run is
/// bit-identical to an untraced one.
pub struct Traced<'a, P: HfProblem> {
    inner: &'a mut P,
    rec: &'a Recorder,
}

impl<'a, P: HfProblem> Traced<'a, P> {
    pub fn new(inner: &'a mut P, rec: &'a Recorder) -> Self {
        Traced { inner, rec }
    }
}

impl<P: HfProblem> HfProblem for Traced<'_, P> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn theta(&self) -> Vec<f32> {
        self.rec.time(SPAN_THETA, || self.inner.theta())
    }
    fn set_theta(&mut self, theta: &[f32]) {
        self.rec
            .time(SPAN_SET_THETA, || self.inner.set_theta(theta))
    }
    fn gradient(&mut self) -> (f64, Vec<f32>) {
        self.rec.time(SPAN_GRADIENT, || self.inner.gradient())
    }
    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        self.rec
            .time(SPAN_SAMPLE, || self.inner.sample_curvature(seed, fraction))
    }
    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        self.rec.time(SPAN_GN, || self.inner.gn_product(v))
    }
    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        self.rec.time(SPAN_FISHER, || self.inner.fisher_diagonal())
    }
    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        self.rec
            .time(SPAN_HELDOUT, || self.inner.heldout_eval(theta))
    }
    fn train_frames(&self) -> u64 {
        self.inner.train_frames()
    }
}
