//! The recorder API: one sink-agnostic surface for all telemetry.
//!
//! Instrumented code talks to a [`Recorder`] and nothing else: it
//! opens RAII [`SpanGuard`]s around phases, bumps counters, sets
//! gauges, and emits structured events. Sinks decide what happens to
//! the data — [`InMemoryRecorder`] accumulates a [`Telemetry`]
//! snapshot (tests, JSONL export, rendering), [`NullRecorder`]
//! discards everything at zero cost.

use crate::event::{Event, Telemetry, Value};
use crate::span::{SpanKind, SpanRecord};
use pdnn_util::sync::locked;
use pdnn_util::timing::{Clock, WallClock};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// Object-safe telemetry sink.
///
/// All methods take `&self`: recorders are shared across call stacks
/// (and, via `Arc`, across threads), so sinks synchronize internally.
pub trait Recorder: Send + Sync {
    /// Current time in seconds since the recorder's epoch.
    fn now(&self) -> f64;

    /// Store one completed span.
    fn record_span(&self, span: SpanRecord);

    /// Add `delta` to the named monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Set the named gauge to `value` (last write wins).
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Emit a structured event stamped with [`Recorder::now`].
    fn event(&self, name: &'static str, fields: Vec<(Cow<'static, str>, Value)>);
}

/// Ergonomic helpers over any [`Recorder`], sized or not.
pub trait RecorderExt: Recorder {
    /// Open a span; it records itself when the guard drops.
    fn span(&self, phase: impl Into<Cow<'static, str>>, kind: SpanKind) -> SpanGuard<'_, Self> {
        SpanGuard {
            rec: self,
            phase: phase.into(),
            kind,
            start: self.now(),
        }
    }

    /// Record a span with explicit endpoints (for simulated time).
    fn span_at(&self, phase: impl Into<Cow<'static, str>>, kind: SpanKind, start: f64, end: f64) {
        self.record_span(SpanRecord::new(phase, kind, start, end));
    }
}

impl<R: Recorder + ?Sized> RecorderExt for R {}

/// RAII guard for one in-flight span.
///
/// Created by [`RecorderExt::span`]; records a [`SpanRecord`] from the
/// guard's creation time to its drop time.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard<'a, R: Recorder + ?Sized> {
    rec: &'a R,
    phase: Cow<'static, str>,
    kind: SpanKind,
    start: f64,
}

impl<R: Recorder + ?Sized> Drop for SpanGuard<'_, R> {
    fn drop(&mut self) {
        let phase = std::mem::take(&mut self.phase);
        let end = self.rec.now();
        // Monotonicity can wobble with a manual clock wound backwards;
        // clamp rather than panic inside drop.
        let end = end.max(self.start);
        self.rec
            .record_span(SpanRecord::new(phase, self.kind, self.start, end));
    }
}

enum ClockSource {
    /// Injected time source (wall clock by default; see
    /// [`InMemoryRecorder::with_clock`]). All wall-clock reads go
    /// through `pdnn_util::timing` per lint rule `l1-sim-wall-clock`.
    External(Arc<dyn Clock>),
    /// Explicitly advanced simulated time.
    Manual(f64),
}

struct Inner {
    clock: ClockSource,
    data: Telemetry,
}

/// Accumulating sink: everything recorded lands in a [`Telemetry`].
///
/// Thread-safe; clone an `Arc<InMemoryRecorder>` into each
/// instrumented component and [`take`](InMemoryRecorder::take) the
/// snapshot at the end of the run.
pub struct InMemoryRecorder {
    inner: Mutex<Inner>,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// Recorder whose epoch is its creation instant (wall clock).
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// Recorder reading time from an injected [`Clock`] (e.g. a shared
    /// `pdnn_util::ManualClock` in deterministic simulated runs).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        InMemoryRecorder {
            inner: Mutex::new(Inner {
                clock: ClockSource::External(clock),
                data: Telemetry::default(),
            }),
        }
    }

    /// Recorder driven by an explicit clock starting at `0.0`.
    ///
    /// Tests advance it; elsewhere it reads 0 throughout.
    pub fn with_manual_clock() -> Self {
        InMemoryRecorder {
            inner: Mutex::new(Inner {
                clock: ClockSource::Manual(0.0),
                data: Telemetry::default(),
            }),
        }
    }

    /// Take the accumulated telemetry, resetting the recorder's data
    /// (the clock keeps running).
    pub fn take(&self) -> Telemetry {
        std::mem::take(&mut locked(&self.inner).data)
    }
}

impl Recorder for InMemoryRecorder {
    fn now(&self) -> f64 {
        match &locked(&self.inner).clock {
            ClockSource::External(clock) => clock.now(),
            ClockSource::Manual(t) => *t,
        }
    }

    fn record_span(&self, span: SpanRecord) {
        locked(&self.inner).data.spans.push(span);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *locked(&self.inner)
            .data
            .counters
            .entry(Cow::Borrowed(name))
            .or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        locked(&self.inner)
            .data
            .gauges
            .insert(Cow::Borrowed(name), value);
    }

    fn event(&self, name: &'static str, fields: Vec<(Cow<'static, str>, Value)>) {
        let t = self.now();
        locked(&self.inner).data.events.push(Event {
            t,
            name: Cow::Borrowed(name),
            fields,
        });
    }
}

/// Discards everything; the zero-overhead default sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn now(&self) -> f64 {
        0.0
    }

    fn record_span(&self, _span: SpanRecord) {}

    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    fn gauge_set(&self, _name: &'static str, _value: f64) {}

    fn event(&self, _name: &'static str, _fields: Vec<(Cow<'static, str>, Value)>) {}
}

#[cfg(test)]
impl InMemoryRecorder {
    /// Advance a manual clock by `dt` seconds (tests drive the clock).
    pub(crate) fn advance_clock(&self, dt: f64) {
        assert!(dt >= 0.0, "clock must advance forward");
        match &mut locked(&self.inner).clock {
            ClockSource::Manual(t) => *t += dt,
            ClockSource::External(_) => panic!("advance_clock on an externally clocked recorder"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_inner_before_outer() {
        let rec = InMemoryRecorder::with_manual_clock();
        {
            let _outer = rec.span("outer", SpanKind::Scalar);
            rec.advance_clock(1.0);
            {
                let _inner = rec.span("inner", SpanKind::DenseCompute);
                rec.advance_clock(2.0);
            }
            rec.advance_clock(1.0);
        }
        let t = rec.take();
        assert_eq!(t.spans.len(), 2);
        // Inner guard drops first, so it lands first.
        assert_eq!(t.spans[0].name(), "inner");
        assert_eq!(t.spans[1].name(), "outer");
        assert!((t.spans[0].start - 1.0).abs() < 1e-12);
        assert!((t.spans[0].end - 3.0).abs() < 1e-12);
        assert!((t.spans[1].start - 0.0).abs() < 1e-12);
        assert!((t.spans[1].end - 4.0).abs() < 1e-12);
        // The outer span fully contains the inner one.
        assert!(t.spans[1].start <= t.spans[0].start && t.spans[0].end <= t.spans[1].end);
    }

    #[test]
    fn overlapping_guards_may_interleave() {
        let rec = InMemoryRecorder::with_manual_clock();
        let a = rec.span("a", SpanKind::Scalar);
        rec.advance_clock(1.0);
        let b = rec.span("b", SpanKind::Scalar);
        rec.advance_clock(1.0);
        drop(a); // a: [0, 2]
        rec.advance_clock(1.0);
        drop(b); // b: [1, 3]
        let t = rec.take();
        assert_eq!(t.spans[0].name(), "a");
        assert!((t.spans[0].end - 2.0).abs() < 1e-12);
        assert_eq!(t.spans[1].name(), "b");
        assert!((t.spans[1].start - 1.0).abs() < 1e-12);
        assert!((t.spans[1].end - 3.0).abs() < 1e-12);
    }

    #[test]
    fn counters_gauges_and_events_accumulate() {
        let rec = InMemoryRecorder::with_manual_clock();
        rec.counter_add("cg_iters", 5);
        rec.counter_add("cg_iters", 3);
        rec.gauge_set("lambda", 1.0);
        rec.gauge_set("lambda", 0.25);
        rec.advance_clock(2.0);
        rec.event("hf_iteration", vec![("iter".into(), 1u64.into())]);
        let t = rec.take();
        assert_eq!(t.counter("cg_iters"), 8);
        assert_eq!(t.gauge("lambda"), Some(0.25));
        assert_eq!(t.events.len(), 1);
        assert!((t.events[0].t - 2.0).abs() < 1e-12);
        // take() drains; a second take sees nothing.
        assert_eq!(rec.take().counter("cg_iters"), 0);
    }

    #[test]
    fn span_at_records_simulated_intervals() {
        let rec = InMemoryRecorder::with_manual_clock();
        rec.span_at("sim", SpanKind::CommCollective, 10.0, 12.5);
        let t = rec.take();
        assert_eq!(t.spans.len(), 1);
        assert!((t.spans[0].seconds() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let rec = InMemoryRecorder::new();
        let a = rec.now();
        let b = rec.now();
        assert!(b >= a && a >= 0.0);
    }

    #[test]
    fn null_recorder_discards_everything() {
        let rec = NullRecorder;
        {
            let _g = rec.span("ignored", SpanKind::Scalar);
        }
        rec.counter_add("x", 1);
        rec.gauge_set("y", 2.0);
        rec.event("z", Vec::new());
        assert_eq!(rec.now(), 0.0);
    }

    #[test]
    fn trait_object_recorders_still_open_spans() {
        let rec = InMemoryRecorder::with_manual_clock();
        let dynrec: &dyn Recorder = &rec;
        {
            let _g = dynrec.span("via_dyn", SpanKind::Scalar);
            rec.advance_clock(1.0);
        }
        let t = rec.take();
        assert_eq!(t.spans[0].name(), "via_dyn");
        assert!((t.spans[0].seconds() - 1.0).abs() < 1e-12);
    }
}
