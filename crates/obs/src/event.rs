//! Structured events and the aggregate telemetry snapshot.
//!
//! An [`Event`] is a point-in-time record with named fields (e.g. one
//! per HF iteration, carrying `rho`, `lambda`, `cg_iters`). A
//! [`Telemetry`] is everything one recorder captured: spans, counters,
//! gauges, events, and communication statistics.

use crate::metrics::CommStats;
use crate::span::SpanRecord;
use pdnn_util::timing::PhaseTimer;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A typed event-field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, iteration numbers).
    U64(u64),
    /// Floating-point measurement.
    F64(f64),
    /// Free-form label.
    Str(String),
}

impl Value {
    /// Numeric view; integers widen, strings are `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::F64(x) => Some(*x),
            Value::Str(_) => None,
        }
    }

    /// String view; numbers are `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::U64(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

/// One structured event on a recorder's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Timestamp in seconds (recorder-defined epoch).
    pub t: f64,
    /// Event name (`hf_iteration`, `phase_attribution`, …).
    pub name: Cow<'static, str>,
    /// Named fields, in insertion order.
    pub fields: Vec<(Cow<'static, str>, Value)>,
}

impl Event {
    /// First field with the given name, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v)
    }
}

/// Everything one recorder captured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<Cow<'static, str>, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<Cow<'static, str>, f64>,
    /// Structured events in emission order.
    pub events: Vec<Event>,
    /// Communication statistics (Figures 4–5).
    pub comm: CommStats,
    /// Seed of the schedule perturbation this snapshot ran under
    /// (`None` for unperturbed runs). Set by the perturbed trainer so a
    /// JSONL dump records which schedule produced it; the
    /// byte-identity comparison normalizes this line away.
    pub schedule_seed: Option<u64>,
}

impl Telemetry {
    /// True when nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.events.is_empty()
            && self.comm == CommStats::default()
            && self.schedule_seed.is_none()
    }

    /// Aggregate span durations into a per-phase timer.
    ///
    /// This is how the legacy `PhaseTimer` views (`master_phases`,
    /// `worker_phases`) are derived from span telemetry.
    pub fn phase_totals(&self) -> PhaseTimer {
        let mut timer = PhaseTimer::new();
        for span in &self.spans {
            timer.add(span.phase.clone(), span.seconds());
        }
        timer
    }

    /// Counter value, zero when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Merge another snapshot into this one (e.g. across ranks).
    ///
    /// Spans and events append; counters sum; gauges take the other
    /// side's latest value; comm statistics sum.
    pub fn merge(&mut self, other: &Telemetry) {
        self.spans.extend(other.spans.iter().cloned());
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        self.events.extend(other.events.iter().cloned());
        self.comm.merge(&other.comm);
        if other.schedule_seed.is_some() {
            self.schedule_seed = other.schedule_seed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    #[test]
    fn event_field_lookup() {
        let e = Event {
            t: 1.0,
            name: "hf_iteration".into(),
            fields: vec![("iter".into(), 3u64.into()), ("rho".into(), 0.8.into())],
        };
        assert_eq!(e.get("iter").and_then(Value::as_f64), Some(3.0));
        assert_eq!(e.get("rho").and_then(Value::as_f64), Some(0.8));
        assert!(e.get("nope").is_none());
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::from("x").as_f64().is_none());
    }

    #[test]
    fn phase_totals_aggregate_spans() {
        let mut t = Telemetry::default();
        t.spans
            .push(SpanRecord::new("grad", SpanKind::DenseCompute, 0.0, 1.0));
        t.spans
            .push(SpanRecord::new("grad", SpanKind::DenseCompute, 2.0, 2.5));
        t.spans
            .push(SpanRecord::new("sync", SpanKind::CommCollective, 1.0, 2.0));
        let phases = t.phase_totals();
        let grad = phases.get("grad");
        assert_eq!(grad.calls, 2);
        assert!((grad.seconds - 1.5).abs() < 1e-12);
        assert!((phases.get("sync").seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_all_sections() {
        let mut a = Telemetry::default();
        a.counters.insert("cg_iters".into(), 5);
        a.gauges.insert("lambda".into(), 1.0);
        let mut b = Telemetry::default();
        b.counters.insert("cg_iters".into(), 3);
        b.gauges.insert("lambda".into(), 0.5);
        b.spans
            .push(SpanRecord::new("x", SpanKind::Scalar, 0.0, 1.0));
        b.comm.collectives_completed = 2;
        a.merge(&b);
        assert_eq!(a.counter("cg_iters"), 8);
        assert_eq!(a.gauge("lambda"), Some(0.5));
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.comm.collectives_completed, 2);
        assert!(!a.is_empty());
        assert!(Telemetry::default().is_empty());
    }
}
