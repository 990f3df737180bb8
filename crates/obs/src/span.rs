//! Timed spans: the unit of phase attribution.
//!
//! A [`SpanRecord`] is a named, closed interval of (virtual or wall)
//! time tagged with a [`SpanKind`]. The kind determines how the BG/Q
//! cycle model buckets the interval (dense FPU work, memory-bound
//! work, scalar control flow, communication, waiting), mirroring how
//! the paper attributes hardware-counter cycles to functions.

use std::borrow::Cow;

/// What a span's time was spent on.
///
/// This is the telemetry-side vocabulary; the BG/Q machine model in
/// `pdnn-perfmodel` maps it onto its `PhaseKind` cycle-model
/// categories when reproducing Figures 2–3.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum SpanKind {
    /// Dense floating-point work (matrix products, CG updates).
    DenseCompute,
    /// Streaming/memory-bandwidth-bound work (weight sync, shuffles).
    MemoryBound,
    /// Scalar bookkeeping and control flow.
    Scalar,
    /// Point-to-point communication (sends/recvs to one peer).
    CommP2p,
    /// Collective communication (bcast, reduce, allreduce, …).
    CommCollective,
    /// Blocked waiting on another rank or resource.
    Wait,
    /// File or checkpoint I/O.
    Io,
}

impl SpanKind {
    /// Stable lower-snake name used in JSONL export.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanKind::DenseCompute => "dense_compute",
            SpanKind::MemoryBound => "memory_bound",
            SpanKind::Scalar => "scalar",
            SpanKind::CommP2p => "comm_p2p",
            SpanKind::CommCollective => "comm_collective",
            SpanKind::Wait => "wait",
            SpanKind::Io => "io",
        }
    }

    /// Inverse of [`SpanKind::as_str`]; `None` for unknown names.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "dense_compute" => SpanKind::DenseCompute,
            "memory_bound" => SpanKind::MemoryBound,
            "scalar" => SpanKind::Scalar,
            "comm_p2p" => SpanKind::CommP2p,
            "comm_collective" => SpanKind::CommCollective,
            "wait" => SpanKind::Wait,
            "io" => SpanKind::Io,
            _ => return None,
        })
    }
}

/// A completed span: one named interval on a rank's timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase name (`gradient_loss`, `sync_weights_master`, …).
    pub phase: Cow<'static, str>,
    /// What the time was spent on.
    pub kind: SpanKind,
    /// Start time in seconds (epoch is recorder-defined).
    pub start: f64,
    /// End time in seconds; never before `start`.
    pub end: f64,
}

impl SpanRecord {
    /// Build a span, validating the interval.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(phase: impl Into<Cow<'static, str>>, kind: SpanKind, start: f64, end: f64) -> Self {
        let phase = phase.into();
        assert!(
            end >= start,
            "span '{phase}' ends before it starts ({end} < {start})"
        );
        SpanRecord {
            phase,
            kind,
            start,
            end,
        }
    }

    /// Phase name as a plain string slice.
    pub fn name(&self) -> &str {
        &self.phase
    }

    /// Duration in seconds.
    pub(crate) fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SpanKind::DenseCompute,
            SpanKind::MemoryBound,
            SpanKind::Scalar,
            SpanKind::CommP2p,
            SpanKind::CommCollective,
            SpanKind::Wait,
            SpanKind::Io,
        ] {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("warp_drive"), None);
    }

    #[test]
    fn span_reports_duration() {
        let s = SpanRecord::new("grad", SpanKind::DenseCompute, 1.0, 3.5);
        assert_eq!(s.name(), "grad");
        assert!((s.seconds() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_span_rejected() {
        SpanRecord::new("bad", SpanKind::Scalar, 2.0, 1.0);
    }
}
