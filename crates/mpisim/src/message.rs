//! Message payloads.
//!
//! The distributed trainer exchanges parameter vectors (`f32`), loss
//! partials (`f64`), control words (`u64`), and occasionally raw
//! bytes. A small closed enum keeps the transport simple and lets the
//! tracer attribute byte counts without reflection.

/// Typed message body.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Empty body (barriers, acks, control signals).
    Empty,
    /// Single-precision vector (parameters, gradients, directions).
    F32(Vec<f32>),
    /// Double-precision vector (loss sums, scalar reductions).
    F64(Vec<f64>),
    /// Unsigned words (commands, counts, seeds).
    U64(Vec<u64>),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Half-precision wire image of an `F32` payload, produced by the
    /// wire codec (see `crate::wire`); 2 bytes per element.
    F16(Vec<u16>),
    /// Int8-quantized wire image of an `F32` payload: element `i`
    /// decodes to `q[i] as f32 * scale`; 1 byte per element plus the
    /// 4-byte scale.
    QI8 {
        /// Deterministic dequantization scale (`max_abs / 127`).
        scale: f32,
        /// Quantized values in `[-127, 127]`.
        q: Vec<i8>,
    },
}

impl Payload {
    /// Size on the (simulated) wire, in bytes.
    pub(crate) fn size_bytes(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::F32(v) => 4 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U64(v) => 8 * v.len() as u64,
            Payload::Bytes(v) => v.len() as u64,
            Payload::F16(v) => 2 * v.len() as u64,
            Payload::QI8 { q, .. } => 4 + q.len() as u64,
        }
    }

    /// Extract an `f32` vector or panic with a protocol error.
    pub fn into_f32(self) -> Vec<f32> {
        match self {
            Payload::F32(v) => v,
            // pdnn-lint: allow(l3-no-unwrap): documented panicking extractor — a payload-kind mismatch is a protocol bug
            other => panic!("protocol error: expected F32, got {}", other.kind()),
        }
    }

    /// Extract a `u64` vector or panic with a protocol error.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            // pdnn-lint: allow(l3-no-unwrap): documented panicking extractor — a payload-kind mismatch is a protocol bug
            other => panic!("protocol error: expected U64, got {}", other.kind()),
        }
    }

    /// Element count (bytes count as elements for `Bytes`).
    pub(crate) fn elems(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::F32(v) => v.len(),
            Payload::F64(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::Bytes(v) => v.len(),
            Payload::F16(v) => v.len(),
            Payload::QI8 { q, .. } => q.len(),
        }
    }

    /// Short kind name for diagnostics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Payload::Empty => "Empty",
            Payload::F32(_) => "F32",
            Payload::F64(_) => "F64",
            Payload::U64(_) => "U64",
            Payload::Bytes(_) => "Bytes",
            Payload::F16(_) => "F16",
            Payload::QI8 { .. } => "QI8",
        }
    }
}

/// A routed message.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending rank.
    pub src: usize,
    /// User- or collective-assigned tag.
    pub tag: u64,
    /// Sender's virtual time when the transfer completed (0 when
    /// virtual timing is off). See `crate::vtime`.
    pub sent_vtime: f64,
    /// Sender's vector clock at send time (`None` unless the world
    /// runs with happens-before tracking — see `crate::hb`). Metadata
    /// for the race detector; not counted as wire bytes.
    pub clock: Option<Vec<u64>>,
    /// Body.
    pub payload: Payload,
}

/// Source selector for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Match any sender (MPI_ANY_SOURCE).
    Any,
    /// Match one specific rank.
    Of(usize),
}

impl Src {
    /// Does a packet from `src` match this selector?
    #[inline]
    pub(crate) fn matches(self, src: usize) -> bool {
        match self {
            Src::Any => true,
            Src::Of(r) => r == src,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_accounting() {
        assert_eq!(Payload::Empty.size_bytes(), 0);
        assert_eq!(Payload::F32(vec![0.0; 10]).size_bytes(), 40);
        assert_eq!(Payload::F64(vec![0.0; 10]).size_bytes(), 80);
        assert_eq!(Payload::U64(vec![0; 3]).size_bytes(), 24);
        assert_eq!(Payload::Bytes(vec![1, 2, 3]).size_bytes(), 3);
        assert_eq!(Payload::F16(vec![0; 10]).size_bytes(), 20);
        assert_eq!(
            Payload::QI8 {
                scale: 1.0,
                q: vec![0; 10]
            }
            .size_bytes(),
            14
        );
    }

    #[test]
    fn typed_extraction() {
        assert_eq!(Payload::F32(vec![1.5]).into_f32(), vec![1.5]);
        assert_eq!(Payload::U64(vec![7]).into_u64(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "protocol error")]
    fn wrong_type_panics() {
        Payload::Empty.into_f32();
    }

    #[test]
    fn src_matching() {
        assert!(Src::Any.matches(5));
        assert!(Src::Of(3).matches(3));
        assert!(!Src::Of(3).matches(4));
    }
}
