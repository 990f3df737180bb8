//! Comm-event trace: the ordered, per-rank record of every abstract
//! protocol action a rank performed.
//!
//! Where [`CommTrace`](crate::CommTrace) aggregates *how much* a rank
//! communicated (bytes, ops, seconds), the event trace records *what*
//! it did, in order: each point-to-point send/receive outside a
//! collective, and each completed collective invocation. This is the
//! hook `pdnn-protomc` replays through the abstract protocol automata
//! to prove the model checker's guarantees cover the real code
//! (trace conformance), so events carry exactly the protocol-visible
//! shape of an operation — peer, tag, payload kind, element count,
//! and for collectives the operation name, root, and the first `u64`
//! element (which makes command-header opcodes observable).
//!
//! Serialization is hand-rolled JSONL like every other report in the
//! workspace (no serde); [`events_to_jsonl`] and
//! [`events_from_jsonl`] round-trip exactly.

use std::fmt::Write as _;

/// One observable communication action on a rank, in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommEvent {
    /// Point-to-point send issued outside any collective.
    Send {
        /// Destination rank.
        to: usize,
        /// User tag.
        tag: u64,
        /// Payload kind name (`"F32"`, `"U64"`, …).
        kind: &'static str,
        /// Element count of the payload.
        len: usize,
    },
    /// Point-to-point receive completed outside any collective.
    Recv {
        /// Source rank the message actually came from.
        from: usize,
        /// Tag the receive matched.
        tag: u64,
        /// Payload kind name.
        kind: &'static str,
        /// Element count of the payload.
        len: usize,
    },
    /// One completed collective invocation on this rank.
    Coll {
        /// Operation name (`"bcast"`, `"reduce"`, `"barrier"`, …).
        op: &'static str,
        /// Root rank (0 for unrooted operations).
        root: usize,
        /// Element kind name of the buffer.
        kind: &'static str,
        /// Element count of the buffer.
        len: usize,
        /// First element when the buffer is `u64` — the command
        /// opcode for protocol header broadcasts.
        first: Option<u64>,
        /// Whether the invocation succeeded on this rank. A timed
        /// root drains every contribution even after observing a
        /// failure, so its event stream stays command-aligned; the
        /// failure is recorded here as `ok: false`.
        ok: bool,
    },
}

/// Intern a payload-kind name back to the `'static` strings the
/// writer used (the parser's inverse of [`Payload::kind`]).
///
/// [`Payload::kind`]: crate::Payload::kind
fn intern_kind(s: &str) -> Option<&'static str> {
    match s {
        "Empty" => Some("Empty"),
        "F32" => Some("F32"),
        "F64" => Some("F64"),
        "U64" => Some("U64"),
        "Bytes" => Some("Bytes"),
        "F16" => Some("F16"),
        "QI8" => Some("QI8"),
        _ => None,
    }
}

/// Intern a collective operation name.
fn intern_op(s: &str) -> Option<&'static str> {
    match s {
        "bcast" => Some("bcast"),
        "reduce" => Some("reduce"),
        "barrier" => Some("barrier"),
        "allreduce" => Some("allreduce"),
        "allreduce_ring" => Some("allreduce_ring"),
        "allreduce_tree" => Some("allreduce_tree"),
        "gather" => Some("gather"),
        "scatter" => Some("scatter"),
        "allgather" => Some("allgather"),
        _ => None,
    }
}

impl CommEvent {
    /// Render this event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            CommEvent::Send { to, tag, kind, len } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"send\",\"to\":{to},\"tag\":{tag},\"kind\":\"{kind}\",\"len\":{len}}}"
                );
            }
            CommEvent::Recv {
                from,
                tag,
                kind,
                len,
            } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"recv\",\"from\":{from},\"tag\":{tag},\"kind\":\"{kind}\",\"len\":{len}}}"
                );
            }
            CommEvent::Coll {
                op,
                root,
                kind,
                len,
                first,
                ok,
            } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"coll\",\"op\":\"{op}\",\"root\":{root},\"kind\":\"{kind}\",\"len\":{len},\"first\":"
                );
                match first {
                    Some(v) => {
                        let _ = write!(out, "{v}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"ok\":{ok}}}");
            }
        }
        out
    }

    /// Parse one JSON object produced by [`CommEvent::to_json`].
    pub fn from_json(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing field {key:?} in {line:?}"))
        };
        let usize_of = |key: &str| -> Result<usize, String> {
            get(key)?
                .parse::<usize>()
                .map_err(|e| format!("bad {key} in {line:?}: {e}"))
        };
        let u64_of = |key: &str| -> Result<u64, String> {
            get(key)?
                .parse::<u64>()
                .map_err(|e| format!("bad {key} in {line:?}: {e}"))
        };
        let kind_of = |key: &str| -> Result<&'static str, String> {
            let raw = get(key)?;
            intern_kind(raw).ok_or_else(|| format!("unknown payload kind {raw:?}"))
        };
        match get("ev")? {
            "send" => Ok(CommEvent::Send {
                to: usize_of("to")?,
                tag: u64_of("tag")?,
                kind: kind_of("kind")?,
                len: usize_of("len")?,
            }),
            "recv" => Ok(CommEvent::Recv {
                from: usize_of("from")?,
                tag: u64_of("tag")?,
                kind: kind_of("kind")?,
                len: usize_of("len")?,
            }),
            "coll" => {
                let raw_op = get("op")?;
                let op =
                    intern_op(raw_op).ok_or_else(|| format!("unknown collective op {raw_op:?}"))?;
                let first = match get("first")? {
                    "null" => None,
                    v => Some(
                        v.parse::<u64>()
                            .map_err(|e| format!("bad first in {line:?}: {e}"))?,
                    ),
                };
                let ok = match get("ok")? {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad ok value {other:?}")),
                };
                Ok(CommEvent::Coll {
                    op,
                    root: usize_of("root")?,
                    kind: kind_of("kind")?,
                    len: usize_of("len")?,
                    first,
                    ok,
                })
            }
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// Split one flat JSON object (no nesting, string values without
/// escapes — exactly what [`CommEvent::to_json`] emits) into
/// `(key, raw value)` pairs; string values are returned unquoted.
fn parse_flat_object(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut fields = Vec::new();
    for part in body.split(',') {
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| format!("malformed field {part:?}"))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("malformed key {k:?}"))?;
        let value = v.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .unwrap_or(value);
        fields.push((key, value));
    }
    Ok(fields)
}

/// Serialize an event trace as JSONL (one event per line, trailing
/// newline after each).
pub fn events_to_jsonl(events: &[CommEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// Parse a JSONL event trace produced by [`events_to_jsonl`].
pub fn events_from_jsonl(text: &str) -> Result<Vec<CommEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(CommEvent::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<CommEvent> {
        vec![
            CommEvent::Send {
                to: 1,
                tag: 17,
                kind: "U64",
                len: 5,
            },
            CommEvent::Recv {
                from: 0,
                tag: 17,
                kind: "U64",
                len: 5,
            },
            CommEvent::Coll {
                op: "bcast",
                root: 0,
                kind: "U64",
                len: 1,
                first: Some(2),
                ok: true,
            },
            CommEvent::Coll {
                op: "reduce",
                root: 0,
                kind: "F32",
                len: 1024,
                first: None,
                ok: false,
            },
            CommEvent::Coll {
                op: "barrier",
                root: 0,
                kind: "Empty",
                len: 0,
                first: None,
                ok: true,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let events = sample();
        let text = events_to_jsonl(&events);
        let back = events_from_jsonl(&text).unwrap();
        assert_eq!(back, events);
        // And serialization is a fixed point: re-rendering the parsed
        // trace yields byte-identical text.
        assert_eq!(events_to_jsonl(&back), text);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(events_from_jsonl("not json").is_err());
        assert!(events_from_jsonl("{\"ev\":\"warp\"}").is_err());
        assert!(events_from_jsonl("{\"ev\":\"send\",\"to\":1}").is_err());
        assert!(events_from_jsonl(
            "{\"ev\":\"send\",\"to\":1,\"tag\":2,\"kind\":\"Q8\",\"len\":0}"
        )
        .is_err());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let events = sample();
        let mut text = String::from("\n");
        text.push_str(&events_to_jsonl(&events));
        text.push('\n');
        assert_eq!(events_from_jsonl(&text).unwrap(), events);
    }
}
