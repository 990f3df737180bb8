//! JSONL export and import of [`Telemetry`] snapshots.
//!
//! One line per record, one file per run, all ranks interleaved. The
//! writer and parser are hand-rolled (the workspace takes no
//! serialization dependency) and cover exactly the subset of JSON the
//! writer emits: flat objects of strings, numbers, `null`, and one
//! level of nested object for event fields.
//!
//! Line shapes (`rank` appears in every line):
//!
//! ```text
//! {"type":"span","rank":0,"phase":"gradient_loss","kind":"dense_compute","start":0.0,"end":1.5}
//! {"type":"counter","rank":0,"name":"cg_iters","value":8}
//! {"type":"gauge","rank":0,"name":"lambda","value":0.25}
//! {"type":"event","rank":0,"t":2.0,"name":"hf_iteration","fields":{"iter":1,"rho":0.8}}
//! {"type":"comm","rank":0,"class":"p2p","seconds":0.1,"bytes_sent":64,"bytes_received":0,"sends":1,"recvs":0}
//! {"type":"collectives","rank":0,"completed":3}
//! {"type":"schedule","rank":0,"seed":42}
//! ```
//!
//! The `schedule` line only appears for snapshots taken under a
//! perturbed schedule (see `Telemetry::schedule_seed`); the
//! perturbed-schedule determinism tests strip it before comparing
//! dumps byte-for-byte.
//!
//! Floats are written with Rust's shortest round-trip formatting
//! (always containing `.` or `e`), so the parser can reconstruct the
//! original integer-vs-float distinction. Non-finite floats are
//! written as `null` and read back as NaN.

use crate::event::{Event, Telemetry, Value};
use crate::metrics::{ClassTotals, CommClass};
use crate::span::{SpanKind, SpanRecord};
use pdnn_util::Error;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

// ---------------------------------------------------------------- writing

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

fn push_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => push_f64(*x, out),
        Value::Str(s) => esc(s, out),
    }
}

fn push_comm_line(rank: u64, class: CommClass, t: &ClassTotals, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"comm\",\"rank\":{rank},\"class\":\"{}\",\"seconds\":",
        class.as_str()
    );
    push_f64(t.seconds, out);
    let _ = writeln!(
        out,
        ",\"bytes_sent\":{},\"bytes_received\":{},\"sends\":{},\"recvs\":{}}}",
        t.bytes_sent, t.bytes_received, t.sends, t.recvs
    );
}

/// Serialize one rank's telemetry as JSONL.
pub fn to_jsonl_string(rank: u64, telemetry: &Telemetry) -> String {
    let mut out = String::new();
    for span in &telemetry.spans {
        let _ = write!(out, "{{\"type\":\"span\",\"rank\":{rank},\"phase\":");
        esc(&span.phase, &mut out);
        let _ = write!(out, ",\"kind\":\"{}\",\"start\":", span.kind.as_str());
        push_f64(span.start, &mut out);
        out.push_str(",\"end\":");
        push_f64(span.end, &mut out);
        out.push_str("}\n");
    }
    for (name, value) in &telemetry.counters {
        let _ = write!(out, "{{\"type\":\"counter\",\"rank\":{rank},\"name\":");
        esc(name, &mut out);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (name, value) in &telemetry.gauges {
        let _ = write!(out, "{{\"type\":\"gauge\",\"rank\":{rank},\"name\":");
        esc(name, &mut out);
        out.push_str(",\"value\":");
        push_f64(*value, &mut out);
        out.push_str("}\n");
    }
    for event in &telemetry.events {
        let _ = write!(out, "{{\"type\":\"event\",\"rank\":{rank},\"t\":");
        push_f64(event.t, &mut out);
        out.push_str(",\"name\":");
        esc(&event.name, &mut out);
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in event.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(key, &mut out);
            out.push(':');
            push_value(value, &mut out);
        }
        out.push_str("}}\n");
    }
    push_comm_line(rank, CommClass::PointToPoint, &telemetry.comm.p2p, &mut out);
    push_comm_line(
        rank,
        CommClass::Collective,
        &telemetry.comm.collective,
        &mut out,
    );
    let _ = writeln!(
        out,
        "{{\"type\":\"collectives\",\"rank\":{rank},\"completed\":{}}}",
        telemetry.comm.collectives_completed
    );
    if let Some(seed) = telemetry.schedule_seed {
        let _ = writeln!(
            out,
            "{{\"type\":\"schedule\",\"rank\":{rank},\"seed\":{seed}}}"
        );
    }
    out
}

/// Write per-rank telemetry to `path` (rank = slice index).
pub fn write_jsonl(path: impl AsRef<Path>, per_rank: &[Telemetry]) -> Result<(), Error> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::new();
    for (rank, telemetry) in per_rank.iter().enumerate() {
        out.push_str(&to_jsonl_string(rank as u64, telemetry));
    }
    fs::write(path, out)?;
    Ok(())
}

// ---------------------------------------------------------------- parsing

enum Json {
    Str(String),
    U64(u64),
    F64(f64),
    Obj(Vec<(String, Json)>),
    Null,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Self {
        Parser {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, what: &str) -> Error {
        Error::Parse(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), Error> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", byte as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.fail("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.fail("dangling escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.fail("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to the char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.fail("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number"))?;
        if token.is_empty() {
            return Err(self.fail("expected a number"));
        }
        let looks_float = token.contains(['.', 'e', 'E', '-']);
        if !looks_float {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        token
            .parse::<f64>()
            .map(Json::F64)
            .map_err(|_| Error::Parse(format!("bad number '{token}'")))
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err(self.fail("expected null"))
                }
            }
            Some(_) => self.number(),
            None => Err(self.fail("unexpected end of line")),
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect_byte(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }
}

fn field<'j>(fields: &'j [(String, Json)], name: &str) -> Result<&'j Json, Error> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::Parse(format!("missing field '{name}'")))
}

fn as_str(j: &Json, name: &str) -> Result<String, Error> {
    match j {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(Error::Parse(format!("field '{name}' is not a string"))),
    }
}

fn as_u64(j: &Json, name: &str) -> Result<u64, Error> {
    match j {
        Json::U64(n) => Ok(*n),
        _ => Err(Error::Parse(format!("field '{name}' is not an integer"))),
    }
}

fn as_f64(j: &Json, name: &str) -> Result<f64, Error> {
    match j {
        Json::U64(n) => Ok(*n as f64),
        Json::F64(x) => Ok(*x),
        Json::Null => Ok(f64::NAN),
        _ => Err(Error::Parse(format!("field '{name}' is not a number"))),
    }
}

fn as_value(j: &Json, name: &str) -> Result<Value, Error> {
    match j {
        Json::U64(n) => Ok(Value::U64(*n)),
        Json::F64(x) => Ok(Value::F64(*x)),
        Json::Null => Ok(Value::F64(f64::NAN)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Obj(_) => Err(Error::Parse(format!("field '{name}' is not a scalar"))),
    }
}

fn apply_line(
    fields: &[(String, Json)],
    per_rank: &mut BTreeMap<u64, Telemetry>,
) -> Result<(), Error> {
    let kind = as_str(field(fields, "type")?, "type")?;
    let rank = as_u64(field(fields, "rank")?, "rank")?;
    let telemetry = per_rank.entry(rank).or_default();
    match kind.as_str() {
        "span" => {
            let phase = as_str(field(fields, "phase")?, "phase")?;
            let kind_name = as_str(field(fields, "kind")?, "kind")?;
            let span_kind = SpanKind::parse(&kind_name)
                .ok_or_else(|| Error::Parse(format!("unknown span kind '{kind_name}'")))?;
            let start = as_f64(field(fields, "start")?, "start")?;
            let end = as_f64(field(fields, "end")?, "end")?;
            if end < start {
                return Err(Error::Parse(format!(
                    "span '{phase}' ends before it starts"
                )));
            }
            telemetry
                .spans
                .push(SpanRecord::new(phase, span_kind, start, end));
        }
        "counter" => {
            let name = as_str(field(fields, "name")?, "name")?;
            let value = as_u64(field(fields, "value")?, "value")?;
            *telemetry.counters.entry(name.into()).or_insert(0) += value;
        }
        "gauge" => {
            let name = as_str(field(fields, "name")?, "name")?;
            let value = as_f64(field(fields, "value")?, "value")?;
            telemetry.gauges.insert(name.into(), value);
        }
        "event" => {
            let t = as_f64(field(fields, "t")?, "t")?;
            let name = as_str(field(fields, "name")?, "name")?;
            let Json::Obj(raw) = field(fields, "fields")? else {
                return Err(Error::Parse("event 'fields' is not an object".into()));
            };
            let mut parsed = Vec::with_capacity(raw.len());
            for (key, value) in raw {
                parsed.push((key.clone().into(), as_value(value, key)?));
            }
            telemetry.events.push(Event {
                t,
                name: name.into(),
                fields: parsed,
            });
        }
        "comm" => {
            let class = match as_str(field(fields, "class")?, "class")?.as_str() {
                "p2p" => CommClass::PointToPoint,
                "collective" => CommClass::Collective,
                other => return Err(Error::Parse(format!("unknown comm class '{other}'"))),
            };
            let totals = telemetry.comm.class_mut(class);
            totals.seconds += as_f64(field(fields, "seconds")?, "seconds")?;
            totals.bytes_sent += as_u64(field(fields, "bytes_sent")?, "bytes_sent")?;
            totals.bytes_received += as_u64(field(fields, "bytes_received")?, "bytes_received")?;
            totals.sends += as_u64(field(fields, "sends")?, "sends")?;
            totals.recvs += as_u64(field(fields, "recvs")?, "recvs")?;
        }
        "collectives" => {
            telemetry.comm.collectives_completed +=
                as_u64(field(fields, "completed")?, "completed")?;
        }
        "schedule" => {
            telemetry.schedule_seed = Some(as_u64(field(fields, "seed")?, "seed")?);
        }
        other => return Err(Error::Parse(format!("unknown line type '{other}'"))),
    }
    Ok(())
}

/// Parse JSONL text into `(rank, telemetry)` pairs, ascending by rank.
pub fn parse_jsonl(text: &str) -> Result<Vec<(u64, Telemetry)>, Error> {
    let mut per_rank: BTreeMap<u64, Telemetry> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = Parser::new(line)
            .object()
            .map_err(|e| Error::Parse(format!("line {}: {e}", lineno + 1)))?;
        let Json::Obj(fields) = parsed else {
            unreachable!("object() only returns objects")
        };
        apply_line(&fields, &mut per_rank)
            .map_err(|e| Error::Parse(format!("line {}: {e}", lineno + 1)))?;
    }
    Ok(per_rank.into_iter().collect())
}

/// Read and parse a JSONL telemetry file.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<(u64, Telemetry)>, Error> {
    parse_jsonl(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{InMemoryRecorder, Recorder, RecorderExt};

    fn sample() -> Telemetry {
        let rec = InMemoryRecorder::with_manual_clock();
        {
            let _g = rec.span("gradient_loss", SpanKind::DenseCompute);
            rec.advance_clock(1.5);
        }
        rec.span_at("sync_weights", SpanKind::CommCollective, 1.5, 2.0);
        rec.counter_add("cg_iters", 8);
        rec.gauge_set("lambda", 0.25);
        rec.event(
            "hf_iteration",
            vec![
                ("iter".into(), 1u64.into()),
                ("rho".into(), 0.8.into()),
                ("note".into(), "accepted, with \"quotes\"".into()),
            ],
        );
        let mut t = rec.take();
        t.comm.on_send(CommClass::PointToPoint, 64);
        t.comm.add_seconds(CommClass::Collective, 0.125);
        t.comm.on_collective_done();
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let text = to_jsonl_string(3, &original);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 3);
        assert_eq!(parsed[0].1, original);
    }

    #[test]
    fn multiple_ranks_come_back_sorted() {
        let a = sample();
        let mut text = to_jsonl_string(2, &a);
        text.push_str(&to_jsonl_string(0, &a));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(
            parsed.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(parsed[0].1, parsed[1].1);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("pdnn-obs-jsonl-{}", std::process::id()));
        let path = dir.join("run.jsonl");
        let ranks = vec![sample(), Telemetry::default()];
        write_jsonl(&path, &ranks).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].1, ranks[0]);
        assert_eq!(back[1].1, ranks[1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_jsonl("{\"type\":\"span\"").is_err());
        assert!(parse_jsonl("{\"type\":\"mystery\",\"rank\":0}").is_err());
        assert!(parse_jsonl("{\"type\":\"span\",\"rank\":0,\"phase\":\"x\",\"kind\":\"scalar\",\"start\":2.0,\"end\":1.0}").is_err());
        let err = parse_jsonl("{\"type\":\"gauge\",\"rank\":0,\"name\":\"x\"}").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", to_jsonl_string(0, &sample()));
        assert_eq!(parse_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn escaped_strings_survive() {
        let rec = InMemoryRecorder::with_manual_clock();
        rec.span_at("tab\there \"and\" back\\slash", SpanKind::Io, 0.0, 1.0);
        let t = rec.take();
        let parsed = parse_jsonl(&to_jsonl_string(0, &t)).unwrap();
        assert_eq!(parsed[0].1, t);
    }

    #[test]
    fn schedule_seed_round_trips() {
        let mut t = sample();
        t.schedule_seed = Some(42);
        let text = to_jsonl_string(1, &t);
        assert!(text.contains("{\"type\":\"schedule\",\"rank\":1,\"seed\":42}"));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed[0].1.schedule_seed, Some(42));
        // Unperturbed snapshots emit no schedule line at all.
        assert!(!to_jsonl_string(0, &sample()).contains("\"schedule\""));
    }

    #[test]
    fn non_finite_floats_become_nan() {
        let rec = InMemoryRecorder::with_manual_clock();
        rec.gauge_set("bad", f64::INFINITY);
        let t = rec.take();
        let parsed = parse_jsonl(&to_jsonl_string(0, &t)).unwrap();
        assert!(parsed[0].1.gauge("bad").unwrap().is_nan());
    }
}
