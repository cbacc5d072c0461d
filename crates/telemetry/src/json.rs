//! JSON-lines codec for [`TraceEvent`]s.
//!
//! Each event is one flat JSON object per line, keyed by `ev`:
//!
//! ```text
//! {"seq":0,"ev":"span_start","id":1,"parent":null,"name":"compile","unit":null}
//! {"seq":1,"ev":"counter","span":1,"name":"solver.pivots","value":42}
//! {"seq":2,"ev":"gauge","span":1,"name":"eda.area_um2","value":812.5}
//! {"seq":3,"ev":"attr","span":1,"name":"core","value":"ORCA"}
//! {"seq":4,"ev":"diag","span":1,"severity":"warning","stage":"schedule","unit":"sqrt","message":"..."}
//! {"seq":5,"ev":"span_end","id":1,"dur_ns":123456}
//! ```
//!
//! The codec is hand-rolled because the workspace is offline (no serde):
//! the emitter writes exactly this shape, and the parser accepts exactly
//! flat objects with string / number / null values, which is closed under
//! round-tripping. Gauge values use Rust's shortest-round-trip float
//! formatting, so parse(emit(t)) == t holds bit-exactly.

use crate::{EventKind, SpanId, TraceEvent};
use std::collections::HashMap;
use std::fmt::Write;

/// Writes one event as a single JSON object (no trailing newline).
pub fn write_event(out: &mut String, e: &TraceEvent) {
    let _ = write!(out, "{{\"seq\":{}", e.seq);
    match &e.kind {
        EventKind::SpanStart {
            id,
            parent,
            name,
            unit,
        } => {
            let _ = write!(out, ",\"ev\":\"span_start\",\"id\":{}", id.0);
            match parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{}", p.0);
                }
                None => out.push_str(",\"parent\":null"),
            }
            out.push_str(",\"name\":");
            write_str(out, name);
            out.push_str(",\"unit\":");
            write_opt_str(out, unit.as_deref());
        }
        EventKind::SpanEnd { id, dur_ns } => {
            let _ = write!(
                out,
                ",\"ev\":\"span_end\",\"id\":{},\"dur_ns\":{dur_ns}",
                id.0
            );
        }
        EventKind::Counter { span, name, value } => {
            let _ = write!(out, ",\"ev\":\"counter\",\"span\":{}", span.0);
            out.push_str(",\"name\":");
            write_str(out, name);
            let _ = write!(out, ",\"value\":{value}");
        }
        EventKind::Gauge { span, name, value } => {
            let _ = write!(out, ",\"ev\":\"gauge\",\"span\":{}", span.0);
            out.push_str(",\"name\":");
            write_str(out, name);
            let _ = write!(out, ",\"value\":{}", fmt_f64(*value));
        }
        EventKind::Attr { span, name, value } => {
            let _ = write!(out, ",\"ev\":\"attr\",\"span\":{}", span.0);
            out.push_str(",\"name\":");
            write_str(out, name);
            out.push_str(",\"value\":");
            write_str(out, value);
        }
        EventKind::Diag {
            span,
            severity,
            stage,
            unit,
            message,
        } => {
            out.push_str(",\"ev\":\"diag\",\"span\":");
            match span {
                Some(s) => {
                    let _ = write!(out, "{}", s.0);
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"severity\":");
            write_str(out, severity);
            out.push_str(",\"stage\":");
            write_str(out, stage);
            out.push_str(",\"unit\":");
            write_opt_str(out, unit.as_deref());
            out.push_str(",\"message\":");
            write_str(out, message);
        }
    }
    out.push('}');
}

/// Formats an f64 so that it parses back bit-exactly and stays valid JSON.
/// JSON has no NaN/Infinity; those are written as `null` — never coerced
/// to a number, which would silently fabricate a measurement. The parser
/// reads `null` back as NaN.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    // "{}" prints integral floats without a dot; keep that (valid JSON).
    format!("{v}")
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

fn write_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => write_str(out, s),
        None => out.push_str("null"),
    }
}

/// A parsed scalar JSON value. Numbers keep their source text so each
/// field converts with its own type (u64 vs f64) without precision loss.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(String),
    Null,
}

/// Parses one JSON-lines record back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a description of the first syntax or schema problem.
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let fields = parse_flat_object(line)?;
    let seq = get_u64(&fields, "seq")?;
    let ev = get_str(&fields, "ev")?;
    let kind = match ev.as_str() {
        "span_start" => EventKind::SpanStart {
            id: SpanId(get_u64(&fields, "id")?),
            parent: get_opt_u64(&fields, "parent")?.map(SpanId),
            name: get_str(&fields, "name")?.into(),
            unit: get_opt_str(&fields, "unit")?,
        },
        "span_end" => EventKind::SpanEnd {
            id: SpanId(get_u64(&fields, "id")?),
            dur_ns: get_u64(&fields, "dur_ns")?,
        },
        "counter" => EventKind::Counter {
            span: SpanId(get_u64(&fields, "span")?),
            name: get_str(&fields, "name")?.into(),
            value: get_u64(&fields, "value")?,
        },
        "gauge" => EventKind::Gauge {
            span: SpanId(get_u64(&fields, "span")?),
            name: get_str(&fields, "name")?.into(),
            value: get_f64(&fields, "value")?,
        },
        "attr" => EventKind::Attr {
            span: SpanId(get_u64(&fields, "span")?),
            name: get_str(&fields, "name")?.into(),
            value: get_str(&fields, "value")?,
        },
        "diag" => EventKind::Diag {
            span: get_opt_u64(&fields, "span")?.map(SpanId),
            severity: get_str(&fields, "severity")?,
            stage: get_str(&fields, "stage")?,
            unit: get_opt_str(&fields, "unit")?,
            message: get_str(&fields, "message")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(TraceEvent { seq, kind })
}

fn get<'a>(fields: &'a HashMap<String, Scalar>, key: &str) -> Result<&'a Scalar, String> {
    fields
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn get_str(fields: &HashMap<String, Scalar>, key: &str) -> Result<String, String> {
    match get(fields, key)? {
        Scalar::Str(s) => Ok(s.clone()),
        _ => Err(format!("field `{key}` must be a string")),
    }
}

fn get_opt_str(fields: &HashMap<String, Scalar>, key: &str) -> Result<Option<String>, String> {
    match get(fields, key)? {
        Scalar::Str(s) => Ok(Some(s.clone())),
        Scalar::Null => Ok(None),
        _ => Err(format!("field `{key}` must be a string or null")),
    }
}

fn get_u64(fields: &HashMap<String, Scalar>, key: &str) -> Result<u64, String> {
    match get(fields, key)? {
        Scalar::Num(n) => n
            .parse::<u64>()
            .map_err(|_| format!("field `{key}`: `{n}` is not a u64")),
        _ => Err(format!("field `{key}` must be a number")),
    }
}

fn get_opt_u64(fields: &HashMap<String, Scalar>, key: &str) -> Result<Option<u64>, String> {
    match get(fields, key)? {
        Scalar::Num(n) => n
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("field `{key}`: `{n}` is not a u64")),
        Scalar::Null => Ok(None),
        _ => Err(format!("field `{key}` must be a number or null")),
    }
}

fn get_f64(fields: &HashMap<String, Scalar>, key: &str) -> Result<f64, String> {
    match get(fields, key)? {
        Scalar::Num(n) => n
            .parse::<f64>()
            .map_err(|_| format!("field `{key}`: `{n}` is not a number")),
        // The emitter writes non-finite gauges as `null` (JSON has no
        // NaN/Infinity); they come back as NaN, the one non-finite value
        // that re-serializes to `null`, keeping emit∘parse idempotent.
        Scalar::Null => Ok(f64::NAN),
        _ => Err(format!("field `{key}` must be a number or null")),
    }
}

/// Parses a single-level JSON object with string / number / null values.
fn parse_flat_object(text: &str) -> Result<HashMap<String, Scalar>, String> {
    let mut p = Parser {
        chars: text.char_indices().peekable(),
        text,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut fields = HashMap::new();
    p.skip_ws();
    if p.eat('}') {
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.scalar()?;
        fields.insert(key, value);
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        break;
    }
    p.skip_ws();
    if let Some(&(i, _)) = p.chars.peek() {
        return Err(format!("trailing input at byte {i}"));
    }
    Ok(fields)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some(&(_, c)) if c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected `{want}` at byte {i}, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of line")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = self
                                .chars
                                .next()
                                .ok_or("truncated \\u escape".to_string())?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit `{c}` in \\u escape"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?,
                        );
                    }
                    Some((j, c)) => return Err(format!("bad escape `\\{c}` at byte {j}")),
                    None => return Err(format!("truncated escape at byte {i}")),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.chars.peek() {
            Some(&(_, '"')) => Ok(Scalar::Str(self.string()?)),
            Some(&(start, c)) if c == '-' || c.is_ascii_digit() => {
                let mut end = start;
                while let Some(&(i, c)) = self.chars.peek() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                Ok(Scalar::Num(self.text[start..end].to_string()))
            }
            Some(&(start, 'n')) => {
                for want in "null".chars() {
                    match self.chars.next() {
                        Some((_, c)) if c == want => {}
                        _ => return Err(format!("bad literal at byte {start}")),
                    }
                }
                Ok(Scalar::Null)
            }
            Some(&(i, c)) => Err(format!("unexpected `{c}` at byte {i}")),
            None => Err("unexpected end of line".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Telemetry, Trace};

    fn sample_trace() -> Trace {
        let mut t = Telemetry::new();
        let root = t.start_span("compile");
        t.attr(root, "core", "VexRiscv");
        let u = t.start_unit_span("unit", Some("dotp"));
        t.counter(u, "solver.pivots", 42);
        t.gauge(u, "sched.chain_depth", 4.25);
        t.gauge(u, "eda.area_um2", 812.0417);
        t.diag(
            Some(u),
            "warning",
            "schedule",
            Some("dotp"),
            "degraded to ASAP fallback: \"budget\"\n(work 7/7)",
        );
        t.end_span(u);
        t.end_span(root);
        t.finish()
    }

    #[test]
    fn jsonl_round_trips_bit_exactly() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // And the serialized forms agree too.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn strings_with_escapes_survive() {
        let mut t = Telemetry::new();
        let s = t.start_span("compile");
        t.attr(s, "name", "quote \" backslash \\ tab \t control \u{1}");
        let trace = t.finish();
        let back = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn gauge_floats_round_trip() {
        for v in [0.0, -1.5, 1.0 / 3.0, 1e-12, 6.02e23, 42.0] {
            let mut t = Telemetry::new();
            let s = t.start_span("compile");
            t.gauge(s, "g", v);
            let trace = t.finish();
            let back = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
            assert_eq!(back, trace, "value {v}");
        }
    }

    #[test]
    fn non_finite_gauges_round_trip_as_null() {
        use crate::EventKind;
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut t = Telemetry::new();
            let s = t.start_span("compile");
            t.gauge(s, "g", v);
            let trace = t.finish();
            let text = trace.to_jsonl();
            // Never a fabricated number: the non-finite value serializes
            // as a JSON null.
            assert!(
                text.contains("\"value\":null"),
                "value {v} leaked into the JSON: {text}"
            );
            assert!(
                !text.contains("\"value\":0"),
                "value {v} coerced to 0: {text}"
            );
            let back = Trace::from_jsonl(&text).unwrap();
            let got = back
                .events
                .iter()
                .find_map(|e| match &e.kind {
                    EventKind::Gauge { value, .. } => Some(*value),
                    _ => None,
                })
                .expect("gauge survives the round trip");
            assert!(got.is_nan(), "value {v} parsed back as {got}");
            // Re-serialization is a fixed point (NaN != NaN breaks Trace
            // equality, so compare the text form).
            assert_eq!(back.to_jsonl(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Trace::from_jsonl("{\"seq\":0}").is_err()); // missing ev
        assert!(Trace::from_jsonl("{\"seq\":0,\"ev\":\"nope\"}").is_err());
        assert!(Trace::from_jsonl("not json").is_err());
        assert!(
            Trace::from_jsonl("{\"seq\":0,\"ev\":\"span_end\",\"id\":1,\"dur_ns\":-3}").is_err()
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let trace = sample_trace();
        let text = format!("\n{}\n\n", trace.to_jsonl());
        assert_eq!(Trace::from_jsonl(&text).unwrap(), trace);
    }
}
