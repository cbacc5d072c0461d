//! `lnc serve`'s job parser against a copy of its first version, whose
//! `opt_level` arm follows the levels the optimizer has (0 and 2):
//! on seeded random job lines, `parse_job` must give the same `Ok` job or
//! the same `Err` message as the reference. The lines cover every escape
//! (`\u` with surrogate code points and bad hex digits included),
//! multi-byte UTF-8 text, Unicode whitespace between tokens, every
//! char-boundary prefix of a valid line, trailing bytes, and values that
//! are not strings.

use longnail::serve::{parse_job, Job};

/// The first version of the parser, copied verbatim but for the
/// `opt_level` arm, which accepts the optimizer's levels.
mod reference {
    use super::Job;
    use longnail::OptLevel;

    /// Parses one job line: a flat JSON object with string values. The
    /// hand-rolled parser accepts exactly the subset the protocol emits —
    /// string keys, string values, `\"` `\\` `\/` `\n` `\r` `\t` `\uXXXX`
    /// escapes — and rejects everything else with a message.
    pub(super) fn parse_job(line: &str) -> Result<Job, String> {
        let fields = parse_flat_object(line)?;
        let mut job = Job::default();
        for (k, v) in fields {
            match k.as_str() {
                "id" => job.id = v,
                "isax" => job.isax = Some(v),
                "unit" => job.unit = Some(v),
                "core" => job.core = v,
                "src" => job.src = Some(v),
                "opt_level" => match v.as_str() {
                    "0" => job.opt_level = Some(OptLevel::O0),
                    "2" => job.opt_level = Some(OptLevel::O2),
                    other => return Err(format!("opt_level `{other}` is not 0 or 2")),
                },
                other => return Err(format!("unknown job field `{other}`")),
            }
        }
        if job.core.is_empty() {
            return Err("job is missing `core`".into());
        }
        match (&job.isax, &job.src, &job.unit) {
            (Some(_), None, None) => Ok(job),
            (None, Some(_), Some(_)) => Ok(job),
            (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
                Err("give either `isax` or `unit`+`src`, not both".into())
            }
            _ => Err("job needs `isax` (builtin) or `unit`+`src` (inline source)".into()),
        }
    }

    /// Parses `{"k": "v", ...}` into key/value pairs.
    fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
        let mut chars = line.chars().peekable();
        let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
            while chars.next_if(|c| c.is_whitespace()).is_some() {}
        };
        skip_ws(&mut chars);
        if chars.next() != Some('{') {
            return Err("job line is not a JSON object".into());
        }
        let mut fields = Vec::new();
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
        } else {
            loop {
                skip_ws(&mut chars);
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(':') {
                    return Err(format!("expected `:` after key `{key}`"));
                }
                skip_ws(&mut chars);
                let value = parse_string(&mut chars)?;
                fields.push((key, value));
                skip_ws(&mut chars);
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => break,
                    _ => return Err("expected `,` or `}` after a field".into()),
                }
            }
        }
        skip_ws(&mut chars);
        if chars.next().is_some() {
            return Err("trailing bytes after the job object".into());
        }
        Ok(fields)
    }

    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected a string (only string values are allowed)".into());
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unsupported escape `\\{}`", other.unwrap_or(' '))),
                },
                Some(c) => out.push(c),
            }
        }
    }
}

/// SplitMix64: a small seeded generator, so every run draws the same lines.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Whitespace between tokens: ASCII, none, and Unicode white space the
/// parsers must treat alike (U+0085, U+00A0, U+2028, U+3000).
const SPACE: [&str; 9] = ["", "", " ", "  ", "\t", "\r\n", "\u{85}", "\u{a0}", "\u{2028}\u{3000}"];

/// Pieces of a string literal's body that parse: plain and multi-byte
/// text and every supported escape.
const BODY: [&str; 21] = [
    "dotprod",
    "ORCA",
    "X_DOTP",
    "a b",
    "0",
    "é",
    "中文",
    "🦀",
    "\u{2028}",
    "\u{0}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\u4E2D",
    "\\uFFFF",
    "{\\\"k\\\": 1}",
];

/// Escapes that do not parse: surrogate code points, bad or missing hex
/// digits (a full-width digit among them), and unsupported escapes.
const BAD_BODY: [&str; 13] = [
    "\\uD800",
    "\\udfff",
    "\\uDC00x",
    "\\u12G4",
    "\\u12",
    "\\u１２３４",
    "\\u",
    "\\b",
    "\\f",
    "\\x",
    "\\é",
    "\\ ",
    "\\",
];

const KEYS: [&str; 9] = ["id", "isax", "unit", "core", "src", "opt_level", "zzz", "ID", ""];

/// Values that are not strings.
const NON_STRINGS: [&str; 7] = ["3", "-1.5e3", "true", "null", "{}", "[\"a\"]", "'x'"];

/// A literal of 0–5 body pieces; when `broken`, it may hold an escape
/// that does not parse or lack its closing quote.
fn literal(rng: &mut Rng, broken: bool) -> String {
    let mut s = String::from("\"");
    for _ in 0..rng.below(6) {
        if broken && rng.below(3) == 0 {
            s.push_str(rng.pick(&BAD_BODY));
        } else {
            s.push_str(rng.pick(&BODY));
        }
    }
    if !broken || rng.below(4) != 0 {
        s.push('"');
    }
    s
}

/// A value: mostly a literal, a valid `opt_level`, or a non-string.
fn value(rng: &mut Rng) -> String {
    match rng.below(10) {
        0 => rng.pick(&NON_STRINGS).to_string(),
        1 => format!("\"{}\"", rng.pick(&["0", "1", "2", "3", "02", ""])),
        n => literal(rng, n % 2 == 0),
    }
}

/// A line with random fields, spacing and separators.
fn free_line(rng: &mut Rng) -> String {
    let mut s = String::from(rng.pick(&SPACE));
    s.push_str(rng.pick(&["{", "{", "{", "{", "[", ""]));
    let fields = rng.below(6);
    for i in 0..fields {
        s.push_str(rng.pick(&SPACE));
        if rng.below(12) == 0 {
            s.push_str(rng.pick(&NON_STRINGS));
        } else if rng.below(4) == 0 {
            s.push_str(&literal(rng, true));
        } else {
            s.push_str(&format!("\"{}\"", rng.pick(&KEYS)));
        }
        s.push_str(rng.pick(&SPACE));
        s.push_str(rng.pick(&[":", ":", ":", ":", "", "="]));
        s.push_str(rng.pick(&SPACE));
        s.push_str(&value(rng));
        s.push_str(rng.pick(&SPACE));
        if i + 1 < fields {
            s.push_str(rng.pick(&[",", ",", ",", ",", "", ";"]));
        }
    }
    s.push_str(rng.pick(&["}", "}", "}", "}", "", ",}", "]"]));
    s.push_str(rng.pick(&SPACE));
    if rng.below(8) == 0 {
        s.push_str(rng.pick(&["x", "}", "{}", "\"\"", "é", "\u{0}"]));
    }
    s
}

/// A job the protocol accepts (a builtin or an inline one, with or without
/// `opt_level`), its fields in random order and spacing, with at most one
/// field's value replaced by a random one and sometimes a field of the
/// other job kind.
fn job_line(rng: &mut Rng) -> String {
    let mut keys = vec!["id", "core"];
    if rng.below(2) == 0 {
        keys.push("isax");
    } else {
        keys.extend(["unit", "src"]);
    }
    if rng.below(3) == 0 {
        keys.push("opt_level");
    }
    if rng.below(8) == 0 {
        // A builtin and an inline job at once.
        keys.push(rng.pick(&["isax", "unit", "src"]));
    }
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    let spoiled = rng.below(2 * keys.len());
    let mut s = format!("{}{{", rng.pick(&SPACE));
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let value = match (i == spoiled, *key) {
            (true, _) => value(rng),
            (false, "opt_level") => format!("\"{}\"", rng.below(3)),
            _ => literal(rng, false),
        };
        let (a, b, c, d) = (rng.pick(&SPACE), rng.pick(&SPACE), rng.pick(&SPACE), rng.pick(&SPACE));
        s.push_str(&format!("{a}\"{key}\"{b}:{c}{value}{d}"));
    }
    s.push('}');
    s.push_str(rng.pick(&SPACE));
    s
}

fn assert_agrees(line: &str) {
    let (got, want): (Result<Job, String>, Result<Job, String>) =
        (parse_job(line), reference::parse_job(line));
    assert_eq!(got, want, "job line {line:?}");
}

#[test]
fn random_job_lines_parse_as_the_reference_parses_them() {
    let mut rng = Rng(0x5eed_0b5e);
    let mut ok = 0;
    let mut errors: Vec<String> = Vec::new();
    for i in 0..20_000 {
        let line = if i % 2 == 0 {
            job_line(&mut rng)
        } else {
            free_line(&mut rng)
        };
        assert_agrees(&line);
        match parse_job(&line) {
            Ok(_) => ok += 1,
            Err(e) => errors.push(e),
        }
    }
    assert!(ok > 1_000, "only {ok} of the lines parsed");
    // Every way a line can be rejected must come up.
    let messages = [
        "not a JSON object",
        "only string values",
        "expected `:` after key",
        "expected `,` or `}`",
        "trailing bytes",
        "unterminated string",
        "bad \\u escape",
        "bad \\u code point",
        "unsupported escape",
        "unknown job field",
        "is not 0 or 2",
        "missing `core`",
        "not both",
        "job needs",
    ];
    for message in messages {
        assert!(
            errors.iter().any(|e| e.contains(message)),
            "no line was rejected with `{message}`"
        );
    }
}

#[test]
fn every_prefix_of_a_valid_line_parses_as_the_reference_parses_it() {
    let lines = [
        r#"{"id": "j1", "isax": "dotprod", "core": "ORCA"}"#,
        "\u{a0}{ \"id\":\"é\\u00e9\\n🦀\", \"unit\" :\"U\",\u{2028}\"core\": \"Piccolo\", \
         \"src\": \"x \\\"y\\\"\\t\\\\ \\/ \\u4e2d\\r\", \"opt_level\": \"2\" }\u{3000}",
    ];
    for full in lines {
        assert!(parse_job(full).is_ok(), "{full:?} is a valid job");
        for (at, _) in full.char_indices().chain([(full.len(), ' ')]) {
            assert_agrees(&full[..at]);
            assert_agrees(&format!("{}x", &full[..at]));
        }
    }
}
