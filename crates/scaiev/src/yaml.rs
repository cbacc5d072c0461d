//! Minimal YAML subset used for the Longnail ↔ SCAIE-V metadata files
//! (paper §4.6). Supports exactly the shapes of Figures 8 and 9: top-level
//! `key: value` scalars, lists of inline maps (`- {k: v, k2: v2}`), and
//! comments. Hand-rolled to keep the workspace free of heavyweight
//! dependencies.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One parsed line-level item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// `key: value`
    Scalar { key: String, value: String },
    /// `key:` introducing an indented list of inline maps.
    List {
        key: String,
        items: Vec<BTreeMap<String, String>>,
    },
}

/// A document: items in file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Doc {
    pub items: Vec<Item>,
}

impl Doc {
    /// Retrieves the first scalar with the given key.
    pub fn scalar(&self, key: &str) -> Option<&str> {
        self.items.iter().find_map(|i| match i {
            Item::Scalar { key: k, value } if k == key => Some(value.as_str()),
            _ => None,
        })
    }

    /// Retrieves the first list with the given key.
    pub fn list(&self, key: &str) -> Option<&[BTreeMap<String, String>]> {
        self.items.iter().find_map(|i| match i {
            Item::List { key: k, items } if k == key => Some(items.as_slice()),
            _ => None,
        })
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Scalar { key, value } => {
                    let _ = writeln!(out, "{key}: {value}");
                }
                Item::List { key, items } => {
                    let _ = writeln!(out, "{key}:");
                    for map in items {
                        let inner: Vec<String> =
                            map.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                        let _ = writeln!(out, "  - {{{}}}", inner.join(", "));
                    }
                }
            }
        }
        out
    }

    /// Parses a document in the supported subset.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn parse(text: &str) -> Result<Doc, String> {
        let mut doc = Doc::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw);
            if line.trim().is_empty() {
                continue;
            }
            let err = |m: &str| Err(format!("line {}: {m}", lineno + 1));
            if let Some(rest) = line.trim_start().strip_prefix("- ") {
                // List item: `- {k: v, ...}` appended to the last list.
                let Some(Item::List { items, .. }) = doc.items.last_mut() else {
                    return err("list item without a preceding list key");
                };
                let inner = rest.trim();
                let Some(body) = inner.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
                    return err("expected inline map `- {key: value, ...}`");
                };
                let mut map = BTreeMap::new();
                for pair in split_top_level(body) {
                    let Some((k, v)) = pair.split_once(':') else {
                        return err("expected `key: value` inside inline map");
                    };
                    map.insert(k.trim().to_string(), v.trim().to_string());
                }
                items.push(map);
            } else if !raw.starts_with(' ') {
                let Some((k, v)) = line.split_once(':') else {
                    return err("expected `key: value` or `key:`");
                };
                let key = k.trim().to_string();
                let value = v.trim().to_string();
                if value.is_empty() {
                    doc.items.push(Item::List {
                        key,
                        items: Vec::new(),
                    });
                } else {
                    doc.items.push(Item::Scalar { key, value });
                }
            } else {
                return err("unexpected indented line");
            }
        }
        Ok(doc)
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside of quotes starts a comment; our values never contain
    // quoted hashes, so a simple scan suffices (but keep `#` inside quotes).
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_quote = false;
    let mut cur = String::new();
    for c in body.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            '{' | '[' if !in_quote => {
                depth += 1;
                cur.push(c);
            }
            '}' | ']' if !in_quote => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 && !in_quote => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

/// Unquotes a value if it is quoted.
pub fn unquote(v: &str) -> &str {
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_figure8_shape() {
        let text = r#"register: {name: COUNT, width: 32, elements: 1}
instruction: setup_zol
encoding: "------------------101000000001011"
schedule:
  - {interface: RdPC, stage: 1}
  - {interface: WrCOUNT.addr, stage: 1}
  - {interface: WrCOUNT.data, stage: 1, has valid: 1}
"#;
        let doc = Doc::parse(text).unwrap();
        assert_eq!(doc.scalar("instruction"), Some("setup_zol"));
        let sched = doc.list("schedule").unwrap();
        assert_eq!(sched.len(), 3);
        assert_eq!(sched[0]["interface"], "RdPC");
        assert_eq!(sched[2]["has valid"], "1");
        // Render → parse is stable.
        let again = Doc::parse(&doc.render()).unwrap();
        assert_eq!(doc, again);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\nname: x # trailing\n\nlist:\n  - {a: 1} # item\n";
        let doc = Doc::parse(text).unwrap();
        assert_eq!(doc.scalar("name"), Some("x"));
        assert_eq!(doc.list("list").unwrap()[0]["a"], "1");
    }

    #[test]
    fn errors_are_located() {
        assert!(Doc::parse("  - {a: 1}").unwrap_err().contains("line 1"));
        assert!(Doc::parse("x: 1\nbogus").unwrap_err().contains("line 2"));
    }

    #[test]
    fn unquote_strips_quotes() {
        assert_eq!(unquote("\"abc\""), "abc");
        assert_eq!(unquote("abc"), "abc");
    }
}
