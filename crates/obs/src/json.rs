//! The one JSON writer: every report, gate file and dump builds a
//! [`Value`] and prints it with `Display`.
//!
//! The layout has one rule. A container whose members are all scalars
//! (an empty one included) goes on one line, `{"a": 1, "b": 2}`; any
//! other container puts one member per line at a two-space indent.
//! Strings are escaped per RFC 8259 §7: `"`, `\` and every control
//! character, so any file name a path may hold prints as valid JSON.

use std::fmt::{self, Write};

/// A JSON value. An object keeps its keys in insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An integer; wide enough for every `u64` and `i64`.
    Int(i128),
    /// `true` or `false`.
    Bool(bool),
    /// A string, escaped when written.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, its members in the order given.
    Object(Vec<(String, Value)>),
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Int(n as i128)
            }
        }
    )*};
}
from_int!(u64, i64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// An object [`Value`] from literal keys, in the order written:
/// `obj! {"k": 3, "sync": obj! {"p50": p50}}`. Each value is anything
/// with `Into<Value>`.
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $((::std::string::String::from($key), $crate::json::Value::from($value))),*
        ])
    };
}

impl Value {
    fn write(&self, out: &mut impl Write, indent: usize) -> fmt::Result {
        match self {
            Value::Int(n) => write!(out, "{n}"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                write_members(out, indent, "[]", items.iter().map(|v| (None, v)))
            }
            Value::Object(members) => write_members(
                out,
                indent,
                "{}",
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container's members between the two characters of
/// `brackets`, by the layout rule in the module doc.
fn write_members<'a>(
    out: &mut impl Write,
    indent: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    let flat = members
        .clone()
        .all(|(_, v)| !matches!(v, Value::Array(_) | Value::Object(_)));
    out.write_str(open)?;
    for (i, (key, value)) in members.enumerate() {
        if flat {
            out.write_str(if i == 0 { "" } else { ", " })?;
        } else {
            out.write_str(if i == 0 { "\n" } else { ",\n" })?;
            write!(out, "{:1$}", "", indent + 2)?;
        }
        if let Some(key) = key {
            write_str(out, key)?;
            out.write_str(": ")?;
        }
        value.write(out, indent + 2)?;
    }
    if !flat {
        write!(out, "\n{:1$}", "", indent)?;
    }
    out.write_str(close)
}

/// `s` as a JSON string literal (RFC 8259 §7).
fn write_str(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{8}' => out.write_str("\\b")?,
            '\u{c}' => out.write_str("\\f")?,
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> String {
        Value::from(s).to_string()
    }

    #[test]
    fn every_control_character_is_escaped() {
        let short = [
            (8, "\\b"),
            (9, "\\t"),
            (10, "\\n"),
            (12, "\\f"),
            (13, "\\r"),
        ];
        for code in 0u32..32 {
            let c = char::from_u32(code).expect("a control character");
            let want = short
                .iter()
                .find(|&&(n, _)| n == code)
                .map_or_else(|| format!("\\u00{code:02x}"), |&(_, e)| e.to_string());
            assert_eq!(text(&c.to_string()), format!("\"{want}\""), "U+{code:04X}");
        }
    }

    #[test]
    fn quote_and_backslash_are_escaped_and_non_ascii_passes_through() {
        assert_eq!(text("a\"b"), r#""a\"b""#);
        assert_eq!(text("a\\b"), r#""a\\b""#);
        assert_eq!(text("/x/\u{e9}t\u{e9}"), "\"/x/\u{e9}t\u{e9}\"");
    }

    #[test]
    fn empty_containers_are_two_characters() {
        assert_eq!(Value::Object(vec![]).to_string(), "{}");
        assert_eq!(Value::Array(vec![]).to_string(), "[]");
        // An empty container is no scalar: its parent still breaks.
        assert_eq!(
            obj! {"a": Value::Array(vec![])}.to_string(),
            "{\n  \"a\": []\n}"
        );
    }

    #[test]
    fn a_container_of_scalars_is_one_line() {
        let v = obj! {"a": 1u64, "b": -2i64, "c": true, "d": "x"};
        assert_eq!(v.to_string(), r#"{"a": 1, "b": -2, "c": true, "d": "x"}"#);
        let a = Value::Array(vec![1u64.into(), false.into()]);
        assert_eq!(a.to_string(), "[1, false]");
    }

    #[test]
    fn a_nested_container_puts_one_member_per_line() {
        let v = obj! {
            "n": 1u64,
            "inner": obj! {"x": 2u64},
            "rows": Value::Array(vec![obj! {"y": 3u64}, obj! {"deep": obj! {"z": 4u64}}]),
        };
        assert_eq!(
            v.to_string(),
            "{
  \"n\": 1,
  \"inner\": {\"x\": 2},
  \"rows\": [
    {\"y\": 3},
    {
      \"deep\": {\"z\": 4}
    }
  ]
}"
        );
    }

    #[test]
    fn keys_keep_their_order_and_are_escaped() {
        let v = obj! {"z": 1u64, "a": 2u64, "m": 3u64};
        assert_eq!(v.to_string(), r#"{"z": 1, "a": 2, "m": 3}"#);
        let odd = Value::Object(vec![("q\"\t".to_string(), 0u64.into())]);
        assert_eq!(odd.to_string(), r#"{"q\"\t": 0}"#);
    }

    #[test]
    fn two_writes_of_one_value_are_equal_bytes() {
        let v = obj! {"a": obj! {"b": Value::Array(vec!["c".into(), obj! {"d": u64::MAX}])}};
        assert_eq!(v.to_string(), v.to_string());
        assert!(v.to_string().contains("18446744073709551615"));
        assert_eq!(Value::from(i64::MIN).to_string(), i64::MIN.to_string());
    }
}
