//! Writing JSON by hand; reading goes through the product's own
//! dependency-free parser (`api::Json`).

use crate::api::Json;

pub fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}

pub fn count(n: usize) -> Json {
    Json::Num(n as f64)
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

/// One line, no spaces; floats keep every digit they were measured with.
pub fn write(value: &Json) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // JSON has no NaN or infinity; a ratio over zero reads as null.
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(key, out);
                out.push(':');
                write_into(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Multi-line rendering for files people read: objects and arrays of
/// objects are broken one member a line, two levels deep.
pub fn write_pretty(value: &Json) -> String {
    let mut out = String::new();
    pretty_into(value, 0, &mut out);
    out.push('\n');
    out
}

fn pretty_into(value: &Json, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match value {
        Json::Obj(members) if depth < 3 && !members.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in members.iter().enumerate() {
                out.push_str(&pad);
                write_str(key, out);
                out.push_str(": ");
                pretty_into(item, depth + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        Json::Arr(items) if depth < 3 && items.iter().any(|i| matches!(i, Json::Obj(_))) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty_into(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        other => write_into(other, out),
    }
}

pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn as_array(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        _ => &[],
    }
}

pub fn members(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(members) => members,
        _ => &[],
    }
}
