//! The record layer under every tracked benchmark artifact
//! (`BENCH_discovery.json`, `BENCH_serving.json`, `BENCH_stream.json`,
//! `metrics.json`, `analysis.json`).
//!
//! A record type declares its fields once: `record!` declares a new
//! struct, `codec!` lists the fields of a struct another crate owns. Both
//! directions come from that list. [`render`] writes the artifact's
//! pretty-printed JSON and [`parse`] reads it back into typed records, so
//! each artifact's `validate` is this parse plus its invariants and gates,
//! checked on typed values. A `BLOCK` record puts one field per line and
//! an `INLINE` one stays on one line; a list of records puts one record
//! per line; `None` fields are left out. The JSON reader and writer are
//! [`crr_obs::json`]'s.

use crr_analyze::{Check, Severity};
use crr_data::Boundary;
use crr_obs::json::{self, Json};

/// Record layout: one field per line, two spaces deeper than the record.
pub(crate) const BLOCK: bool = true;
/// Record layout: every field on the record's own line.
pub(crate) const INLINE: bool = false;

/// A value that renders into a tracked artifact and parses back out of it.
pub trait Field: Sized {
    /// Whether the type is a record; lists of records put one per line.
    const RECORD: bool = false;

    /// The value's JSON. `indent` is the indentation of the line it starts
    /// on, where a value spanning lines closes.
    fn render(&self, indent: usize) -> String;

    /// Reads the value from `v`; `path` names it in errors.
    fn parse(v: &Json, path: &str) -> Result<Self, String>;

    /// Reads field `key` of the record `obj` at `path`; only optional
    /// fields may be missing.
    fn read(obj: &Json, key: &str, path: &str) -> Result<Self, String> {
        let v = obj.get(key).ok_or_else(|| {
            let owner = Some(path).filter(|p| !p.is_empty()).unwrap_or("document");
            format!("{owner}: missing key '{key}'")
        })?;
        Self::parse(v, &child(path, key))
    }

    /// Whether the value is left out of its record.
    fn absent(&self) -> bool {
        false
    }
}

fn child(path: &str, key: &str) -> String {
    format!("{path}{}{key}", if path.is_empty() { "" } else { "." })
}

/// Renders a record as a whole artifact file.
pub fn render<T: Field>(doc: &T) -> String {
    doc.render(0) + "\n"
}

/// Parses a whole artifact file into its typed record.
pub fn parse<T: Field>(text: &str) -> Result<T, String> {
    T::parse(&json::parse(text)?, "")
}

/// Checks an artifact's `"schema"` tag, the first thing its parse reads.
pub(crate) fn expect_schema(doc: &Json, want: &str) -> Result<(), String> {
    match String::read(doc, "schema", "")? {
        tag if tag == want => Ok(()),
        tag => Err(format!("unexpected schema '{tag}' (want '{want}')")),
    }
}

/// The members of a JSON object, in file order.
pub(crate) fn members<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(format!("{path}: not an object")),
    }
}

/// Adds `"key": value` to a record's rendered members unless the value is
/// absent; `indent` is where the members start.
pub(crate) fn member<T: Field>(members: &mut Vec<String>, key: &str, value: &T, indent: usize) {
    if !value.absent() {
        members.push(format!("\"{key}\": {}", value.render(indent)));
    }
}

/// Wraps rendered members in `brackets`, on one line or one member per
/// line (indented two spaces past `indent`).
pub(crate) fn wrap(members: &[String], brackets: [char; 2], indent: usize, block: bool) -> String {
    let [open, close] = brackets;
    if !block {
        return format!("{open}{}{close}", members.join(", "));
    }
    let pad = " ".repeat(indent + 2);
    let lines: Vec<String> = members.iter().map(|m| format!("\n{pad}{m}")).collect();
    format!("{open}{}\n{}{close}", lines.join(","), " ".repeat(indent))
}

/// Implements [`Field`] for the struct `$name` from its field list, in
/// file order. `($layout)` is [`BLOCK`] or [`INLINE`]; `($layout, schema =
/// TAG)` makes the record an artifact's document, led by its `"schema"`.
macro_rules! codec {
    ($name:ident($layout:ident $(, schema = $schema:expr)?) { $($field:ident),+ $(,)? }) => {
        impl $crate::artifact::Field for $name {
            const RECORD: bool = true;

            fn render(&self, indent: usize) -> String {
                let (block, mut members) = ($crate::artifact::$layout, Vec::new());
                let at = indent + if block { 2 } else { 0 };
                $($crate::artifact::member(&mut members, "schema", &String::from($schema), at);)?
                $($crate::artifact::member(&mut members, stringify!($field), &self.$field, at);)+
                $crate::artifact::wrap(&members, ['{', '}'], indent, block)
            }

            fn parse(v: &crr_obs::json::Json, path: &str) -> Result<Self, String> {
                $($crate::artifact::expect_schema(v, $schema)?;)?
                Ok(Self {
                    $($field: $crate::artifact::Field::read(v, stringify!($field), path)?,)+
                })
            }
        }
    };
}

/// Declares a record struct and its [`Field`] codec from one field list
/// (see [`codec!`] for the `($layout)` argument).
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident($($how:tt)*) {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }
        $crate::artifact::codec!($name($($how)*) { $($field),+ });
    };
}

/// Implements [`Field`] for label enums: each value renders as its
/// `label()` and parses back through the enum's own `ALL` list.
macro_rules! labels {
    ($($ty:ty: $what:literal),+ $(,)?) => {$(
        impl $crate::artifact::Field for $ty {
            fn render(&self, _: usize) -> String {
                format!("\"{}\"", self.label())
            }

            fn parse(v: &crr_obs::json::Json, path: &str) -> Result<Self, String> {
                let label = <String as $crate::artifact::Field>::parse(v, path)?;
                <$ty>::ALL
                    .into_iter()
                    .find(|l| l.label() == label)
                    .ok_or_else(|| format!("{path}: unknown {} '{label}'", $what))
            }
        }
    )+};
}

/// Integers render as written and parse from non-negative whole numbers.
macro_rules! integers {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn render(&self, _: usize) -> String {
                self.to_string()
            }

            fn parse(v: &Json, path: &str) -> Result<Self, String> {
                match f64::parse(v, path)? {
                    x if x >= 0.0 && x.fract() == 0.0 => Ok(x as $ty),
                    x => Err(format!("{path}: not a non-negative integer ({x})")),
                }
            }
        }
    )+};
}

pub(crate) use {codec, labels, record};

labels!(Boundary: "boundary", Check: "check", Severity: "severity");
integers!(u64, usize);

impl Field for String {
    fn render(&self, _: usize) -> String {
        format!("\"{}\"", json::esc(self))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, String> {
        let s = v.as_str().ok_or_else(|| format!("{path}: not a string"))?;
        Ok(s.to_string())
    }
}

impl Field for bool {
    fn render(&self, _: usize) -> String {
        self.to_string()
    }

    fn parse(v: &Json, path: &str) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("{path}: not a boolean"))
    }
}

impl Field for f64 {
    fn render(&self, _: usize) -> String {
        json::num(*self)
    }

    fn parse(v: &Json, path: &str) -> Result<Self, String> {
        match v.as_num() {
            Some(x) if x.is_finite() => Ok(x),
            Some(x) => Err(format!("{path}: non-finite ({x})")),
            None => Err(format!("{path}: not a number (got {v:?})")),
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn render(&self, indent: usize) -> String {
        self.as_ref().map_or_else(String::new, |v| v.render(indent))
    }

    fn parse(v: &Json, path: &str) -> Result<Self, String> {
        T::parse(v, path).map(Some)
    }

    fn read(obj: &Json, key: &str, path: &str) -> Result<Self, String> {
        let v = obj.get(key);
        v.map(|v| T::parse(v, &child(path, key))).transpose()
    }

    fn absent(&self) -> bool {
        self.is_none()
    }
}

impl<T: Field> Field for Vec<T> {
    fn render(&self, indent: usize) -> String {
        let at = indent + if T::RECORD { 2 } else { 0 };
        let items: Vec<String> = self.iter().map(|item| item.render(at)).collect();
        wrap(&items, ['[', ']'], indent, T::RECORD)
    }

    fn parse(v: &Json, path: &str) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| format!("{path}: not an array"))?;
        let item = |(i, item)| T::parse(item, &format!("{path}[{i}]"));
        items.iter().enumerate().map(item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    record! {
        #[derive(Debug, Clone, PartialEq)]
        pub struct Leaf(INLINE) {
            pub name: String,
            pub n: u64,
            pub x: f64,
            pub tags: Vec<usize>,
            pub note: Option<bool>,
        }
    }

    record! {
        #[derive(Debug, Clone, PartialEq)]
        pub struct Doc(BLOCK, schema = "test-v1") {
            pub leaves: Vec<Leaf>,
            pub last: Leaf,
        }
    }

    fn leaf(name: &str, note: Option<bool>) -> Leaf {
        Leaf {
            name: name.into(),
            n: 3,
            x: 0.5,
            tags: vec![1, 2],
            note,
        }
    }

    #[test]
    fn layout_follows_the_declaration_and_round_trips() {
        let doc = Doc {
            leaves: vec![leaf("a\"b", None), leaf("c", Some(true))],
            last: leaf("d", None),
        };
        let text = render(&doc);
        assert_eq!(
            text,
            "{\n  \"schema\": \"test-v1\",\n  \"leaves\": [\n    \
             {\"name\": \"a\\\"b\", \"n\": 3, \"x\": 0.5, \"tags\": [1, 2]},\n    \
             {\"name\": \"c\", \"n\": 3, \"x\": 0.5, \"tags\": [1, 2], \"note\": true}\n  ],\n  \
             \"last\": {\"name\": \"d\", \"n\": 3, \"x\": 0.5, \"tags\": [1, 2]}\n}\n"
        );
        assert_eq!(parse::<Doc>(&text), Ok(doc.clone()));
        let empty = Doc {
            leaves: Vec::new(),
            ..doc
        };
        assert!(render(&empty).contains("\"leaves\": [\n  ],"));
    }

    #[test]
    fn typed_reads_name_the_offending_field() {
        let text = render(&Doc {
            leaves: vec![leaf("a", None)],
            last: leaf("b", None),
        });
        let err = |from: &str, to: &str| {
            parse::<Doc>(&text.replacen(from, to, 1)).expect_err("must not parse")
        };
        assert_eq!(
            err("\"n\": 3", "\"n\": -3"),
            "leaves[0].n: not a non-negative integer (-3)"
        );
        assert_eq!(
            err("\"n\": 3", "\"n\": 1.5"),
            "leaves[0].n: not a non-negative integer (1.5)"
        );
        assert_eq!(
            err("\"x\": 0.5", "\"x\": 1e999"),
            "leaves[0].x: non-finite (inf)"
        );
        assert_eq!(
            err("\"x\": 0.5", "\"y\": 0.5"),
            "leaves[0]: missing key 'x'"
        );
        assert_eq!(
            err("\"tags\": [1, 2]", "\"tags\": 1"),
            "leaves[0].tags: not an array"
        );
        assert_eq!(
            err("[1, 2]", "[1, \"2\"]"),
            "leaves[0].tags[1]: not a number (got Str(\"2\"))"
        );
        assert_eq!(
            err("\"name\": \"a\"", "\"name\": 7"),
            "leaves[0].name: not a string"
        );
        assert_eq!(
            err("test-v1", "test-v0"),
            "unexpected schema 'test-v0' (want 'test-v1')"
        );
        assert_eq!(
            err("\"schema\"", "\"tag\""),
            "document: missing key 'schema'"
        );
        let text = render(&Doc {
            leaves: Vec::new(),
            last: leaf("b", Some(false)),
        });
        let bad = text.replace("\"note\": false", "\"note\": 0");
        assert_eq!(
            parse::<Doc>(&bad).expect_err("must not parse"),
            "last.note: not a boolean"
        );
    }

    #[test]
    fn labels_parse_through_their_owners_lists() {
        for b in Boundary::ALL {
            let text = b.render(0);
            assert_eq!(Boundary::parse(&json::parse(&text).unwrap(), "b"), Ok(b));
        }
        let err = Check::parse(&Json::Str("telepathy".into()), "f.check").unwrap_err();
        assert_eq!(err, "f.check: unknown check 'telepathy'");
        assert_eq!(
            Severity::parse(&Json::Str("hygiene".into()), "s"),
            Ok(Severity::Hygiene)
        );
    }
}
