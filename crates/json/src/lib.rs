//! Zero-dependency JSON support for the `sfa` workspace.
//!
//! The build environment cannot fetch `serde`/`serde_json`, so the
//! documents `sfa` writes (mining metrics, `BENCH_pipeline.json`) go
//! through this small crate instead. It is output-first: types convert
//! into [`Json`], and nothing converts back; a reader walks a parsed
//! [`Json`] tree by key.
//!
//! * [`Json`] — an owned JSON value. Objects preserve insertion order so
//!   emitted documents are schema-stable (field order is part of the
//!   schema contract for `BENCH_pipeline.json` and `--metrics-json`).
//! * [`ToJson`] — the conversion trait playing the role of `Serialize`;
//!   implemented manually per type.
//! * [`Json::to_string_pretty`] / [`Json::parse`] — a serializer and a
//!   strict RFC 8259 parser.
//!
//! Integers are kept exact: [`Json::U64`] and [`Json::I64`] are written
//! and parsed bit-for-bit (a plain f64 would corrupt 64-bit seeds and
//! large counters above 2^53).

#![warn(missing_docs)]

use std::fmt;

mod parse;
mod ser;

pub use parse::ParseError;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer (any non-negative integer parses as [`Json::U64`]).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A number with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on parse and emit.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an empty object.
    #[must_use]
    pub const fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.to_json())),
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert losslessly when possible).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (strict: one value, no trailing input).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with a byte offset on malformed input.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        parse::parse(input)
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        ser::write(self, &mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline,
    /// suitable for committed artifacts like `BENCH_pipeline.json`.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        ser::write(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Conversion into [`Json`]; plays the role of `serde::Serialize`.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
    )*};
}

impl_unsigned!(u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl ToJson for std::time::Duration {
    /// Exact encoding as `{"secs": u64, "nanos": u32}` — an f64 of seconds
    /// would lose sub-microsecond precision on long runs.
    fn to_json(&self) -> Json {
        Json::obj()
            .field("secs", self.as_secs())
            .field("nanos", self.subsec_nanos())
    }
}

/// Serializes any [`ToJson`] value as a pretty document.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let doc = Json::obj()
            .field("name", "MH")
            .field("k", 400u32)
            .field("ok", true)
            .field("ratio", 0.25f64);
        assert_eq!(doc.get("name").unwrap().as_str(), Some("MH"));
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(400));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0u64, 1, u64::from(u32::MAX), 1 << 53, u64::MAX] {
            let text = Json::U64(n).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
        for n in [-1i64, i64::MIN] {
            let text = Json::I64(n).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_i64(), Some(n));
        }
    }

    #[test]
    fn duration_is_written_exactly() {
        let d = std::time::Duration::new(3, 141_592_653);
        assert_eq!(
            d.to_json().to_string_compact(),
            r#"{"secs":3,"nanos":141592653}"#
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let doc = Json::parse(text).unwrap();
        match &doc {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(doc.to_string_compact(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn vecs_are_arrays() {
        assert_eq!(vec![1u32, 2, 3].to_json().to_string_compact(), "[1,2,3]");
    }
}
