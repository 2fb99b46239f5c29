//! Offline stub of `serde_json`: serialization via the stub `serde`
//! trait (compact output, `to_string_pretty` == `to_string`), a
//! pre-rendered `Value`, and a `json!` macro covering object/array
//! literals with expression values. `from_str` always errors.

use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug)]
pub struct Error(pub &'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON value, stored pre-rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value(pub String);

impl serde::Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl Value {
    /// Render any serializable value into a `Value`.
    pub fn from_serialize<T: serde::Serialize + ?Sized>(v: &T) -> Value {
        let mut s = String::new();
        v.serialize_json(&mut s);
        Value(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = String::new();
    value.serialize_json(&mut s);
    Ok(s)
}

/// Serialize to JSON ("pretty" collapses to compact in the stub).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_string(value)
}

/// Stub deserializer: always errors (offline round-trip tests are skipped).
pub fn from_str<'de, T: serde::Deserialize<'de>>(_s: &'de str) -> Result<T, Error> {
    Err(Error("deserialization is unsupported in the offline serde stub"))
}

/// Build a [`Value`] from a JSON-ish literal: `json!({"k": expr, ...})`,
/// `json!([a, b])`, or `json!(expr)` for any `Serialize` expression.
#[macro_export]
macro_rules! json {
    ({ $($key:tt : $val:expr),* $(,)? }) => {{
        let mut out = String::from("{");
        let mut first = true;
        $(
            if !first { out.push(','); }
            first = false;
            ::serde::write_json_string(&mut out, $key);
            out.push(':');
            out.push_str(&$crate::json!($val).0);
        )*
        let _ = first;
        out.push('}');
        $crate::Value(out)
    }};
    ([ $($item:expr),* $(,)? ]) => {{
        let mut out = String::from("[");
        let mut first = true;
        $(
            if !first { out.push(','); }
            first = false;
            out.push_str(&$crate::json!($item).0);
        )*
        let _ = first;
        out.push(']');
        $crate::Value(out)
    }};
    (null) => { $crate::Value(String::from("null")) };
    ($other:expr) => { $crate::Value::from_serialize(&$other) };
}

#[cfg(test)]
mod tests {
    #[test]
    fn json_macro_shapes() {
        let v = json!({"a": 1u32, "b": [1u8, 2u8], "c": "x"});
        assert_eq!(v.0, "{\"a\":1,\"b\":[1,2],\"c\":\"x\"}");
        assert_eq!(super::to_string(&v).unwrap(), v.0);
    }
}
