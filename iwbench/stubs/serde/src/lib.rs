//! Offline stub of `serde`: a JSON-only serialization trait pair plus the
//! derive macros. `Serialize` writes serde-compatible JSON straight into a
//! `String`; `Deserialize` is a marker (the stub `serde_json::from_str`
//! always errors — offline tests that round-trip are skipped).

pub use serde_derive::{Deserialize, Serialize};

/// Serialize `self` as JSON appended to `out`.
pub trait Serialize {
    /// Append this value's JSON encoding to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Marker for deserializable types (stub: no actual decoding).
pub trait Deserialize<'de>: Sized {}

/// Escape and append a JSON string literal.
pub fn write_json_string(out: &mut String, s: &str) {
    use std::fmt::Write;
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

macro_rules! impl_display_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                use std::fmt::Write;
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

impl_display_serialize!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        use std::fmt::Write;
        if self.fract() == 0.0 && self.is_finite() && self.abs() < 1e15 {
            let _ = write!(out, "{:.1}", self);
        } else {
            let _ = write!(out, "{self}");
        }
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        f64::from(*self).serialize_json(out);
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.serialize_json(out),
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

macro_rules! impl_tuple_serialize {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.serialize_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )+};
}

impl_tuple_serialize! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<'de, T> Deserialize<'de> for T {}

#[cfg(test)]
mod tests {
    use super::Serialize;

    #[test]
    fn containers_and_scalars() {
        let mut s = String::new();
        (vec![(1u16, "a".to_string())], Some(2u32), [3u64; 2]).serialize_json(&mut s);
        assert_eq!(s, "[[[1,\"a\"]],2,[3,3]]");
    }
}
