//! Reading and writing JSON documents as plain [`Value`] trees.

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// A whole document, so `serde_json` can read or write any shape.
struct Doc(Value);

impl Serialize for Doc {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Doc {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Ok(Doc(v.clone()))
    }
}

/// Parses JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Doc>(text)
        .map(|d| d.0)
        .map_err(|e| e.to_string())
}

/// Reads and parses a JSON file.
pub fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Renders on one line.
pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Doc(v.clone())).expect("values built here are finite")
}

/// Renders indented.
pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Doc(v.clone())).expect("values built here are finite")
}

/// An object with fields in the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number; a non-finite one (a ratio over an empty sample) reads 0.
pub fn num(x: f64) -> Value {
    Value::Float(if x.is_finite() { x } else { 0.0 })
}

/// A string.
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// The number in `v`, if it is one.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// The string in `v`, if it is one.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// The elements of `v`, if it is an array.
pub fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(items) => Some(items),
        _ => None,
    }
}

/// Field `key` of object `v` as a string, or an error naming it.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Field `key` of object `v` as a number, or an error naming it.
pub fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

/// Field `key` of object `v` as an array, or an error naming it.
pub fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(as_array)
        .ok_or_else(|| format!("missing array field `{key}`"))
}
