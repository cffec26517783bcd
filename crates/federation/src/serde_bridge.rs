//! A serde ↔ [`Value`] bridge: serialize any `Serialize` type into the
//! federation data model and back.
//!
//! This is what makes *every* artefact of the toolchain federable: SSAM
//! models, FMEDA tables and safety concepts can be converted to [`Value`],
//! persisted as JSON/CSV through the drivers, queried with EQL, and
//! reconstructed losslessly.
//!
//! # Examples
//!
//! ```
//! use decisive_federation::serde_bridge::{from_value, to_value};
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Part { name: String, fit: f64 }
//!
//! # fn main() -> Result<(), decisive_federation::FederationError> {
//! let part = Part { name: "D1".into(), fit: 10.0 };
//! let value = to_value(&part)?;
//! assert_eq!(value.get("name").and_then(|v| v.as_str()), Some("D1"));
//! let back: Part = from_value(&value)?;
//! assert_eq!(back, part);
//! # Ok(())
//! # }
//! ```

use serde::de::{self, IntoDeserializer};
use serde::ser::{self, Serialize};

use crate::error::{FederationError, Result};
use crate::json;
use crate::value::Value;

/// Serializes `value` into the federation data model.
///
/// # Errors
///
/// Returns [`FederationError::Eval`] for unsupported shapes (non-string map
/// keys, for instance).
pub fn to_value<T: ?Sized + Serialize>(value: &T) -> Result<Value> {
    value.serialize(ValueSerializer)
}

/// Serializes `value` straight to compact JSON: exactly the text
/// `json::to_string(&to_value(value)?)` prints, and the same error when
/// [`to_value`] fails, without building the intermediate [`Value`].
/// Artefact fingerprints hash this text, so it must not drift from the
/// two-step route.
///
/// # Errors
///
/// As [`to_value`].
///
/// # Examples
///
/// ```
/// use decisive_federation::{json, serde_bridge::{to_json_string, to_value}};
///
/// # fn main() -> Result<(), decisive_federation::FederationError> {
/// let part = (String::from("D1"), 10.0_f64, Some(3_u8));
/// assert_eq!(to_json_string(&part)?, r#"["D1",10.0,3]"#);
/// assert_eq!(to_json_string(&part)?, json::to_string(&to_value(&part)?));
/// # Ok(())
/// # }
/// ```
pub fn to_json_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(JsonSerializer { out: &mut out })?;
    Ok(out)
}

/// Deserializes a `T` back out of a federation value.
///
/// # Errors
///
/// Returns [`FederationError::Eval`] when the value does not match `T`'s
/// shape.
pub fn from_value<'de, T: serde::Deserialize<'de>>(value: &'de Value) -> Result<T> {
    T::deserialize(ValueDeserializer { value })
}

impl ser::Error for FederationError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        FederationError::eval(msg.to_string())
    }
}

impl de::Error for FederationError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        FederationError::eval(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

struct ValueSerializer;

struct SeqCollector {
    items: Vec<Value>,
    /// For tuple/struct variants: wrap the result under the variant name.
    variant: Option<&'static str>,
}

struct MapCollector {
    pairs: Vec<(String, Value)>,
    pending_key: Option<String>,
    variant: Option<&'static str>,
}

fn wrap(variant: Option<&'static str>, value: Value) -> Value {
    match variant {
        Some(name) => Value::record([(name, value)]),
        None => value,
    }
}

impl ser::Serializer for ValueSerializer {
    type Ok = Value;
    type Error = FederationError;
    type SerializeSeq = SeqCollector;
    type SerializeTuple = SeqCollector;
    type SerializeTupleStruct = SeqCollector;
    type SerializeTupleVariant = SeqCollector;
    type SerializeMap = MapCollector;
    type SerializeStruct = MapCollector;
    type SerializeStructVariant = MapCollector;

    fn serialize_bool(self, v: bool) -> Result<Value> {
        Ok(Value::Bool(v))
    }
    fn serialize_i8(self, v: i8) -> Result<Value> {
        Ok(Value::Int(v.into()))
    }
    fn serialize_i16(self, v: i16) -> Result<Value> {
        Ok(Value::Int(v.into()))
    }
    fn serialize_i32(self, v: i32) -> Result<Value> {
        Ok(Value::Int(v.into()))
    }
    fn serialize_i64(self, v: i64) -> Result<Value> {
        Ok(Value::Int(v))
    }
    fn serialize_u8(self, v: u8) -> Result<Value> {
        Ok(Value::Int(v.into()))
    }
    fn serialize_u16(self, v: u16) -> Result<Value> {
        Ok(Value::Int(v.into()))
    }
    fn serialize_u32(self, v: u32) -> Result<Value> {
        Ok(Value::Int(v.into()))
    }
    fn serialize_u64(self, v: u64) -> Result<Value> {
        i64::try_from(v).map(Value::Int).or(Ok(Value::Real(v as f64)))
    }
    fn serialize_f32(self, v: f32) -> Result<Value> {
        Ok(Value::Real(v.into()))
    }
    fn serialize_f64(self, v: f64) -> Result<Value> {
        Ok(Value::Real(v))
    }
    fn serialize_char(self, v: char) -> Result<Value> {
        Ok(Value::Str(v.to_string()))
    }
    fn serialize_str(self, v: &str) -> Result<Value> {
        Ok(Value::Str(v.to_owned()))
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<Value> {
        Ok(Value::List(v.iter().map(|&b| Value::Int(b.into())).collect()))
    }
    fn serialize_none(self) -> Result<Value> {
        Ok(Value::Null)
    }
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<Value> {
        value.serialize(ValueSerializer)
    }
    fn serialize_unit(self) -> Result<Value> {
        Ok(Value::Null)
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<Value> {
        Ok(Value::Null)
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<Value> {
        Ok(Value::Str(variant.to_owned()))
    }
    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<Value> {
        value.serialize(ValueSerializer)
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Value> {
        Ok(Value::record([(variant, value.serialize(ValueSerializer)?)]))
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<SeqCollector> {
        Ok(SeqCollector { items: Vec::with_capacity(len.unwrap_or(0)), variant: None })
    }
    fn serialize_tuple(self, len: usize) -> Result<SeqCollector> {
        Ok(SeqCollector { items: Vec::with_capacity(len), variant: None })
    }
    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqCollector> {
        Ok(SeqCollector { items: Vec::with_capacity(len), variant: None })
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<SeqCollector> {
        Ok(SeqCollector { items: Vec::with_capacity(len), variant: Some(variant) })
    }
    fn serialize_map(self, len: Option<usize>) -> Result<MapCollector> {
        Ok(MapCollector {
            pairs: Vec::with_capacity(len.unwrap_or(0)),
            pending_key: None,
            variant: None,
        })
    }
    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<MapCollector> {
        Ok(MapCollector { pairs: Vec::with_capacity(len), pending_key: None, variant: None })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<MapCollector> {
        Ok(MapCollector {
            pairs: Vec::with_capacity(len),
            pending_key: None,
            variant: Some(variant),
        })
    }
}

impl ser::SerializeSeq for SeqCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.items.push(value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(wrap(self.variant, Value::List(self.items)))
    }
}

impl ser::SerializeTuple for SeqCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<Value> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleStruct for SeqCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<Value> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleVariant for SeqCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<Value> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeMap for MapCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<()> {
        let key = match key.serialize(ValueSerializer)? {
            Value::Str(s) => s,
            Value::Int(i) => i.to_string(),
            other => {
                return Err(FederationError::eval(format!(
                    "map keys must be strings or integers, got a {}",
                    other.type_name()
                )))
            }
        };
        self.pending_key = Some(key);
        Ok(())
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        let key = self.pending_key.take().ok_or_else(|| {
            FederationError::eval("serialize_value called before serialize_key".to_owned())
        })?;
        self.pairs.push((key, value.serialize(ValueSerializer)?));
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(wrap(self.variant, Value::Record(self.pairs)))
    }
}

impl ser::SerializeStruct for MapCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.pairs.push((key.to_owned(), value.serialize(ValueSerializer)?));
        Ok(())
    }
    fn end(self) -> Result<Value> {
        Ok(wrap(self.variant, Value::Record(self.pairs)))
    }
}

impl ser::SerializeStructVariant for MapCollector {
    type Ok = Value;
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<Value> {
        ser::SerializeStruct::end(self)
    }
}

// ---------------------------------------------------------------------------
// JSON serializer
// ---------------------------------------------------------------------------

/// Writes what [`ValueSerializer`] would build, as the JSON text
/// `json::to_string` would print for it, through the same token printers.
struct JsonSerializer<'w> {
    out: &'w mut String,
}

/// A sequence, map or struct being written: `close` ends it, and also the
/// variant wrapper around a tuple or struct variant.
struct JsonCompound<'w> {
    out: &'w mut String,
    first: bool,
    close: &'static str,
}

impl<'w> JsonSerializer<'w> {
    fn compound(self, open: &str, close: &'static str) -> JsonCompound<'w> {
        self.out.push_str(open);
        JsonCompound { out: self.out, first: true, close }
    }

    /// Opens `{"variant":` around a variant's payload.
    fn variant(self, variant: &str, open: &str, close: &'static str) -> JsonCompound<'w> {
        self.out.push('{');
        json::write_str(variant, self.out);
        self.out.push(':');
        self.compound(open, close)
    }
}

impl JsonCompound<'_> {
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    fn element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.separate();
        value.serialize(JsonSerializer { out: self.out })
    }

    fn field<T: ?Sized + Serialize>(&mut self, key: &str, value: &T) -> Result<()> {
        self.separate();
        json::write_str(key, self.out);
        self.out.push(':');
        value.serialize(JsonSerializer { out: self.out })
    }

    fn end(self) -> Result<()> {
        self.out.push_str(self.close);
        Ok(())
    }
}

impl<'w> ser::Serializer for JsonSerializer<'w> {
    type Ok = ();
    type Error = FederationError;
    type SerializeSeq = JsonCompound<'w>;
    type SerializeTuple = JsonCompound<'w>;
    type SerializeTupleStruct = JsonCompound<'w>;
    type SerializeTupleVariant = JsonCompound<'w>;
    type SerializeMap = JsonCompound<'w>;
    type SerializeStruct = JsonCompound<'w>;
    type SerializeStructVariant = JsonCompound<'w>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        json::write_int(v, self.out);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.serialize_i64(v.into())
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        match i64::try_from(v) {
            Ok(i) => self.serialize_i64(i),
            Err(_) => self.serialize_f64(v as f64),
        }
    }
    fn serialize_f32(self, v: f32) -> Result<()> {
        self.serialize_f64(v.into())
    }
    fn serialize_f64(self, v: f64) -> Result<()> {
        json::write_real(v, self.out);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<()> {
        self.serialize_str(v.encode_utf8(&mut [0; 4]))
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        json::write_str(v, self.out);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        let mut seq = self.compound("[", "]");
        for byte in v {
            seq.element(byte)?;
        }
        seq.end()
    }
    fn serialize_none(self) -> Result<()> {
        self.serialize_unit()
    }
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<()> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        let mut wrapper = self.compound("{", "}");
        wrapper.field(variant, value)?;
        wrapper.end()
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<JsonCompound<'w>> {
        Ok(self.compound("[", "]"))
    }
    fn serialize_tuple(self, _len: usize) -> Result<JsonCompound<'w>> {
        Ok(self.compound("[", "]"))
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<JsonCompound<'w>> {
        Ok(self.compound("[", "]"))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<JsonCompound<'w>> {
        Ok(self.variant(variant, "[", "]}"))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<JsonCompound<'w>> {
        Ok(self.compound("{", "}"))
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<JsonCompound<'w>> {
        Ok(self.compound("{", "}"))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<JsonCompound<'w>> {
        Ok(self.variant(variant, "{", "}}"))
    }
}

impl ser::SerializeSeq for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

impl ser::SerializeTuple for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

impl ser::SerializeTupleStruct for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

impl ser::SerializeTupleVariant for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

impl ser::SerializeMap for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<()> {
        // Keys go through the value route, which decides what a key may be.
        let key = match key.serialize(ValueSerializer)? {
            Value::Str(s) => s,
            Value::Int(i) => i.to_string(),
            other => {
                return Err(FederationError::eval(format!(
                    "map keys must be strings or integers, got a {}",
                    other.type_name()
                )))
            }
        };
        self.separate();
        json::write_str(&key, self.out);
        self.out.push(':');
        Ok(())
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        value.serialize(JsonSerializer { out: self.out })
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

impl ser::SerializeStruct for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

impl ser::SerializeStructVariant for JsonCompound<'_> {
    type Ok = ();
    type Error = FederationError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }
    fn end(self) -> Result<()> {
        JsonCompound::end(self)
    }
}

// ---------------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct ValueDeserializer<'de> {
    value: &'de Value,
}

impl<'de> ValueDeserializer<'de> {
    fn type_err(&self, expected: &str) -> FederationError {
        FederationError::eval(format!("expected {expected}, found a {}", self.value.type_name()))
    }
}

impl<'de> de::Deserializer<'de> for ValueDeserializer<'de> {
    type Error = FederationError;

    fn deserialize_any<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.value {
            Value::Null => visitor.visit_unit(),
            Value::Bool(b) => visitor.visit_bool(*b),
            Value::Int(i) => visitor.visit_i64(*i),
            Value::Real(r) => visitor.visit_f64(*r),
            Value::Str(s) => visitor.visit_str(s),
            Value::List(items) => visitor.visit_seq(SeqAccess { items, at: 0 }),
            Value::Record(pairs) => visitor.visit_map(MapAccess { pairs, at: 0, value: None }),
        }
    }

    fn deserialize_option<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.value {
            Value::Null => visitor.visit_none(),
            _ => visitor.visit_some(self),
        }
    }

    fn deserialize_newtype_struct<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self.value {
            Value::Str(variant) => visitor.visit_enum(variant.as_str().into_deserializer()),
            Value::Record(pairs) if pairs.len() == 1 => {
                visitor.visit_enum(EnumAccess { variant: &pairs[0].0, value: &pairs[0].1 })
            }
            _ => Err(self.type_err("an enum (string or single-key record)")),
        }
    }

    fn deserialize_f32<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_f64(visitor)
    }

    fn deserialize_f64<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.value {
            Value::Real(r) => visitor.visit_f64(*r),
            Value::Int(i) => visitor.visit_f64(*i as f64),
            _ => Err(self.type_err("a number")),
        }
    }

    fn deserialize_unit<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.value {
            Value::Null => visitor.visit_unit(),
            _ => Err(self.type_err("null")),
        }
    }

    fn deserialize_unit_struct<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_unit(visitor)
    }

    serde::forward_to_deserialize_any! {
        bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 char str string bytes
        byte_buf seq tuple tuple_struct map struct identifier ignored_any
    }
}

struct SeqAccess<'de> {
    items: &'de [Value],
    at: usize,
}

impl<'de> de::SeqAccess<'de> for SeqAccess<'de> {
    type Error = FederationError;
    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>> {
        match self.items.get(self.at) {
            None => Ok(None),
            Some(value) => {
                self.at += 1;
                seed.deserialize(ValueDeserializer { value }).map(Some)
            }
        }
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.items.len() - self.at)
    }
}

struct MapAccess<'de> {
    pairs: &'de [(String, Value)],
    at: usize,
    value: Option<&'de Value>,
}

impl<'de> de::MapAccess<'de> for MapAccess<'de> {
    type Error = FederationError;
    fn next_key_seed<K: de::DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        match self.pairs.get(self.at) {
            None => Ok(None),
            Some((key, value)) => {
                self.at += 1;
                self.value = Some(value);
                seed.deserialize(key.as_str().into_deserializer()).map(Some)
            }
        }
    }
    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        let value = self
            .value
            .take()
            .ok_or_else(|| FederationError::eval("next_value called before next_key".to_owned()))?;
        seed.deserialize(ValueDeserializer { value })
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.pairs.len() - self.at)
    }
}

struct EnumAccess<'de> {
    variant: &'de str,
    value: &'de Value,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'de> {
    type Error = FederationError;
    type Variant = VariantAccess<'de>;
    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, VariantAccess<'de>)> {
        let variant = seed.deserialize(self.variant.into_deserializer())?;
        Ok((variant, VariantAccess { value: self.value }))
    }
}

struct VariantAccess<'de> {
    value: &'de Value,
}

impl<'de> de::VariantAccess<'de> for VariantAccess<'de> {
    type Error = FederationError;
    fn unit_variant(self) -> Result<()> {
        match self.value {
            Value::Null => Ok(()),
            other => Err(FederationError::eval(format!(
                "expected unit variant, found a {}",
                other.type_name()
            ))),
        }
    }
    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        seed.deserialize(ValueDeserializer { value: self.value })
    }
    fn tuple_variant<V: de::Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value> {
        match self.value {
            Value::List(items) => visitor.visit_seq(SeqAccess { items, at: 0 }),
            other => Err(FederationError::eval(format!(
                "expected tuple variant, found a {}",
                other.type_name()
            ))),
        }
    }
    fn struct_variant<V: de::Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self.value {
            Value::Record(pairs) => visitor.visit_map(MapAccess { pairs, at: 0, value: None }),
            other => Err(FederationError::eval(format!(
                "expected struct variant, found a {}",
                other.type_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(f64),
        Tuple(i32, String),
        Struct { a: bool, b: Vec<u8> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        maybe: Option<i64>,
        nothing: Option<i64>,
        shapes: Vec<Shape>,
        pairs: std::collections::BTreeMap<String, f64>,
        tuple: (u8, String),
    }

    fn fixture() -> Nested {
        Nested {
            name: "deep".into(),
            maybe: Some(-7),
            nothing: None,
            shapes: vec![
                Shape::Unit,
                Shape::Newtype(2.5),
                Shape::Tuple(3, "x".into()),
                Shape::Struct { a: true, b: vec![1, 2, 3] },
            ],
            pairs: [("k".to_owned(), 1.5)].into_iter().collect(),
            tuple: (9, "t".into()),
        }
    }

    #[test]
    fn roundtrip_nested_structures() {
        let original = fixture();
        let value = to_value(&original).unwrap();
        let back: Nested = from_value(&value).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn roundtrip_through_json_text() {
        let original = fixture();
        let value = to_value(&original).unwrap();
        let text = crate::json::to_string(&value);
        let reparsed = crate::json::parse(&text).unwrap();
        let back: Nested = from_value(&reparsed).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn enum_representations() {
        assert_eq!(to_value(&Shape::Unit).unwrap(), Value::Str("Unit".into()));
        let newtype = to_value(&Shape::Newtype(1.0)).unwrap();
        assert_eq!(newtype.get("Newtype"), Some(&Value::Real(1.0)));
    }

    #[test]
    fn value_shapes_are_queryable() {
        // A serialized struct can be navigated by EQL directly.
        let value = to_value(&fixture()).unwrap();
        let n = crate::eql::eval_str("model.shapes.size()", &value).unwrap();
        assert_eq!(n, Value::Int(4));
        let name = crate::eql::eval_str("model.name", &value).unwrap();
        assert_eq!(name, Value::from("deep"));
    }

    #[test]
    fn type_mismatches_are_reported() {
        let err = from_value::<Nested>(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, FederationError::Eval { .. }));
        let err = from_value::<Shape>(&Value::List(vec![])).unwrap_err();
        assert!(err.to_string().contains("enum"));
    }

    #[test]
    fn non_string_map_keys_are_rejected() {
        let map: std::collections::BTreeMap<(u8, u8), i32> = [((1, 2), 3)].into_iter().collect();
        assert!(to_value(&map).is_err());
        // Integer keys are stringified instead.
        let int_map: std::collections::BTreeMap<i64, i32> = [(1, 2)].into_iter().collect();
        let v = to_value(&int_map).unwrap();
        assert_eq!(v.get("1"), Some(&Value::Int(2)));
    }

    #[test]
    fn large_u64_degrades_to_real() {
        let v = to_value(&u64::MAX).unwrap();
        assert!(matches!(v, Value::Real(_)));
    }

    /// Every shape the JSON route must agree with the value route on.
    #[derive(Debug, Clone, Serialize)]
    enum Node {
        Unit,
        Newtype(f64),
        Tuple(i64, String),
        Struct { big: u64, maybe: Option<f32>, children: Vec<Node> },
        ByInt(std::collections::BTreeMap<i64, Node>),
        ByText(std::collections::BTreeMap<String, Option<Box<Node>>>),
        ByFlag(std::collections::BTreeMap<bool, u8>),
        Scalars((char, i8, u16, i32, bool), ()),
    }

    /// `to_json_string` against `to_value` then `json::to_string`, errors
    /// compared by their text.
    fn both_routes<T: Serialize + ?Sized>(value: &T) -> (Result<String>, Result<String>) {
        let direct = to_json_string(value);
        let via_value = to_value(value).map(|v| json::to_string(&v));
        (direct, via_value)
    }

    fn assert_same_text<T: Serialize + ?Sized>(value: &T) {
        match both_routes(value) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("routes disagree: {a:?} vs {b:?}"),
        }
    }

    fn arb_text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            Just("\""),
            Just("\\"),
            Just("\n"),
            Just("\r"),
            Just("\t"),
            Just("\u{0}"),
            Just("\u{1}"),
            Just("\u{1f}"),
            Just("\u{7f}"),
            Just("é"),
            Just("—"),
            Just("\u{1f600}"),
            Just("/"),
            Just("plain text"),
        ];
        proptest::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
    }

    fn arb_real() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<f64>(),
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-0.0),
                Just(0.0),
                Just(1e15),
                Just(-1e15),
                Just(1e15 - 1.0),
                Just(1e15 + 2.0),
                Just(999_999_999_999_999.5),
                Just(0.1),
                Just(f64::MAX),
                Just(f64::MIN_POSITIVE),
                Just(5e-324),
            ],
            (-1e16..1e16f64).prop_map(f64::trunc),
        ]
    }

    fn arb_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just(i64::MAX as u64),
            Just(i64::MAX as u64 + 1),
            Just(u64::MAX),
            0..100u64,
        ]
    }

    fn arb_node() -> impl Strategy<Value = Node> {
        let leaf = prop_oneof![
            Just(Node::Unit),
            arb_real().prop_map(Node::Newtype),
            (any::<i64>(), arb_text()).prop_map(|(i, s)| Node::Tuple(i, s)),
            (any::<u32>(), any::<i8>(), any::<u16>(), any::<i32>(), any::<bool>()).prop_map(
                |(c, a, b, d, e)| {
                    Node::Scalars((char::from_u32(c % 0x11_0000).unwrap_or('?'), a, b, d, e), ())
                }
            ),
            proptest::collection::vec(any::<bool>(), 0..3)
                .prop_map(|flags| Node::ByFlag(flags.into_iter().map(|f| (f, 1)).collect())),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                (
                    arb_u64(),
                    prop_oneof![Just(None), arb_real().prop_map(|r| Some(r as f32))],
                    proptest::collection::vec(inner.clone(), 0..4)
                )
                    .prop_map(|(big, maybe, children)| Node::Struct {
                        big,
                        maybe,
                        children
                    }),
                proptest::collection::vec((any::<i64>(), inner.clone()), 0..4)
                    .prop_map(|entries| Node::ByInt(entries.into_iter().collect())),
                proptest::collection::vec(
                    (arb_text(), prop_oneof![Just(None), inner.prop_map(|n| Some(Box::new(n)))]),
                    0..4
                )
                .prop_map(|entries| Node::ByText(entries.into_iter().collect())),
            ]
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        #[test]
        fn json_string_matches_the_value_route(node in arb_node()) {
            let (direct, via_value) = both_routes(&node);
            prop_assert_eq!(
                direct.map_err(|e| e.to_string()),
                via_value.map_err(|e| e.to_string())
            );
        }
    }

    #[test]
    fn json_string_covers_each_shape_and_error() {
        assert_eq!(
            to_json_string(&fixture()).unwrap(),
            json::to_string(&to_value(&fixture()).unwrap())
        );
        assert_eq!(to_json_string(&Shape::Unit).unwrap(), r#""Unit""#);
        assert_eq!(to_json_string(&Shape::Newtype(1.0)).unwrap(), r#"{"Newtype":1.0}"#);
        assert_eq!(to_json_string(&Shape::Tuple(3, "x".into())).unwrap(), r#"{"Tuple":[3,"x"]}"#);
        assert_eq!(
            to_json_string(&Shape::Struct { a: true, b: vec![1] }).unwrap(),
            r#"{"Struct":{"a":true,"b":[1]}}"#
        );
        assert_eq!(to_json_string(&u64::MAX).unwrap(), "18446744073709552000");
        assert_eq!(
            to_json_string(&(-0.0f64, f64::NAN, 1e15, 1e15 - 1.0)).unwrap(),
            "[-0.0,null,1000000000000000,999999999999999.0]"
        );
        let by_int: std::collections::BTreeMap<i64, i32> = [(-1, 2), (7, 3)].into_iter().collect();
        assert_eq!(to_json_string(&by_int).unwrap(), r#"{"-1":2,"7":3}"#);
        let rejected: std::collections::BTreeMap<(u8, u8), i32> =
            [((1, 2), 3)].into_iter().collect();
        let err = to_json_string(&rejected).unwrap_err();
        assert_eq!(err.to_string(), to_value(&rejected).unwrap_err().to_string());
        assert!(err.to_string().contains("map keys must be strings or integers"), "{err}");
        assert_same_text("tab\there \u{1}\u{7f} é");
        assert_same_text(&[Some('\u{0}'), None]);
    }
}
