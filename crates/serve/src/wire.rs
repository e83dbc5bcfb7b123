//! The wire, declared once.
//!
//! Everything the protocol says about a stats field, a wire enum or a
//! structural verb is written in exactly one place, and the plumbing is
//! derived from it:
//!
//! * [`wire_enum!`](crate::wire_enum) — an enum with one wire string
//!   per variant → `ALL`, `as_str`, `parse`, and its JSON form.
//! * [`record!`](crate::record) — a stats record, one line per field
//!   (doc, name = JSON key, type, optionally its Prometheus series) →
//!   the public struct, its JSON codec, [`Record::FIELDS`], its
//!   exposition and — with a `live` clause — the atomic set the server
//!   increments, whose `snapshot()` is the record.
//! * [`Wire`] and [`Field`] with [`Obj`], [`need`] and [`opt`] — the
//!   typed helpers every structural verb encodes and decodes through.
//!
//! To add a counter, add its line to the record in
//! [`crate::protocol`] and increment it where the event happens: the
//! `stats` reply, the `metrics` exposition, `systec top`, the proptest
//! strategies and the drift guards all pick it up from the declaration.

use systec_telemetry::prom::{Metric, PromWriter};
#[doc(hidden)]
pub use systec_telemetry::Counter;

use crate::json::Json;
use crate::protocol::ProtoError;

/// How one Rust type rides in a JSON object field.
pub trait Wire: Sized {
    /// The noun a missing-field error uses ("integer", "string", …).
    const KIND: &'static str;

    /// The JSON form.
    fn to_json(&self) -> Json;

    /// Parses the value of field `field`; the error names the field and
    /// the shape it must have.
    fn from_json(v: &Json, field: &str) -> Result<Self, ProtoError>;
}

/// `` `field` must be <what> `` unless `v` parsed.
fn must<T>(v: Option<T>, field: &str, what: &str) -> Result<T, ProtoError> {
    v.ok_or_else(|| ProtoError::new(format!("`{field}` must be {what}")))
}

/// The scalar [`Wire`] types: type, error noun, `must be …` phrase,
/// `Json` accessor, `Json` constructor.
macro_rules! wire_scalars {
    ($( $ty:ty, $kind:literal, $what:literal, $get:expr, $put:expr; )+) => {$(
        impl Wire for $ty {
            const KIND: &'static str = $kind;
            fn to_json(&self) -> Json {
                $put(self)
            }
            fn from_json(v: &Json, field: &str) -> Result<$ty, ProtoError> {
                must($get(v), field, $what)
            }
        }
    )+};
}

wire_scalars! {
    u64, "integer", "a non-negative integer", Json::as_u64, |v: &u64| Json::num_u64(*v);
    usize, "integer", "a non-negative integer", Json::as_usize, |v: &usize| Json::num_usize(*v);
    bool, "boolean", "a boolean", Json::as_bool, |v: &bool| Json::Bool(*v);
    f64, "number", "a number", Json::as_f64, |v: &f64| Json::Num(*v);
    String, "string", "a string", |v: &Json| v.as_str().map(str::to_string),
        |v: &String| Json::Str(v.clone());
    // `sym`: symmetry declarations.
    Vec<String>, "array", "an array of strings",
        |v: &Json| v.as_arr()?.iter().map(|s| s.as_str().map(str::to_string)).collect(),
        |v: &Vec<String>| Json::Arr(v.iter().map(Wire::to_json).collect());
    // `shard`: the `[k, n]` window of a `run`.
    (u64, u64), "pair", "a `[k, n]` pair of integers",
        |v: &Json| match v.as_arr()? {
            [k, n] => Some((k.as_u64()?, n.as_u64()?)),
            _ => None,
        },
        |v: &(u64, u64)| Json::Arr(vec![Json::num_u64(v.0), Json::num_u64(v.1)]);
}

/// Decodes a name → value object, keys in wire order; `values` names
/// what the values must be (`"registry names"`).
pub(crate) fn pairs_from_json<T: Wire>(
    v: &Json,
    field: &str,
    values: &str,
) -> Result<Vec<(String, T)>, ProtoError> {
    let bad = |_| ProtoError::new(format!("`{field}` values must be {values}"));
    must(v.as_obj(), field, "an object")?
        .iter()
        .map(|(key, value)| Ok((key.clone(), T::from_json(value, field).map_err(bad)?)))
        .collect()
}

pub(crate) fn pairs_to_json<T: Wire>(pairs: &[(String, T)]) -> Json {
    Json::Obj(pairs.iter().map(|(key, value)| (key.clone(), value.to_json())).collect())
}

/// Einsum tensor name → registry name (the `inputs` of a `prepare`).
impl Wire for Vec<(String, String)> {
    const KIND: &'static str = "object";
    fn to_json(&self) -> Json {
        pairs_to_json(self)
    }
    fn from_json(v: &Json, field: &str) -> Result<Self, ProtoError> {
        pairs_from_json(v, field, "registry names")
    }
}

impl<R: Record> Wire for R {
    const KIND: &'static str = "object";
    fn to_json(&self) -> Json {
        Record::to_json(self)
    }
    fn from_json(v: &Json, field: &str) -> Result<R, ProtoError> {
        Record::from_json(v, field)
    }
}

impl<R: Record> Wire for Vec<R> {
    const KIND: &'static str = "array";
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Record::to_json).collect())
    }
    fn from_json(v: &Json, field: &str) -> Result<Vec<R>, ProtoError> {
        must(v.as_arr(), field, "an array")?.iter().map(|item| R::from_json(item, field)).collect()
    }
}

/// A field of a JSON object: a [`Wire`] value that must be present, or
/// an `Option` of one that is left out when `None`.
pub trait Field: Sized {
    /// Appends `key: value` to `pairs` (nothing for `None`).
    fn put(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>);

    /// Reads field `key` of `json`; `ctx` names the enclosing object in
    /// the missing-field error (``cache needs integer `hits` ``).
    fn take(json: &Json, key: &str, ctx: &str) -> Result<Self, ProtoError>;
}

impl<T: Wire> Field for T {
    fn put(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>) {
        pairs.push((key, self.to_json()));
    }
    fn take(json: &Json, key: &str, ctx: &str) -> Result<T, ProtoError> {
        need(json, key, || format!("{ctx} needs {} `{key}`", T::KIND))
    }
}

impl<T: Wire> Field for Option<T> {
    fn put(&self, key: &'static str, pairs: &mut Vec<(&'static str, Json)>) {
        if let Some(value) = self {
            pairs.push((key, value.to_json()));
        }
    }
    fn take(json: &Json, key: &str, _ctx: &str) -> Result<Option<T>, ProtoError> {
        opt(json, key)
    }
}

/// A required field: absent or wrong-shaped is the error `missing()`.
pub fn need<T: Wire>(
    json: &Json,
    field: &str,
    missing: impl FnOnce() -> String,
) -> Result<T, ProtoError> {
    let value = json.get(field).and_then(|v| T::from_json(v, field).ok());
    value.ok_or_else(|| ProtoError::new(missing()))
}

/// An optional field: `None` when absent, the type's own wrong-shape
/// error when present and malformed.
pub fn opt<T: Wire>(json: &Json, field: &str) -> Result<Option<T>, ProtoError> {
    json.get(field).map(|v| T::from_json(v, field)).transpose()
}

/// A JSON object under construction, keys in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(&'static str, Json)>);

impl Obj {
    /// `{"op": <verb>}` — the head of every request.
    pub fn op(verb: &'static str) -> Obj {
        Obj::default().with("op", &verb.to_string())
    }

    /// `{"ok": true, "reply": <tag>}` — the head of every success.
    pub fn reply(tag: &'static str) -> Obj {
        Obj::default().with("ok", &true).with("reply", &tag.to_string())
    }

    /// Appends a field (an `Option` that is `None` appends nothing).
    #[must_use]
    pub fn with<T: Field>(mut self, key: &'static str, value: &T) -> Obj {
        value.put(key, &mut self.0);
        self
    }

    /// Appends an already-built value (tensor payloads).
    #[must_use]
    pub fn raw(mut self, key: &'static str, value: Json) -> Obj {
        self.0.push((key, value));
        self
    }

    /// Appends a field unless it holds its default, which the wire
    /// spells by leaving the key out.
    #[must_use]
    pub fn unless_default<T: Wire + Default + PartialEq>(
        self,
        key: &'static str,
        value: &T,
    ) -> Obj {
        if *value == T::default() {
            self
        } else {
            self.with(key, value)
        }
    }

    /// The finished object.
    pub fn json(self) -> Json {
        Json::obj(self.0)
    }
}

/// One declared field of a [`Record`].
#[derive(Clone, Copy, Debug)]
pub struct FieldSpec {
    /// The field's name — its Rust identifier and its JSON key.
    pub name: &'static str,
    /// The Prometheus series the field is exposed as, if any.
    pub metric: Option<Metric>,
}

/// A flat stats record declared with [`record!`](crate::record).
pub trait Record: Sized {
    /// Every field, in declaration (= wire) order.
    const FIELDS: &'static [FieldSpec];

    /// The record as a JSON object, keys in [`Record::FIELDS`] order.
    fn to_json(&self) -> Json;

    /// Parses the record from its JSON object; `ctx` names it in the
    /// error for a missing field.
    fn from_json(json: &Json, ctx: &str) -> Result<Self, ProtoError>;

    /// Every field's value as an exposition sample (the `u64` fields),
    /// in [`Record::FIELDS`] order.
    fn samples(&self) -> Vec<Option<u64>>;

    /// Writes one sample per field that declares a series; the series
    /// of a shared family come out in label order.
    fn expose(&self, w: &mut PromWriter) {
        let mut series: Vec<(Metric, u64)> = Self::FIELDS
            .iter()
            .zip(self.samples())
            .filter_map(|(field, value)| Some((field.metric?, value?)))
            .collect();
        series.sort_by_key(|(metric, _)| metric.label);
        for (metric, value) in series {
            w.sample(&metric, &[], value);
        }
    }
}

/// Declares a stats record once: the struct and its [`Record`] impl
/// (JSON codec, `FIELDS`, exposition). Each field line
/// is `/// doc` + `pub name: Type` + optionally `=> <series>`, a
/// [`Metric`] expression. A trailing `live pub struct Name;` clause
/// (all-`u64` records only) also generates the atomic set with the
/// same field names and docs, whose `snapshot()` is the record.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty $(=> $metric:expr)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: $ty ),+
        }

        impl $crate::wire::Record for $name {
            const FIELDS: &'static [$crate::wire::FieldSpec] = &[
                $( $crate::wire::FieldSpec {
                    name: stringify!($field),
                    metric: $crate::record!(@metric $($metric)?),
                } ),+
            ];

            fn to_json(&self) -> $crate::json::Json {
                let mut pairs = Vec::new();
                $( $crate::wire::Field::put(&self.$field, stringify!($field), &mut pairs); )+
                $crate::json::Json::obj(pairs)
            }

            fn from_json(
                json: &$crate::json::Json,
                ctx: &str,
            ) -> Result<Self, $crate::protocol::ProtoError> {
                Ok($name { $( $field: $crate::wire::Field::take(json, stringify!($field), ctx)? ),+ })
            }

            fn samples(&self) -> Vec<Option<u64>> {
                use ::std::any::Any;
                vec![ $( (&self.$field as &dyn Any).downcast_ref::<u64>().copied() ),+ ]
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty $(=> $metric:expr)? ),+ $(,)?
        }
        $(#[$lmeta:meta])*
        live $lvis:vis struct $live:ident;
    ) => {
        $crate::record! {
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* pub $field: $ty $(=> $metric)? ),+
            }
        }

        $(#[$lmeta])*
        #[derive(Debug, Default)]
        $lvis struct $live {
            $( $(#[$fmeta])* pub $field: $crate::wire::Counter ),+
        }

        impl $live {
            /// The current values, as the record they are declared with.
            pub fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.get() ),+ }
            }
        }
    };
    (@metric) => { None };
    (@metric $metric:expr) => { Some($metric) };
}

/// Declares a wire enum once: `Variant = "wire string"` per variant →
/// the enum, `ALL`, `as_str`, `parse` and its [`Wire`] impl. A variant
/// without a string (at most the `#[default]` one) has no spelling: the
/// wire says it by leaving the field out.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident $(= $wire:literal)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant ),+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant ),+ ];

            /// The stable wire string (empty for a variant the wire
            /// spells by omission).
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $crate::wire_enum!(@wire $($wire)?) ),+
                }
            }

            /// The variant spelled `s` on the wire.
            pub fn parse(s: &str) -> Option<$name> {
                Self::ALL.iter().copied().find(|v| v.as_str() == s && !s.is_empty())
            }
        }

        impl $crate::wire::Wire for $name {
            const KIND: &'static str = "known";
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.as_str().into())
            }
            fn from_json(
                v: &$crate::json::Json,
                field: &str,
            ) -> Result<Self, $crate::protocol::ProtoError> {
                v.as_str().and_then(Self::parse).ok_or_else(|| {
                    $crate::wire::unknown_variant(v, field, Self::ALL.iter().map(|e| e.as_str()))
                })
            }
        }
    };
    (@wire) => { "" };
    (@wire $wire:literal) => { $wire };
}

/// The error for a wire-enum field holding none of `names` (the
/// empty name of a variant spelled by omission is not offered).
#[doc(hidden)]
pub fn unknown_variant(
    v: &Json,
    field: &str,
    names: impl Iterator<Item = &'static str>,
) -> ProtoError {
    let names: Vec<String> =
        names.filter(|name| !name.is_empty()).map(|name| format!("{name:?}")).collect();
    let expected = names.join(" or ");
    ProtoError::new(format!("unknown `{field}` {:?} (expected {expected})", v.as_str()))
}
