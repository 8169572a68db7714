//! The one wire codec behind every versioned artifact.
//!
//! What an artifact looks like is declared once, by the type that
//! carries it: a `record!` lists each field with its JSON key, in
//! emission order, and gets its writer from that one list through the
//! [`Wire`] trait. The field kinds are the `Wire` impls below —
//! non-negative integers, picosecond [`Time`]s, hex seeds, `Option`,
//! `Vec`, and nested records.
//!
//! Every sidecar (`BENCH_faults.json`, `BENCH_soak.json`,
//! `BENCH_journeys.json`, `BENCH_audit.json`, `BENCH_whatif.json`)
//! wears the same [`envelope`]: a `"version"` stamp, a `"bench"` name,
//! and usually a `"scenarios"` array ([`scenarios`]). Sidecars are
//! written, never read back: CI pins them byte for byte instead.
//!
//! The one artifact a shipped binary reads back is the drift gate's
//! baseline, `BENCH_figures.json`. Its records are declared with
//! `record! { parse ... }`, which adds a strict [`Parse`] impl from the
//! same field list: a missing key, a wrong type, or a negative or
//! fractional count is an error naming its key, never a silent wrap.

use crate::conformance::ARTIFACT_VERSION;
use crate::report::Json;
use scc_hal::{CoreId, Time};

/// A value with one JSON form.
pub trait Wire {
    fn to_wire(&self) -> Json;
}

/// The strict inverse of [`Wire`], for the records of the one artifact
/// that is read back: `from_wire(&x.to_wire()) == Ok(x)`, and
/// `from_wire` rejects everything `to_wire` cannot produce.
pub trait Parse: Sized {
    fn from_wire(v: &Json) -> Result<Self, String>;
}

/// Required field of an object; a failure names the key.
pub fn field<T: Parse>(obj: &Json, key: &str) -> Result<T, String> {
    let raw = obj.get(key).ok_or_else(|| format!("missing key '{key}'"))?;
    T::from_wire(raw).map_err(|e| format!("key '{key}': {e}"))
}

impl Wire for u64 {
    fn to_wire(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl Parse for u64 {
    fn from_wire(v: &Json) -> Result<u64, String> {
        v.as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| format!("expected a non-negative integer, got {}", v.render()))
    }
}

macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn to_wire(&self) -> Json {
                (*self as u64).to_wire()
            }
        }
    )*};
}
narrow_uint!(u8, u32, usize);

/// Integer picoseconds, the exactness contract of every artifact.
impl Wire for Time {
    fn to_wire(&self) -> Json {
        self.as_ps().to_wire()
    }
}

impl Wire for CoreId {
    fn to_wire(&self) -> Json {
        self.0.to_wire()
    }
}

/// A `u64` that spans the full range (a seed): a JSON integer is an
/// `i64` and would go negative past 2^63, so it travels as a hex
/// string.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hex64(pub u64);

impl Wire for Hex64 {
    fn to_wire(&self) -> Json {
        Json::Str(format!("{:#x}", self.0))
    }
}

impl Wire for bool {
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Parse for bool {
    fn from_wire(v: &Json) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| format!("expected a bool, got {}", v.render()))
    }
}

impl Wire for String {
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Parse for String {
    fn from_wire(v: &Json) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, got {}", v.render()))
    }
}

/// Measurements only — counts and times are integers above.
impl Wire for f64 {
    fn to_wire(&self) -> Json {
        Json::Num(*self)
    }
}

impl Parse for f64 {
    fn from_wire(v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("expected a number, got {}", v.render()))
    }
}

/// `None` is an explicit `null`; the key is still required.
impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_wire)
    }
}

impl<T: Parse> Parse for Option<T> {
    fn from_wire(v: &Json) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_wire(v).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_wire).collect())
    }
}

impl<T: Parse> Parse for Vec<T> {
    fn from_wire(v: &Json) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or_else(|| format!("expected an array, got {}", v.render()))?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_wire(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// Declare a record: the struct and its [`Wire`] form from one field
/// list, `name: Type => "json_key"`, in emission order. `derived`
/// keys are written after the fields. A leading `parse` also derives
/// [`Parse`] from the same list (`derived` keys are ignored there).
macro_rules! record {
    (parse $($body:tt)*) => {
        $crate::artifact::record!($($body)*);
        $crate::artifact::record!(@parse $($body)*);
    };
    (
        @parse $(#[$meta:meta])* $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty => $key:literal ),* $(,)?
        }
        $( derived { $( $dkey:literal => $derive:expr ),* $(,)? } )?
    ) => {
        impl $crate::artifact::Parse for $name {
            fn from_wire(v: &$crate::report::Json) -> Result<Self, String> {
                Ok($name { $( $field: $crate::artifact::field(v, $key)? ),* })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty => $key:literal ),* $(,)?
        }
        $( derived { $( $dkey:literal => $derive:expr ),* $(,)? } )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $ty ),*
        }

        impl $crate::artifact::Wire for $name {
            fn to_wire(&self) -> $crate::report::Json {
                $crate::report::Json::Obj(vec![
                    $( ($key.to_string(), $crate::artifact::Wire::to_wire(&self.$field)), )*
                    $($( ($dkey.to_string(), $crate::artifact::Wire::to_wire(&($derive)(self))), )*)?
                ])
            }
        }
    };
}
pub(crate) use record;

/// Start a versioned envelope: `{"version": N, "bench": <name>}`.
/// Callers chain `.set(...)` for their payload keys.
pub fn envelope(bench: &str) -> Json {
    Json::obj().set("version", Json::Int(ARTIFACT_VERSION)).set("bench", Json::Str(bench.into()))
}

/// The scenario-list artifact the fault, soak, journey and audit
/// sidecars share.
pub fn scenarios<T: Wire>(bench: &str, items: &[T]) -> Json {
    envelope(bench).set("scenarios", Json::Arr(items.iter().map(Wire::to_wire).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::validate_artifact_version;

    record! { parse
        #[derive(Clone, Debug, PartialEq)]
        struct Demo {
            n: u64 => "n",
            x: f64 => "x",
            budget: Option<u64> => "budget",
            tags: Vec<String> => "tags",
            ok: bool => "ok",
        }
    }

    fn demo() -> Demo {
        Demo { n: 7, x: 0.5, budget: None, tags: vec!["x".into()], ok: true }
    }

    #[test]
    fn envelope_carries_version_and_bench() {
        let doc = scenarios("demo", &[demo()]);
        validate_artifact_version(&doc).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        assert_eq!(doc.get("scenarios").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    }

    #[test]
    fn field_helpers_round_trip_and_reject_junk() {
        let doc = demo().to_wire();
        assert_eq!(
            doc.render(),
            "{\"n\":7,\"x\":0.5,\"budget\":null,\"tags\":[\"x\"],\"ok\":true}"
        );
        assert_eq!(Demo::from_wire(&doc).unwrap(), demo());
        let some = Demo { budget: Some(9), ..demo() };
        assert_eq!(Demo::from_wire(&some.to_wire()).unwrap(), some);
        assert!(field::<u64>(&doc, "missing").unwrap_err().contains("missing"));
        for (key, junk, names) in [
            ("n", Json::Int(-4), "-4"),
            ("n", Json::Num(1.5), "1.5"),
            ("budget", Json::Str("soon".into()), "soon"),
            ("ok", Json::Int(1), "bool"),
            ("tags", Json::Arr(vec![Json::Int(1)]), "[0]"),
        ] {
            let err = Demo::from_wire(&doc.clone().set(key, junk)).unwrap_err();
            assert!(err.contains(key) && err.contains(names), "{key}: {err}");
        }
        assert_eq!(Time::from_ns(3).to_wire().render(), "3000");
        assert_eq!(Hex64(u64::MAX).to_wire().render(), "\"0xffffffffffffffff\"");
    }
}
