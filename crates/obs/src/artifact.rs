//! The one wire codec behind every versioned artifact.
//!
//! What an artifact looks like is declared once, by the type that
//! carries it: a `record!` lists each field with its JSON key, in
//! emission order, and gets a writer and a strict parser from that one
//! list through the [`Wire`] trait. The field kinds are the `Wire`
//! impls below — non-negative integers (a negative or fractional count
//! is a parse error naming its key, never a silent wrap), picosecond
//! [`Time`]s, hex seeds, `Option`, `Vec`, and nested records. A type
//! with an invariant across fields (the sketch's total) implements
//! `Wire` by hand.
//!
//! Every sidecar (`BENCH_faults.json`, `BENCH_soak.json`,
//! `BENCH_journeys.json`, `BENCH_audit.json`, `BENCH_whatif.json`)
//! wears the same [`envelope`]: a `"version"` stamp checked by
//! [`validate_artifact_version`] before any other field, a `"bench"`
//! name, and usually a `"scenarios"` array ([`scenarios`] /
//! [`parse_scenarios`]). [`check_codec`] is that contract in
//! executable form; each record's tests instantiate it.

use crate::conformance::{validate_artifact_version, ARTIFACT_VERSION};
use crate::report::Json;
use scc_hal::{CoreId, Time};

/// A value with one JSON form: `from_wire(&x.to_wire()) == Ok(x)`, and
/// `from_wire` rejects everything `to_wire` cannot produce.
pub trait Wire: Sized {
    fn to_wire(&self) -> Json;
    fn from_wire(v: &Json) -> Result<Self, String>;
}

/// Required field of an object; a failure names the key.
pub fn field<T: Wire>(obj: &Json, key: &str) -> Result<T, String> {
    let raw = obj.get(key).ok_or_else(|| format!("missing key '{key}'"))?;
    T::from_wire(raw).map_err(|e| format!("key '{key}': {e}"))
}

impl Wire for u64 {
    fn to_wire(&self) -> Json {
        Json::Int(*self as i64)
    }
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
            fn from_wire(v: &Json) -> Result<$t, String> {
                <$t>::try_from(u64::from_wire(v)?)
                    .map_err(|_| format!("{} out of range", v.render()))
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
    fn from_wire(v: &Json) -> Result<Time, String> {
        u64::from_wire(v).map(Time::from_ps)
    }
}

impl Wire for CoreId {
    fn to_wire(&self) -> Json {
        self.0.to_wire()
    }
    fn from_wire(v: &Json) -> Result<CoreId, String> {
        u8::from_wire(v).map(CoreId)
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
    fn from_wire(v: &Json) -> Result<Hex64, String> {
        let s = v.as_str().ok_or_else(|| format!("expected a hex string, got {}", v.render()))?;
        u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map(Hex64)
            .map_err(|e| format!("bad hex '{s}': {e}"))
    }
}

impl Wire for bool {
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_wire(v: &Json) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| format!("expected a bool, got {}", v.render()))
    }
}

impl Wire for String {
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
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
    fn from_wire(v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("expected a number, got {}", v.render()))
    }
}

/// `None` is an explicit `null`; the key is still required.
impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_wire)
    }
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
/// keys are written after the fields and ignored when parsing.
macro_rules! record {
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
            fn from_wire(v: &$crate::report::Json) -> Result<Self, String> {
                Ok($name { $( $field: $crate::artifact::field(v, $key)? ),* })
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

/// Strict inverse of [`scenarios`]: version gate first (so a stale
/// file fails naming the mismatch), then the `"scenarios"` array.
pub fn parse_scenarios<T: Wire>(doc: &Json) -> Result<Vec<T>, String> {
    validate_artifact_version(doc)?;
    field(doc, "scenarios")
}

/// Replace the `n`-th integer leaf under `v` (depth first) with `-3`
/// and return the object key it sits under.
fn poke_negative(v: &mut Json, n: &mut usize, key: &str) -> Option<String> {
    match v {
        Json::Int(i) => {
            if *n == 0 {
                *i = -3;
                return Some(key.to_string());
            }
            *n -= 1;
            None
        }
        Json::Arr(items) => items.iter_mut().find_map(|x| poke_negative(x, n, key)),
        Json::Obj(fields) => fields.iter_mut().find_map(|(k, x)| poke_negative(x, n, k)),
        _ => None,
    }
}

/// The codec contract, checked on one scenario list of an all-integer
/// artifact: render → parse gives the same values; render → parse →
/// render is byte-stable; every integer, set negative, is rejected
/// with an error naming its key; a wrong `version` is rejected before
/// any other field is looked at.
pub fn check_codec<T>(bench: &str, items: &[T]) -> Result<(), String>
where
    T: Wire + PartialEq + std::fmt::Debug,
{
    let text = scenarios(bench, items).render();
    let doc = Json::parse(&text).map_err(|e| format!("render does not parse: {e}"))?;
    let back = parse_scenarios::<T>(&doc)?;
    if back != items {
        return Err(format!("round trip changed the value: {back:?} != {items:?}"));
    }
    if scenarios(bench, &back).render() != text {
        return Err("render -> parse -> render is not byte-stable".to_string());
    }
    for n in 0.. {
        let (mut bad, mut left) = (doc.clone(), n);
        let Some(key) = poke_negative(&mut bad, &mut left, "") else { break };
        match parse_scenarios::<T>(&bad) {
            Ok(_) => return Err(format!("negative '{key}' (integer #{n}) was accepted")),
            Err(e) if !e.contains(&key) => {
                return Err(format!("negative '{key}' rejected without naming it: {e}"))
            }
            Err(_) => {}
        }
    }
    let stale = Json::obj().set("version", Json::Int(ARTIFACT_VERSION + 1));
    match parse_scenarios::<T>(&stale) {
        Err(e) if e.contains("!= supported") => Ok(()),
        other => Err(format!("stale version not rejected first: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    record! {
        #[derive(Clone, Debug, PartialEq)]
        struct Demo {
            n: u64 => "n",
            t: Time => "t_ps",
            seed: Hex64 => "seed",
            budget: Option<Time> => "budget_ps",
            tags: Vec<String> => "tags",
            ok: bool => "ok",
        }
    }

    fn demo() -> Demo {
        Demo {
            n: 7,
            t: Time::from_ns(3),
            seed: Hex64(u64::MAX),
            budget: None,
            tags: vec!["x".into()],
            ok: true,
        }
    }

    #[test]
    fn envelope_carries_version_and_bench() {
        let doc = scenarios("demo", &[demo()]);
        validate_artifact_version(&doc).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        assert_eq!(parse_scenarios::<Demo>(&doc).unwrap().len(), 1);
        check_codec("demo", &[demo(), Demo { budget: Some(Time::from_ns(9)), ..demo() }]).unwrap();
    }

    #[test]
    fn open_rejects_stale_version_and_missing_scenarios() {
        let stale = scenarios::<Demo>("demo", &[]).set("version", Json::Int(999));
        assert!(parse_scenarios::<Demo>(&stale).unwrap_err().contains("999"));
        let bare = envelope("demo");
        assert!(parse_scenarios::<Demo>(&bare).unwrap_err().contains("scenarios"));
    }

    #[test]
    fn field_helpers_round_trip_and_reject_junk() {
        let doc = demo().to_wire();
        assert_eq!(
            doc.render(),
            "{\"n\":7,\"t_ps\":3000,\"seed\":\"0xffffffffffffffff\",\"budget_ps\":null,\
             \"tags\":[\"x\"],\"ok\":true}"
        );
        assert_eq!(Demo::from_wire(&doc).unwrap(), demo());
        assert!(field::<u64>(&doc, "missing").unwrap_err().contains("missing"));
        for (key, junk, names) in [
            ("n", Json::Int(-4), "-4"),
            ("n", Json::Num(1.5), "1.5"),
            ("t_ps", Json::Str("soon".into()), "soon"),
            ("seed", Json::Str("0xzz".into()), "0xzz"),
            ("ok", Json::Int(1), "bool"),
            ("tags", Json::Arr(vec![Json::Int(1)]), "[0]"),
        ] {
            let err = Demo::from_wire(&doc.clone().set(key, junk)).unwrap_err();
            assert!(err.contains(key) && err.contains(names), "{key}: {err}");
        }
        assert!(u8::from_wire(&Json::Int(256)).unwrap_err().contains("out of range"));
    }
}
