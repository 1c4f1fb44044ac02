//! Pins the RNG stream and the JSON writer's exact output.

use lcda_base::json::{FromJson, ToJson, Value};
use lcda_base::rng::{self, Rng};
use lcda_base::{impl_json, json};
use std::collections::BTreeMap;

#[test]
fn rng_stream_is_pinned() {
    let mut r = Rng::new(0);
    let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
    assert_eq!(
        got,
        [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0]
    );
    let mut r = Rng::new(1001);
    let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
    assert_eq!(
        got,
        [0x586f70befa22bca2, 0x26a95a8e2d12df50, 0x81b55c29fac88fb6]
    );
    let mut r = Rng::new(1001);
    assert_eq!(r.uniform(0.0, 1.0), 0.3454504);
    assert_eq!(r.index(10), 1);
    assert!(!r.chance(0.5));
}

#[test]
fn rng_ranges_stay_in_bounds() {
    let mut r = Rng::new(1);
    for _ in 0..10_000 {
        assert!(r.below(6) < 6);
        let x = r.uniform_f64(-0.01, 0.01);
        assert!((-0.01..0.01).contains(&x));
        let y = r.uniform(f32::EPSILON, 1.0);
        assert!((f32::EPSILON..1.0).contains(&y));
    }
    assert_eq!(r.uniform(2.5, 2.5), 2.5);
    assert!(r.chance(1.0));
    assert!(!r.chance(0.0));
}

#[test]
fn rng_small_range_is_roughly_uniform() {
    let mut r = Rng::new(3);
    let mut counts = [0u32; 3];
    for _ in 0..30_000 {
        counts[r.index(3)] += 1;
    }
    assert!(
        counts.iter().all(|&c| (9_000..11_000).contains(&c)),
        "{counts:?}"
    );
}

#[test]
fn rng_normal_moments() {
    let mut r = Rng::new(11);
    let n = 20_000;
    let samples: Vec<f32> = (0..n).map(|_| r.normal()).collect();
    let mean = samples.iter().sum::<f32>() / n as f32;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
    assert!(mean.abs() < 0.05, "mean {mean}");
    assert!((var - 1.0).abs() < 0.08, "var {var}");
}

#[test]
fn rng_weighted_index_and_shuffle() {
    let mut r = Rng::new(5);
    let mut counts = [0usize; 4];
    for _ in 0..1000 {
        counts[r.weighted_index(&[0.0, 0.0, 10.0, 0.1])] += 1;
    }
    assert_eq!(counts[0] + counts[1], 0);
    assert!(counts[2] > 900);
    let mut seen = [false; 3];
    for _ in 0..200 {
        seen[r.weighted_index(&[0.0; 3])] = true;
    }
    assert!(seen.iter().all(|&s| s));
    let mut v: Vec<usize> = (0..50).collect();
    r.shuffle(&mut v);
    let mut sorted = v.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<_>>());
}

#[test]
fn rng_forks_differ() {
    let mut parent = Rng::new(9);
    let mut a = parent.fork(1);
    let mut b = parent.fork(2);
    assert_ne!(a.next_u64(), b.next_u64());
}

#[test]
fn check_runs_every_case_and_reports_the_failing_seed() {
    let mut seen = Vec::new();
    rng::check(5, |r| seen.push(r.clone()));
    assert_eq!(seen, (0..5).map(Rng::new).collect::<Vec<_>>());
    let failed = std::panic::catch_unwind(|| {
        rng::check(10, |r| assert!(r.clone() != Rng::new(3)));
    });
    assert!(failed.is_err());
}

#[test]
fn floats_print_shortest_and_non_finite_as_null() {
    assert_eq!(json::to_string(&0.1f32), "0.1");
    assert_eq!(json::to_string(&0.1f64), "0.1");
    assert_eq!(json::to_string(&1.0f64), "1.0");
    assert_eq!(json::to_string(&1e-7f64), "1e-7");
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(json::to_string(&x), "null");
    }
    assert_eq!(json::to_string(&f32::NAN), "null");
    for x in [0.1f64, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 123456789.125] {
        let back: f64 = json::from_str(&json::to_string(&x)).unwrap();
        assert_eq!(back.to_bits(), x.to_bits());
    }
    let back: f32 = json::from_str("0.1").unwrap();
    assert_eq!(back, 0.1f32);
}

#[test]
fn strings_escape_and_surrogate_pairs_round_trip() {
    let s = "q\"\\\n\t\u{1}é😀/";
    let text = json::to_string(s);
    assert_eq!(text, "\"q\\\"\\\\\\n\\t\\u0001é😀/\"");
    assert_eq!(json::from_str::<String>(&text).unwrap(), s);
    let escaped: String = json::from_str(r#""\ud83d\ude00\u00e9\/""#).unwrap();
    assert_eq!(escaped, "😀é/");
    assert!(json::from_str::<String>(r#""\ud83d""#).is_err());
    assert!(json::from_str::<String>(r#""\ud83d\u0041""#).is_err());
}

#[test]
fn parser_rejects_malformed_input() {
    for bad in [
        "",
        "{",
        "[1,]",
        "01",
        "1 2",
        "{\"a\" 1}",
        "\"\\x\"",
        "nul",
        "[1e]",
        "{,}",
        "[,1]",
    ] {
        assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
    }
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(Value::parse(&deep).is_err());
    let ok = "[".repeat(100) + &"]".repeat(100);
    assert!(Value::parse(&ok).is_ok());
}

#[test]
fn objects_keep_insertion_order_compact_and_pretty() {
    let v = json!({ "b": [1, -2, 0.5, true, null], "a": { "s": "x" }, "e": [], "o": {} });
    assert_eq!(
        v.to_string(),
        r#"{"b":[1,-2,0.5,true,null],"a":{"s":"x"},"e":[],"o":{}}"#
    );
    let pretty = format!("{v:#}");
    assert_eq!(
        pretty,
        "{\n  \"b\": [\n    1,\n    -2,\n    0.5,\n    true,\n    null\n  ],\n  \"a\": {\n    \"s\": \"x\"\n  },\n  \"e\": [],\n  \"o\": {}\n}"
    );
    assert_eq!(Value::parse(&pretty).unwrap(), v);
    assert_eq!(v["a"]["s"], "x");
    assert_eq!(v["missing"], Value::Null);
}

#[test]
fn integers_cover_u64_and_i64() {
    let text = json::to_string(&(u64::MAX, i64::MIN));
    assert_eq!(text, "[18446744073709551615,-9223372036854775808]");
    assert_eq!(
        json::from_str::<(u64, i64)>(&text).unwrap(),
        (u64::MAX, i64::MIN)
    );
    assert!(json::from_str::<u8>("300").is_err());
    assert!(json::from_str::<u32>("-1").is_err());
    assert!(json::from_str::<u32>("1.0").is_err());
    let m: BTreeMap<u64, Vec<f32>> = [(7, vec![0.25]), (11, vec![])].into_iter().collect();
    assert_eq!(json::to_string(&m), r#"{"7":[0.25],"11":[]}"#);
    assert_eq!(
        json::from_str::<BTreeMap<u64, Vec<f32>>>(&json::to_string(&m)).unwrap(),
        m
    );
}

fn seven() -> u32 {
    7
}

#[derive(Debug, PartialEq)]
struct Strict {
    a: u32,
    #[allow(dead_code)]
    n: u32,
    note: Option<String>,
    flag: bool,
}

impl_json!(#[deny_unknown_fields] struct Strict {
    a,
    #[default = seven] n,
    #[skip_if = Option::is_none] note,
    #[skip_if = std::ops::Not::not] flag,
});

#[test]
fn struct_fields_defaults_and_skips() {
    let s: Strict = json::from_str(r#"{"a": 1}"#).unwrap();
    assert_eq!(
        s,
        Strict {
            a: 1,
            n: 7,
            note: None,
            flag: false
        }
    );
    assert_eq!(json::to_string(&s), r#"{"a":1,"n":7}"#);
    let full = Strict {
        note: Some("x".into()),
        flag: true,
        ..s
    };
    assert_eq!(
        json::to_string(&full),
        r#"{"a":1,"n":7,"note":"x","flag":true}"#
    );
    assert_eq!(
        json::from_str::<Strict>(&json::to_string(&full)).unwrap(),
        full
    );
    let err = json::from_str::<Strict>(r#"{"a": 1, "nn": 2}"#).unwrap_err();
    assert!(err.to_string().contains("unknown field `nn`"), "{err}");
    let err = json::from_str::<Strict>(r#"{"n": 2}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `a`"), "{err}");
    let err = json::from_str::<Strict>(r#"{"a": "x"}"#).unwrap_err();
    assert!(
        err.to_string().starts_with("a: invalid type: string"),
        "{err}"
    );
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Kind {
    Unit,
    Named { size: usize },
}

impl_json!(#[snake_case] enum Kind { Unit, Named { size } });

#[derive(Debug, PartialEq)]
enum Plain {
    First,
    SecondOne,
}

impl_json!(
    enum Plain {
        First,
        SecondOne,
    }
);

#[test]
fn externally_tagged_enums() {
    let all = vec![Kind::Unit, Kind::Named { size: 4 }];
    let text = json::to_string(&all);
    assert_eq!(text, r#"["unit",{"named":{"size":4}}]"#);
    assert_eq!(json::from_str::<Vec<Kind>>(&text).unwrap(), all);
    assert_eq!(json::to_string(&Plain::SecondOne), r#""SecondOne""#);
    assert_eq!(json::from_str::<Plain>(r#""First""#).unwrap(), Plain::First);
    assert!(json::from_str::<Plain>(r#""first""#).is_err());
    assert!(json::from_str::<Kind>(r#"{"named":[4]}"#).is_err());
}

#[derive(Debug, PartialEq)]
struct Unit;

impl_json!(
    struct Unit;
);

#[derive(Debug, PartialEq)]
struct Wrapper<T> {
    items: Vec<T>,
    unit: Unit,
}

impl_json!(struct Wrapper<T> { items, unit });

#[test]
fn generic_and_unit_structs() {
    let w = Wrapper {
        items: vec![Kind::Unit],
        unit: Unit,
    };
    assert_eq!(json::to_string(&w), r#"{"items":["unit"],"unit":null}"#);
    assert_eq!(
        json::from_str::<Wrapper<Kind>>(&json::to_string(&w)).unwrap(),
        w
    );
    assert_eq!(Unit::from_json(&Value::Null), Ok(Unit));
    assert_eq!(json::to_value(&Unit), Value::Null);
}

#[test]
fn shared_strings_print_and_parse_like_owned_ones() {
    use std::sync::Arc;
    let owned: BTreeMap<String, Vec<String>> = [
        ("b | \"q\"".to_string(), vec!["x".to_string()]),
        ("a".to_string(), vec![]),
    ]
    .into_iter()
    .collect();
    let shared: BTreeMap<Arc<str>, Vec<Arc<str>>> = owned
        .iter()
        .map(|(k, v)| {
            (
                Arc::from(k.as_str()),
                v.iter().map(|s| s.as_str().into()).collect(),
            )
        })
        .collect();
    let text = lcda_base::json::to_string(&owned);
    assert_eq!(lcda_base::json::to_string(&shared), text);
    let back: BTreeMap<Arc<str>, Vec<Arc<str>>> = lcda_base::json::from_str(&text).unwrap();
    assert_eq!(back, shared);
}

/// `value` streams `compact`, and `pretty` in the pretty form.
fn assert_writes<T: ToJson + ?Sized>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(json::to_string(value), compact);
    assert_eq!(json::to_string_pretty(value), pretty);
}

/// `value`, which holds no non-empty array or object, streams `text` in
/// both forms.
fn assert_writes_flat<T: ToJson + ?Sized>(value: &T, text: &str) {
    assert_writes(value, text, text);
}

#[derive(Debug)]
struct Skipped {
    note: Option<String>,
    flag: bool,
}

impl_json!(struct Skipped {
    #[skip_if = Option::is_none] note,
    #[skip_if = std::ops::Not::not] flag,
});

#[derive(Debug)]
enum Tagged {
    Bare,
    Full { size: usize, note: Option<String> },
    Empty { note: Option<String> },
}

impl_json!(#[tag = "kind", snake_case] enum Tagged {
    Bare,
    Full { size, note },
    Empty { #[skip_if = Option::is_none] note },
});

#[derive(Debug)]
enum PlainTagged {
    OnlyUnit,
}

impl_json!(
    #[tag = "t"]
    enum PlainTagged {
        OnlyUnit,
    }
);

#[test]
fn edge_cases_stream_their_recorded_text() {
    for (s, text) in [
        ("", r#""""#),
        ("plain", r#""plain""#),
        (
            "quote \" and backslash \\ and slash /",
            r#""quote \" and backslash \\ and slash /""#,
        ),
        (
            "controls \n \r \t \u{8} \u{c} \u{0} \u{1f} \u{7f}",
            "\"controls \\n \\r \\t \\b \\f \\u0000 \\u001f \u{7f}\"",
        ),
        (
            "non-ASCII é ß 中文 🦀 \u{2028}",
            "\"non-ASCII é ß 中文 🦀 \u{2028}\"",
        ),
    ] {
        assert_writes_flat(s, text);
        assert_writes_flat(&s.to_string(), text);
        // The same escaping applies to keys.
        assert_writes(
            &BTreeMap::from([(s.to_string(), 1u8)]),
            &format!("{{{text}:1}}"),
            &format!("{{\n  {text}: 1\n}}"),
        );
    }
    for (x, text, as_f32) in [
        (f64::NAN, "null", "null"),
        (f64::INFINITY, "null", "null"),
        (f64::NEG_INFINITY, "null", "null"),
        (-0.0, "-0.0", "-0.0"),
        (1e-300, "1e-300", "0.0"),
        (0.1, "0.1", "0.1"),
    ] {
        assert_writes_flat(&x, text);
        assert_writes_flat(&(x as f32), as_f32);
    }
    assert_eq!(json::to_string(&[f32::NAN, f32::INFINITY]), "[null,null]");
    assert_eq!(json::to_string(&f64::NEG_INFINITY), "null");
    for i in [i64::MIN, -1, 0, 9, 10, i64::MAX] {
        assert_writes_flat(&i, &i.to_string());
    }
    assert_writes_flat(&u64::MAX, "18446744073709551615");
    assert_writes_flat(&usize::MAX, &usize::MAX.to_string());
    assert_writes_flat(
        &Value::Int(i128::MIN),
        "-170141183460469231731687303715884105728",
    );

    // Empty containers, alone and nested.
    let empty: Vec<u8> = Vec::new();
    assert_writes_flat(&empty, "[]");
    assert_writes(
        &vec![empty.clone(), vec![1], empty],
        "[[],[1],[]]",
        "[\n  [],\n  [\n    1\n  ],\n  []\n]",
    );
    assert_writes_flat(&BTreeMap::<u64, u8>::new(), "{}");
    assert_writes_flat(&Value::Object(Vec::new()), "{}");
    assert_writes(
        &json!({ "a": [], "b": {}, "c": [{}, []] }),
        r#"{"a":[],"b":{},"c":[{},[]]}"#,
        "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    {},\n    []\n  ]\n}",
    );
    assert_eq!(
        json::to_string_pretty(&json!({ "a": [] })),
        "{\n  \"a\": []\n}"
    );

    // An object whose every field is skipped, alone and as an entry.
    let bare = Skipped {
        note: None,
        flag: false,
    };
    assert_writes_flat(&bare, "{}");
    assert_writes(&vec![bare], "[{}]", "[\n  {}\n]");
    assert_writes(
        &Skipped {
            note: Some("n".into()),
            flag: true,
        },
        r#"{"note":"n","flag":true}"#,
        "{\n  \"note\": \"n\",\n  \"flag\": true\n}",
    );

    // Unit, external and tagged variants.
    assert_writes_flat(&Plain::First, r#""First""#);
    assert_writes(
        &vec![Kind::Unit, Kind::Named { size: 3 }],
        r#"["unit",{"named":{"size":3}}]"#,
        "[\n  \"unit\",\n  {\n    \"named\": {\n      \"size\": 3\n    }\n  }\n]",
    );
    let tagged = vec![
        Tagged::Bare,
        Tagged::Full {
            size: 2,
            note: None,
        },
        Tagged::Empty { note: None },
        Tagged::Empty {
            note: Some("x".into()),
        },
    ];
    assert_writes(
        &tagged,
        r#"[{"kind":"bare"},{"kind":"full","size":2,"note":null},{"kind":"empty"},{"kind":"empty","note":"x"}]"#,
        "[\n  {\n    \"kind\": \"bare\"\n  },\n  {\n    \"kind\": \"full\",\n    \"size\": 2,\n    \"note\": null\n  },\n  {\n    \"kind\": \"empty\"\n  },\n  {\n    \"kind\": \"empty\",\n    \"note\": \"x\"\n  }\n]",
    );
    assert_writes(
        &PlainTagged::OnlyUnit,
        r#"{"t":"OnlyUnit"}"#,
        "{\n  \"t\": \"OnlyUnit\"\n}",
    );
    assert_writes_flat(&Unit, "null");

    // `Option` nested in `Option`: both `None`s write `null`.
    for (v, text) in [(None, "null"), (Some(None), "null"), (Some(Some(4u8)), "4")] {
        assert_writes_flat(&v, text);
    }
    assert_writes(
        &vec![Some(Some(1u8)), Some(None), None],
        "[1,null,null]",
        "[\n  1,\n  null,\n  null\n]",
    );

    // Tuples, arrays, shared and boxed values.
    assert_writes(
        &(1u8, "two", [3.5f32, f32::NAN]),
        r#"[1,"two",[3.5,null]]"#,
        "[\n  1,\n  \"two\",\n  [\n    3.5,\n    null\n  ]\n]",
    );
    assert_writes(
        &Box::new((Some(1u8), false, Unit)),
        "[1,false,null]",
        "[\n  1,\n  false,\n  null\n]",
    );
    assert_writes_flat(&std::sync::Arc::<str>::from("arc"), r#""arc""#);
}

#[test]
fn flatten_writes_one_object_and_refuses_a_payload_that_is_not_one() {
    use lcda_base::json::JsonOut;
    let mut text = String::new();
    JsonOut::new(&mut text, true)
        .flatten("seq", &3u8, &Tagged::Bare)
        .unwrap();
    assert_eq!(text, "{\n  \"seq\": 3,\n  \"kind\": \"bare\"\n}");
    let mut text = String::new();
    JsonOut::new(&mut text, false)
        .flatten(
            "seq",
            &3u8,
            &Skipped {
                note: None,
                flag: false,
            },
        )
        .unwrap();
    assert_eq!(text, r#"{"seq":3}"#);
    for not_an_object in [json!(1), json!([]), json!(null), json!("s")] {
        let mut text = String::new();
        assert!(JsonOut::new(&mut text, false)
            .flatten("seq", &3u8, &not_an_object)
            .is_err());
    }
}

#[test]
fn pretty_output_indents_past_sixteen_levels() {
    let mut deep = json!(1);
    for _ in 0..20 {
        deep = Value::Array(vec![deep]);
    }
    let text = json::to_string_pretty(&deep);
    assert!(
        text.contains(&format!("\n{}1\n", "  ".repeat(20))),
        "{text}"
    );
    assert_eq!(Value::parse(&text).unwrap(), deep);
    assert_eq!(
        json::to_string(&deep),
        format!("{}1{}", "[".repeat(20), "]".repeat(20))
    );
}
