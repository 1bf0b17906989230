//! The writer's bytes, pinned: `fixtures/writer.{compact,pretty}.json`
//! were written by the `format!`-per-number, `repeat`-per-line writer this
//! crate shipped before it learned to append in place, so any rewrite of
//! `write_num`, `write_str` or the indentation must reproduce them
//! exactly. Every report and experiment table in the repository goes
//! through these two functions.

use wavesim_json::Value;

fn fixture() -> Value {
    let nums = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect());
    let two_53 = 9_007_199_254_740_992.0;
    Value::obj(vec![
        (
            "ints",
            nums(&[
                0.0,
                -0.0,
                7.0,
                -17.0,
                1234567890.0,
                two_53 - 1.0,
                1.0 - two_53,
                two_53,
                -two_53,
                u64::MAX as f64,
                1e21,
            ]),
        ),
        (
            "fractions",
            nums(&[
                0.5,
                -3.25,
                0.1,
                1.0 / 3.0,
                123_456.789,
                1e-7,
                2.5e-10,
                two_53 / 3.0,
            ]),
        ),
        (
            "non_finite",
            nums(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        ),
        (
            "strings",
            Value::Arr(vec![
                "".into(),
                "plain".into(),
                "q\"b\\s/".into(),
                "\n\r\t".into(),
                "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}".into(),
                "é→𝄞".into(),
            ]),
        ),
        ("k\"e\ny\u{2}", Value::Null),
        (
            "flags",
            Value::Arr(vec![true.into(), false.into(), Value::Null]),
        ),
        (
            "empty",
            Value::obj(vec![
                ("arr", Value::Arr(vec![])),
                ("obj", Value::Obj(vec![])),
            ]),
        ),
        (
            "nested",
            Value::Arr(vec![Value::Arr(vec![Value::Arr(vec![
                Value::obj(vec![(
                    "a",
                    Value::obj(vec![("b", Value::obj(vec![("c", 1u64.into())]))]),
                )]),
                Value::Arr(vec![]),
            ])])]),
        ),
    ])
}

#[test]
fn compact_and_pretty_bytes_match_the_committed_fixtures() {
    let v = fixture();
    assert_eq!(v.compact(), include_str!("fixtures/writer.compact.json"));
    assert_eq!(v.pretty(), include_str!("fixtures/writer.pretty.json"));
    // Both renderings parse back to the same document (non-finite numbers
    // and -0 aside, which the writer maps to `null` and `0`).
    assert_eq!(
        Value::parse(&v.pretty()).expect("pretty parses"),
        Value::parse(&v.compact()).expect("compact parses")
    );
}
