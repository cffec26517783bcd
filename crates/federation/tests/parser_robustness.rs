//! Fuzz-style robustness tests for the federation parsers: arbitrary
//! hostile input must produce `FederationError`s (strict) or diagnostics
//! (lenient) — never a panic. Backs the degraded-mode guarantee that one
//! bad record cannot abort an analysis run.

use proptest::prelude::*;

use decisive_federation::{csv, json, xml};

/// Syntax-shaped CSV noise: separators, quotes and newlines mixed with
/// printable runs, so quoting and row-shape edge cases are actually hit.
fn arb_csv_junk() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just(",".to_owned()),
            Just("\"".to_owned()),
            Just("\n".to_owned()),
            Just("\r\n".to_owned()),
            Just("\"\"".to_owned()),
            "[ -~]{0,8}",
        ],
        0..24,
    )
    .prop_map(|parts| parts.concat())
}

/// Syntax-shaped JSON noise: structural tokens and literal fragments.
fn arb_json_junk() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("{".to_owned()),
            Just("}".to_owned()),
            Just("[".to_owned()),
            Just("]".to_owned()),
            Just(":".to_owned()),
            Just(",".to_owned()),
            Just("\"".to_owned()),
            Just("\\u12".to_owned()),
            Just("null".to_owned()),
            Just("true".to_owned()),
            Just("-1.5e".to_owned()),
            "[ -~]{0,6}",
        ],
        0..24,
    )
    .prop_map(|parts| parts.concat())
}

/// Syntax-shaped XML noise: tags, attributes and entity fragments.
fn arb_xml_junk() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("<".to_owned()),
            Just(">".to_owned()),
            Just("</".to_owned()),
            Just("/>".to_owned()),
            Just("=".to_owned()),
            Just("'".to_owned()),
            Just("\"".to_owned()),
            Just("&#x".to_owned()),
            Just("&amp;".to_owned()),
            Just("<!--".to_owned()),
            Just("<![CDATA[".to_owned()),
            "[ -~]{0,6}",
        ],
        0..24,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csv_parsers_never_panic(input in arb_csv_junk()) {
        let strict = csv::parse(&input);
        let (lenient, diags) = csv::parse_lenient(&input, "junk.csv");
        // On well-formed input the strict and lenient parses agree exactly.
        if let Ok(v) = strict {
            prop_assert_eq!(lenient, v);
            prop_assert!(diags.is_empty());
        }
    }

    #[test]
    fn json_parsers_never_panic(input in arb_json_junk()) {
        let _ = json::parse(&input);
    }

    #[test]
    fn xml_parser_never_panics(input in arb_xml_junk()) {
        let _ = xml::parse(&input);
    }
}
