//! Lint self-tests: the fixture corpus proves every rule fires on its
//! bad fixture (and only there), and proptests prove the lexer is total —
//! arbitrary token soup round-trips without panicking.

use gfd_lint::{lint_source, rule_names};
use proptest::prelude::*;

/// Fixture pairs `<rule>/<stem>bad.rs` and `<rule>/<stem>good.rs`, with
/// the findings each bad file must produce. One fixture directory per
/// rule, named exactly after the rule so the engine's `fixtures/<rule>/`
/// scoping puts each file in exactly one rule's jurisdiction.
const PAIRS: &[(&str, &str, usize)] = &[
    ("nondeterminism", "", 2),      // .values() call + for-in loop
    ("nondeterminism", "sort_", 2), // sort_unstable_by_key + sort_unstable_by on partial keys
    ("no-panic", "", 4),            // unwrap, expect, panic!, computed index
    ("unsafe-code", "", 2),         // missing forbid + SAFETY-less unsafe
    ("simulated-cost", "", 2),      // SystemTime + Instant-into-cost statement
    ("perf", "", 8), // format!, .to_vec(), Arc::clone, evaluate, accumulate_lhs in a loop; 2× Vec<Vec<; MatchTable::build
    ("hygiene", "", 5), // 2 untracked markers, 2 blanket allows, stale escape
    ("fault-boundary", "", 3), // undocumented catch_unwind + recv unwrap + recv_timeout expect
];

fn fixture(rule: &str, file: &str) -> (String, String) {
    let path = format!(
        "{}/tests/fixtures/{rule}/{file}.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    let rel = format!("crates/lint/tests/fixtures/{rule}/{file}.rs");
    (rel, text)
}

#[test]
fn corpus_covers_every_shipped_rule() {
    let shipped = rule_names();
    let mut covered: Vec<&str> = PAIRS.iter().map(|&(r, _, _)| r).collect();
    covered.dedup();
    assert_eq!(shipped, covered, "fixture corpus out of sync with rules");
}

#[test]
fn each_rule_fires_on_its_bad_fixture_and_nowhere_else() {
    for &(rule, stem, min_diags) in PAIRS {
        let (rel, text) = fixture(rule, &format!("{stem}bad"));
        let diags = lint_source(&rel, &text);
        assert!(
            diags.len() >= min_diags,
            "{rule}/{stem}bad.rs: expected >= {min_diags} findings, got {diags:?}"
        );
        for d in &diags {
            assert_eq!(
                d.rule, rule,
                "{rule}/{stem}bad.rs produced a foreign finding: {d}"
            );
        }
    }
}

#[test]
fn good_fixtures_are_clean() {
    for &(rule, stem, _) in PAIRS {
        let (rel, text) = fixture(rule, &format!("{stem}good"));
        let diags = lint_source(&rel, &text);
        assert!(diags.is_empty(), "{rule}/{stem}good.rs flagged: {diags:?}");
    }
}

#[test]
fn bad_fixtures_of_one_rule_are_invisible_to_all_others() {
    // Re-lint each bad fixture under every *other* rule's directory name:
    // the offending constructs sit outside that rule's scope, so nothing
    // (except engine-level escape hygiene) may fire.
    for &(rule, stem, _) in PAIRS {
        let (_, text) = fixture(rule, &format!("{stem}bad"));
        for other in rule_names() {
            if other == rule || other == "hygiene" {
                // Escape comments in a fixture still get engine-level
                // hygiene treatment under any path; skip that pairing.
                continue;
            }
            let rel = format!("crates/lint/tests/fixtures/{other}/transplant.rs");
            for d in lint_source(&rel, &text) {
                assert!(
                    d.rule == other || d.rule == "hygiene",
                    "{rule}/{stem}bad.rs transplanted into {other}/ fired {d}"
                );
            }
        }
    }
}

/// Deliberately gnarly inputs: keywords, unterminated strings and block
/// comments, raw/byte strings, lifetimes vs chars, unicode, NUL.
const FRAGMENTS: &[&str] = &[
    "fn",
    "main",
    "x1",
    "_y",
    "Struct",
    "r#match",
    "self",
    " ",
    "\t",
    "\n",
    "\r\n",
    "0",
    "42",
    "0x_ff",
    "1_000u64",
    "3.14",
    "1e9",
    "\"str\"",
    "\"unterminated",
    "\"esc\\\"q\"",
    "'c'",
    "'\\n'",
    "'a",
    "'static",
    "// line comment",
    "//",
    "/* block */",
    "/* open",
    "/* nested /* deep */ */",
    "::",
    ";",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    "=>",
    "->",
    "#",
    "!",
    "&&",
    "||",
    "b\"bytes\"",
    "r\"raw\"",
    "é",
    "λ",
    "→",
    "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer is total and lossless on concatenations of hostile
    /// fragments, and the whole lint pipeline survives them.
    #[test]
    fn lexer_round_trips_token_soup(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let toks = gfd_lint::lexer::lex(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert_eq!(rebuilt, src.clone());
        // Line numbers never go backwards.
        prop_assert!(toks.windows(2).all(|w| w[0].line <= w[1].line));
        // And the full rule pipeline is panic-free on the soup.
        let _ = lint_source("crates/core/src/soup.rs", &src);
    }

    /// Arbitrary (lossily-decoded) byte soup also round-trips.
    #[test]
    fn lexer_round_trips_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255u8, 0..96)
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let toks = gfd_lint::lexer::lex(&src);
        let rebuilt: String = toks.iter().map(|t| t.text).collect();
        prop_assert_eq!(rebuilt, src);
    }
}
