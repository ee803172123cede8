//! No-panic properties for every parser that reads outside bytes: graph
//! text (`io::from_text`), rule text (`parse_rules`), extended rule text
//! (`parse_xrules`), checkpoints (`Checkpoint::from_text`, read by
//! `--resume`) and fault specs (`FaultConfig::parse`).
//!
//! Each parser is fed two kinds of hostile input: token soup drawn from
//! its own grammar's words mixed with hostile fragments (numbers just past
//! each id width, huge counts, stray punctuation, multi-byte and NUL
//! characters), and a valid text with one to four token-level mutations
//! (replace, splice, delete, duplicate, swap, truncate). Every input must
//! come back as `Ok` or `Err`; a panic or an abort fails the test.

use std::sync::Arc;

use gfd_core::DiscoveredGfd;
use gfd_extended::parse_xrules;
use gfd_graph::io::{from_text, to_text};
use gfd_graph::{AttrId, GraphBuilder, Interner, LabelId, NodeId, SymbolId, Value};
use gfd_logic::{parse_rules, Gfd, Literal, Rhs};
use gfd_parallel::fault::FrontierNode;
use gfd_parallel::{Checkpoint, FaultConfig};
use gfd_pattern::{MatchSet, PEdge, PLabel, Pattern};
use proptest::prelude::*;

/// Fragments no parser should trust: values just past the `u16`, `u32`
/// and `u64` limits, a count whose reservation would abort, signs, empty
/// and escape fragments, punctuation of every grammar, and non-ASCII.
const HOSTILE: &[&str] = &[
    "0",
    "1",
    "-1",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1000000000000000000",
    "",
    "%",
    "%z",
    "%4",
    "=",
    ".",
    ":",
    ",",
    ";",
    "@",
    "*",
    "\"",
    "(",
    ")",
    "[",
    "]",
    "->",
    "x",
    "x0",
    "x9",
    "x4294967296",
    "x18446744073709551616",
    "l4294967296",
    "s4294967296",
    "é",
    "∅",
    "\u{0}",
];

/// Separators between soup words: none, blanks, newlines, commas.
const SEPS: &[&str] = &["", " ", "  ", "\n", "\t", ", "];

const GRAPH_WORDS: &[&str] = &[
    "n", "e", "#", "person", "product", "a=1", "b=x", "c=-3", "k=%20v", "a=", "=b", "2", "3",
];

const RULE_WORDS: &[&str] = &[
    "Q[",
    "]",
    "(",
    ")",
    "x0:person*",
    "x1:product",
    "x2:_",
    "x0-create->x1",
    "x1-_->x0",
    "x0.type=\"film\"",
    "x1.age=34",
    "x0.name=x1.name",
    "x0.a=x0.a",
    "∅",
    "true",
    "false",
    "∧",
    "&",
];

const XRULE_WORDS: &[&str] = &[
    "Q[",
    "]",
    "(",
    ")",
    "x0:person*",
    "x1:person",
    "x0-parent->x1",
    "x1.birth>=x0.birth+12",
    "x0.age<18",
    "x0.name!=\"a\"",
    "x1.b<=x0.b-3",
    "x0.c>x1.c",
    "∅",
    "false",
    "∧",
    "+",
    "-",
];

const CHECKPOINT_WORDS: &[&str] = &[
    "gfd-checkpoint",
    "2",
    "graph",
    "cfg",
    "level",
    "counters",
    "hspawn",
    "work",
    "rules",
    "rule",
    "p",
    "w",
    "l0",
    "lhs",
    "rhs",
    "f",
    "r",
    "c",
    "v",
    "s0",
    "i-5",
    "negatives",
    "frontier",
    "node",
    "covered",
    "cov",
    "row",
    "end",
];

const FAULT_WORDS: &[&str] = &[
    "panic@",
    "drop@",
    "slow@",
    "crash@",
    "1.0",
    "2.3",
    ".w1",
    ":50",
    ":2",
    "w",
    "panic@1.0",
];

/// Token soup: words of `vocab` or [`HOSTILE`], each followed by a
/// separator.
fn soup(vocab: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec((0..vocab.len() + HOSTILE.len(), 0..SEPS.len()), 0..48).prop_map(
        move |picks| {
            picks
                .iter()
                .map(|&(w, s)| {
                    let word = vocab
                        .get(w)
                        .copied()
                        .unwrap_or_else(|| HOSTILE[w - vocab.len()]);
                    format!("{word}{}", SEPS[s])
                })
                .collect()
        },
    )
}

/// One token-level edit of a valid text; positions are taken modulo the
/// number of tokens.
#[derive(Clone, Debug)]
enum Mutation {
    /// Replace a token with a hostile fragment, keeping its separator.
    Replace(usize, usize),
    /// Append a hostile fragment to a token (`l2` becomes `l24294967296`).
    Splice(usize, usize),
    Delete(usize),
    Duplicate(usize),
    Swap(usize, usize),
    /// Drop every token from this one on.
    Truncate(usize),
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    let any = 0usize..4096;
    let hostile = 0..HOSTILE.len();
    prop::collection::vec(
        prop_oneof![
            (any.clone(), hostile.clone()).prop_map(|(k, h)| Mutation::Replace(k, h)),
            (any.clone(), hostile).prop_map(|(k, h)| Mutation::Splice(k, h)),
            any.clone().prop_map(Mutation::Delete),
            any.clone().prop_map(Mutation::Duplicate),
            (any.clone(), any.clone()).prop_map(|(a, b)| Mutation::Swap(a, b)),
            any.prop_map(Mutation::Truncate),
        ],
        1..5,
    )
}

/// Applies `muts` to `text`, whose tokens are its whitespace-separated
/// words, each kept with the whitespace character that ends it.
fn mutate(text: &str, muts: &[Mutation]) -> String {
    let mut toks: Vec<String> = text
        .split_inclusive(char::is_whitespace)
        .map(str::to_owned)
        .collect();
    for m in muts {
        let n = toks.len();
        if n == 0 {
            break;
        }
        match *m {
            Mutation::Replace(k, h) => {
                let tok = &mut toks[k % n];
                let cut = tok.trim_end().len();
                tok.replace_range(..cut, HOSTILE[h]);
            }
            Mutation::Splice(k, h) => {
                let tok = &mut toks[k % n];
                let cut = tok.trim_end().len();
                tok.insert_str(cut, HOSTILE[h]);
            }
            Mutation::Delete(k) => {
                toks.remove(k % n);
            }
            Mutation::Duplicate(k) => {
                let tok = toks[k % n].clone();
                toks.insert(k % n, tok);
            }
            Mutation::Swap(a, b) => toks.swap(a % n, b % n),
            Mutation::Truncate(k) => toks.truncate(k % n),
        }
    }
    toks.concat()
}

/// A valid graph text: escaped labels and values, ints and strings.
fn graph_text() -> String {
    let mut b = GraphBuilder::new();
    let x = b.add_node("person");
    let y = b.add_node("product");
    let z = b.add_node("pro duct");
    b.set_attr(x, "name", "John Winter");
    b.set_attr(x, "age", 42i64);
    b.set_attr(y, "type", "film=good");
    b.set_attr(z, "k", "%");
    b.add_edge(x, y, "create");
    b.add_edge(y, z, "is a");
    b.add_edge(z, x, "create");
    to_text(&b.build())
}

const RULES: &str = "\
# mined rules
Q[x0:person*, x1:product; x0-create->x1](x1.type=\"film\" -> x0.type=\"producer\")
Q[x0:person*, x1:person; x0-parent->x1, x1-parent->x0](∅ -> false)
Q[x0:_, x1:person*; x1-create->x0](x0.a=x1.b ∧ x0.n=3 -> x1.b=\"q\")
";

const XRULES: &str = "\
# gfd extended rules v1
Q[x0:person*, x1:person; x0-parent->x1](∅ -> x1.birth>=x0.birth+12)
Q[x0:person*](x0.age<18 ∧ x0.name!=\"a\" -> false)
Q[x0:person*, x1:_; x0-_->x1](x1.b<=x0.b-3 -> x0.c>x1.c)
";

const FAULTS: &str = "panic@1.0, drop@2.3, slow@4.1:50, crash@3.w1:2";

/// A valid checkpoint text: two rules, a negative pattern and one
/// frontier node with covered signatures and two match rows.
fn checkpoint_text() -> String {
    let pattern = Pattern::new(
        vec![PLabel::Is(LabelId(2)), PLabel::Wildcard],
        vec![PEdge {
            src: 0,
            dst: 1,
            label: PLabel::Is(LabelId(5)),
        }],
        0,
    );
    let lit = Literal::constant(0, AttrId(3), Value::Str(SymbolId(9)));
    let vv = Literal::var_var(0, AttrId(1), 1, AttrId(0));
    let mut matches = MatchSet::new(2);
    matches.push(&[NodeId(4), NodeId(7)]);
    matches.push(&[NodeId(1), NodeId(0)]);
    let rule = |gfd, support| DiscoveredGfd {
        gfd,
        support,
        level: 1,
        confidence: 0.875,
    };
    let mut ck = Checkpoint {
        graph_nodes: 30,
        graph_edges: 41,
        cfg_fingerprint: 0xdead_beef,
        level: 2,
        rules: vec![
            rule(Gfd::new(pattern.clone(), vec![lit], Rhs::Lit(vv)), 5),
            rule(
                Gfd::new(
                    pattern.clone(),
                    vec![],
                    Rhs::Lit(Literal::constant(1, AttrId(2), Value::Int(-5))),
                ),
                3,
            ),
        ],
        negative_patterns: vec![pattern.clone()],
        frontier: vec![FrontierNode {
            pattern,
            support: 2,
            covered: vec![(vec![lit], vv), (vec![], lit)],
            matches: Arc::new(matches),
        }],
        ..Checkpoint::default()
    };
    ck.stats.patterns_spawned = 9;
    ck.stats.spawning_work = 123;
    ck.to_text()
}

/// The mutation seeds are valid: each parses as it stands.
#[test]
fn seed_texts_parse() {
    assert!(from_text(&graph_text()).is_ok());
    assert_eq!(parse_rules(RULES, &Interner::new()).map(|r| r.len()), Ok(3));
    assert_eq!(
        parse_xrules(XRULES, &Interner::new()).map(|r| r.len()),
        Ok(3)
    );
    assert!(Checkpoint::from_text(&checkpoint_text()).is_ok());
    assert!(FaultConfig::parse(FAULTS).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn graph_text_parser_never_panics(text in soup(GRAPH_WORDS), muts in mutations()) {
        let _ = from_text(&text);
        let _ = from_text(&mutate(&graph_text(), &muts));
    }

    #[test]
    fn rule_parser_never_panics(text in soup(RULE_WORDS), muts in mutations()) {
        let _ = parse_rules(&text, &Interner::new());
        let _ = parse_rules(&mutate(RULES, &muts), &Interner::new());
    }

    #[test]
    fn extended_rule_parser_never_panics(text in soup(XRULE_WORDS), muts in mutations()) {
        let _ = parse_xrules(&text, &Interner::new());
        let _ = parse_xrules(&mutate(XRULES, &muts), &Interner::new());
    }

    /// Corrupt snapshots are refused with `FaultError::Checkpoint`; one
    /// that decodes re-encodes to a text that decodes to the same text.
    #[test]
    fn checkpoint_decoder_never_panics(text in soup(CHECKPOINT_WORDS), muts in mutations()) {
        let _ = Checkpoint::from_text(&text);
        if let Ok(ck) = Checkpoint::from_text(&mutate(&checkpoint_text(), &muts)) {
            let again = Checkpoint::from_text(&ck.to_text());
            prop_assert_eq!(again.map(|c| c.to_text()).ok(), Some(ck.to_text()));
        }
    }

    #[test]
    fn fault_spec_parser_never_panics(text in soup(FAULT_WORDS), muts in mutations()) {
        let _ = FaultConfig::parse(&text);
        let _ = FaultConfig::parse(&mutate(FAULTS, &muts));
    }
}
