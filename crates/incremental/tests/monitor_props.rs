//! Property tests: the incrementally-maintained violation set must equal
//! a from-scratch validation of the current graph after every batch, for
//! arbitrary update sequences over base and extended rules, and the
//! monitor's graph must equal a from-scratch replay of the batches. Mixed
//! batches take the rebuild path; attribute-only batches take the
//! in-place path.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use gfd_extended::{CmpOp, Term, XGfd, XLiteral, XRhs};
use gfd_graph::{AttrId, Edge, Graph, GraphBuilder, LabelId, NodeId, Value};
use gfd_incremental::{GraphState, MonitorRule, Update, UpdateBatch, ViolationMonitor};
use gfd_logic::{Gfd, Literal, Rhs};
use gfd_pattern::{for_each_match, End, Extension, PLabel, Pattern};
use proptest::prelude::*;

const NODES: usize = 8;

/// Base graph: `person` nodes with integer attribute `v` plus string
/// attribute `t`, wired by `rel` edges.
fn base_graph(vals: &[i64], edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new();
    // Intern every name the rules reference, independent of the random
    // draw (an edge-free graph would otherwise never see "rel").
    let _ = b.interner().label("person");
    let _ = b.interner().label("rel");
    let _ = b.interner().attr("v");
    let _ = b.interner().attr("t");
    let _ = b.interner().symbol("even");
    for &v in vals {
        let n = b.add_node("person");
        b.set_attr(n, "v", v);
        if v % 2 == 0 {
            b.set_attr(n, "t", "even");
        }
    }
    for &(s, d) in edges {
        b.add_edge(
            NodeId::from_index(s % NODES),
            NodeId::from_index(d % NODES),
            "rel",
        );
    }
    b.build()
}

/// The monitored rule set:
/// - on the single-edge `person-rel->person` pattern, pivoted at the
///   source: one base equality rule, one negative rule and one extended
///   order rule; and the equality rule again pivoted at the destination,
///   so stored violations are keyed by a pivot image that is not the
///   match's first node;
/// - on the two-edge path `person-rel->person-rel->person`: an equality
///   rule pivoted at the source whose premise reads the far variable, so
///   a write two hops from the pivot must be anchored there; and a
///   literal-free negative rule pivoted in the middle, whose verdicts
///   move only with the topology;
/// - a single-node wildcard rule and a disconnected two-node rule.
fn rules(g: &Graph) -> Vec<MonitorRule> {
    let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
    let rel = PLabel::Is(g.interner().lookup_label("rel").unwrap());
    let v = g.interner().lookup_attr("v").unwrap();
    let t = g.interner().lookup_attr("t").unwrap();
    let even = Value::Str(g.interner().symbol("even"));
    let q = Pattern::edge(person, rel, person);
    let path = q.extend(&Extension {
        src: End::Var(1),
        dst: End::New(person),
        label: rel,
    });
    // Related nodes with t="even" on the source must agree on v.
    let agree = |q: Pattern| {
        Gfd::new(
            q,
            vec![Literal::constant(0, t, even)],
            Rhs::Lit(Literal::var_var(0, v, 1, v)),
        )
    };
    vec![
        agree(q.clone()).into(),
        agree(q.with_pivot(1)).into(),
        // No self-loop-ish pair with both v = 3 (negative rule).
        Gfd::new(
            q.clone(),
            vec![
                Literal::constant(0, v, Value::Int(3)),
                Literal::constant(1, v, Value::Int(3)),
            ],
            Rhs::False,
        )
        .into(),
        // Extended: destination's v within +2 of source's.
        XGfd::new(
            q,
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(1, v),
                CmpOp::Le,
                Term::new(0, v),
                2,
            )),
        )
        .into(),
        // Two-hop path: x2.t="even" → x0.v = x2.v.
        Gfd::new(
            path.clone(),
            vec![Literal::constant(2, t, even)],
            Rhs::Lit(Literal::var_var(0, v, 2, v)),
        )
        .into(),
        // No two-hop path at all, pivoted in the middle.
        Gfd::new(path.with_pivot(1), vec![], Rhs::False).into(),
        // Any node with t="even" has v = 0.
        Gfd::new(
            Pattern::single(PLabel::Wildcard),
            vec![Literal::constant(0, t, even)],
            Rhs::Lit(Literal::constant(0, v, Value::Int(0))),
        )
        .into(),
        // Two persons, unconnected: equal v implies equal t.
        Gfd::new(
            Pattern::new(vec![person, person], vec![], 0),
            vec![Literal::var_var(0, v, 1, v)],
            Rhs::Lit(Literal::var_var(0, t, 1, t)),
        )
        .into(),
    ]
}

/// From-scratch violation sets of every rule on `g`.
fn oracle(g: &Graph, rules: &[MonitorRule]) -> Vec<BTreeSet<Vec<NodeId>>> {
    rules
        .iter()
        .map(|r| {
            let mut set = BTreeSet::new();
            let _ = for_each_match(r.pattern(), g, |m| {
                if !r.match_satisfies(m, g) {
                    set.insert(m.to_vec());
                }
                ControlFlow::Continue(())
            });
            set
        })
        .collect()
}

/// Proto-ops over indexes; resolved to Updates against the current size.
#[derive(Clone, Debug)]
enum ProtoOp {
    AddNode,
    AddEdge(usize, usize),
    RemoveEdge(usize, usize),
    SetV(usize, i64),
    SetT(usize),
    RemoveV(usize),
    RemoveT(usize),
}

fn op_strategy() -> impl Strategy<Value = ProtoOp> {
    prop_oneof![
        Just(ProtoOp::AddNode),
        (0usize..16, 0usize..16).prop_map(|(a, b)| ProtoOp::AddEdge(a, b)),
        (0usize..16, 0usize..16).prop_map(|(a, b)| ProtoOp::RemoveEdge(a, b)),
        (0usize..16, 0i64..5).prop_map(|(n, v)| ProtoOp::SetV(n, v)),
        (0usize..16).prop_map(ProtoOp::SetT),
        (0usize..16).prop_map(ProtoOp::RemoveV),
        (0usize..16).prop_map(ProtoOp::RemoveT),
    ]
}

/// Attribute-only batches: every op sets or removes an attribute.
fn attr_op_strategy() -> impl Strategy<Value = ProtoOp> {
    prop_oneof![
        (0usize..16, 0i64..5).prop_map(|(n, v)| ProtoOp::SetV(n, v)),
        (0usize..16).prop_map(ProtoOp::SetT),
        (0usize..16).prop_map(ProtoOp::RemoveV),
        (0usize..16).prop_map(ProtoOp::RemoveT),
    ]
}

/// Per node: label and attribute tuple; then the edge list.
type GraphContent = (Vec<(LabelId, Vec<(AttrId, Value)>)>, Vec<Edge>);

fn content(g: &Graph) -> GraphContent {
    let nodes = g
        .nodes()
        .map(|n| (g.node_label(n), g.attrs(n).to_vec()))
        .collect();
    (nodes, g.edges().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monitor_matches_full_revalidation(
        vals in prop::collection::vec(0i64..5, NODES..=NODES),
        edges in prop::collection::vec((0usize..NODES, 0usize..NODES), 0..14),
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..5), 1..4),
    ) {
        check_monitor(&vals, &edges, &batches)?;
    }

    #[test]
    fn attribute_batches_match_full_revalidation(
        vals in prop::collection::vec(0i64..5, NODES..=NODES),
        edges in prop::collection::vec((0usize..NODES, 0usize..NODES), 0..14),
        batches in prop::collection::vec(
            prop::collection::vec(attr_op_strategy(), 1..5), 1..4),
    ) {
        check_monitor(&vals, &edges, &batches)?;
    }
}

/// Applies `batches` to a monitor over the base graph and checks, after
/// every batch, the violation sets and deltas against a from-scratch
/// validation and the graph against a from-scratch replay.
fn check_monitor(
    vals: &[i64],
    edges: &[(usize, usize)],
    batches: &[Vec<ProtoOp>],
) -> TestCaseResult {
    let g = base_graph(vals, edges);
    let person = g.interner().lookup_label("person").unwrap();
    let rel = g.interner().lookup_label("rel").unwrap();
    let v = g.interner().lookup_attr("v").unwrap();
    let t = g.interner().lookup_attr("t").unwrap();
    let even = Value::Str(g.interner().lookup_symbol("even").unwrap());
    let rs = rules(&g);
    let mut mon = ViolationMonitor::new(&g, rs.clone());

    // Initial state agrees with the oracle.
    let want = oracle(mon.graph(), &rs);
    for (i, set) in want.iter().enumerate() {
        let got: BTreeSet<Vec<NodeId>> = mon.violations(i).map(|m| m.to_vec()).collect();
        prop_assert_eq!(&got, set, "initial rule {}", i);
    }

    let mut applied: Vec<UpdateBatch> = Vec::new();
    for protos in batches {
        let mut batch = UpdateBatch::new();
        let n0 = mon.graph().node_count();
        for p in protos {
            // Resolve indexes modulo the node count *including* nodes
            // added earlier in this batch.
            let cur = n0
                + batch
                    .ops()
                    .iter()
                    .filter(|u| matches!(u, Update::AddNode { .. }))
                    .count();
            let nid = |i: usize| NodeId::from_index(i % cur);
            match *p {
                ProtoOp::AddNode => {
                    batch.add_node(n0, person);
                }
                ProtoOp::AddEdge(a, b) => {
                    batch.add_edge(nid(a), nid(b), rel);
                }
                ProtoOp::RemoveEdge(a, b) => {
                    batch.remove_edge(nid(a), nid(b), rel);
                }
                ProtoOp::SetV(n, val) => {
                    batch.set_attr(nid(n), v, Value::Int(val));
                }
                ProtoOp::SetT(n) => {
                    batch.set_attr(nid(n), t, even);
                }
                ProtoOp::RemoveV(n) => {
                    batch.remove_attr(nid(n), v);
                }
                ProtoOp::RemoveT(n) => {
                    batch.remove_attr(nid(n), t);
                }
            }
        }
        let before: Vec<BTreeSet<Vec<NodeId>>> = (0..rs.len())
            .map(|i| mon.violations(i).map(|m| m.to_vec()).collect())
            .collect();
        let delta = mon.apply(&batch);
        applied.push(batch);
        let mut replay = GraphState::from_graph(&g);
        for b in &applied {
            replay.apply_batch(b);
        }
        prop_assert_eq!(content(mon.graph()), content(&replay.freeze()));
        let want = oracle(mon.graph(), &rs);
        for (i, set) in want.iter().enumerate() {
            let got: BTreeSet<Vec<NodeId>> = mon.violations(i).map(|m| m.to_vec()).collect();
            prop_assert_eq!(&got, set, "after batch, rule {}", i);
            // The delta is consistent with the before/after sets.
            let added: BTreeSet<Vec<NodeId>> = delta.per_rule[i].added.iter().cloned().collect();
            let removed: BTreeSet<Vec<NodeId>> =
                delta.per_rule[i].removed.iter().cloned().collect();
            // Deltas list each match once, in match order.
            prop_assert!(delta.per_rule[i].added.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(delta.per_rule[i].removed.windows(2).all(|w| w[0] < w[1]));
            let expect_added: BTreeSet<Vec<NodeId>> = set.difference(&before[i]).cloned().collect();
            let expect_removed: BTreeSet<Vec<NodeId>> =
                before[i].difference(set).cloned().collect();
            prop_assert_eq!(&added, &expect_added, "delta.added, rule {}", i);
            prop_assert_eq!(&removed, &expect_removed, "delta.removed, rule {}", i);
        }
    }
    Ok(())
}

/// `AttrId` sanity: the fixture interner must hand out the ids the rules
/// were built with (guards against silent interner divergence).
#[test]
fn fixture_ids_are_stable() {
    let g = base_graph(&[0; NODES], &[]);
    assert!(g.interner().lookup_attr("v").unwrap() < AttrId(10));
    assert!(g.interner().lookup_label("person").is_some());
    assert!(g.interner().lookup_label("rel").is_some());
}
