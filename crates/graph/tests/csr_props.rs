//! Property suite for the structure-of-arrays frozen graph.
//!
//! Three laws of the scale refactor, pinned on random inputs:
//!
//! 1. **CSR iterator equivalence** — every adjacency view of the frozen
//!    SoA CSR (`out_edges`/`in_edges`, neighbour slices, labelled
//!    sub-ranges, degrees, `edges_between`, label buckets, last-wins
//!    attributes) agrees with a naive edge-list model recomputed from the
//!    raw blueprint.
//! 2. **Chunk-split invariance** — feeding the text serialisation through
//!    [`ChunkedParser`] under *any* split of the input produces a graph
//!    bit-identical to the one-shot parse, including splits inside
//!    multi-byte UTF-8 attribute values (at char granularity — the byte
//!    tail is the loader's job) and inside `%`-escapes.
//! 3. **Round-trip** — `from_text(to_text(g))` re-serialises identically.
//! 4. **In-place attribute edits** — any sequence of set/remove edits on a
//!    frozen graph leaves the attributes a fresh build of the final
//!    attributes has, keeps every tuple sorted, and moves no topology.
//! 5. **Clones share topology** — a clone holds the original's topology
//!    allocation, and attribute edits on the clone leave the original's
//!    tuples as they were while the clone equals a fresh build.

use std::collections::BTreeMap;
use std::sync::Arc;

use gfd_graph::io::{from_text, to_text, ChunkedParser};
use gfd_graph::{AttrId, Graph, GraphBuilder, NodeId, Value};
use proptest::prelude::*;

const NODE_LABELS: usize = 4;
const EDGE_LABELS: usize = 3;
const ATTRS: usize = 3;

/// Raw blueprint: the naive model every CSR view is checked against.
#[derive(Clone, Debug)]
struct Proto {
    nodes: Vec<usize>,
    /// `(node, attr, value)` assignments in write order (last wins).
    attrs: Vec<(usize, usize, usize)>,
    edges: Vec<(usize, usize, usize)>,
}

fn proto_strategy() -> impl Strategy<Value = Proto> {
    (1usize..=8).prop_flat_map(|n| {
        (
            prop::collection::vec(0usize..NODE_LABELS, n..=n),
            prop::collection::vec((0usize..n, 0usize..ATTRS, 0usize..5), 0..=16),
            prop::collection::vec((0usize..n, 0usize..n, 0usize..EDGE_LABELS), 0..=20),
        )
            .prop_map(|(nodes, attrs, edges)| Proto {
                nodes,
                attrs,
                edges,
            })
    })
}

/// Values deliberately multi-byte ("β2" etc.) so serialisation and the
/// chunked parser see real UTF-8, and `v 0` contains a space so escapes
/// appear in the text format.
fn value_name(v: usize) -> String {
    if v == 0 {
        "v 0".to_string()
    } else {
        format!("β{v}")
    }
}

/// One in-place attribute edit; node indexes are taken modulo the node
/// count, and attribute `a{ATTRS}` is one the builder never wrote.
#[derive(Clone, Debug)]
enum Edit {
    Set(usize, usize, usize),
    Remove(usize, usize),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..8, 0usize..=ATTRS, 0usize..5).prop_map(|(n, a, v)| Edit::Set(n, a, v)),
        (0usize..8, 0usize..=ATTRS).prop_map(|(n, a)| Edit::Remove(n, a)),
    ]
}

fn build(p: &Proto) -> Graph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = p
        .nodes
        .iter()
        .map(|&l| b.add_node(&format!("L{l}")))
        .collect();
    for &(n, a, v) in &p.attrs {
        b.set_attr(ids[n], &format!("a{a}"), value_name(v).as_str());
    }
    for &(s, d, l) in &p.edges {
        b.add_edge(ids[s], ids[d], &format!("r{l}"));
    }
    b.build()
}

/// Applies `edits` to `g`, a graph built from `p`, and returns a fresh
/// build of the final attributes: the builder's last-wins log, then the
/// edits.
fn apply_edits(g: &mut Graph, p: &Proto, edits: &[Edit]) -> Graph {
    let interner = Arc::clone(g.interner());
    let attr = |a: usize| interner.attr(&format!("a{a}"));
    let mut model: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for &(n, a, v) in &p.attrs {
        model.insert((n, a), v);
    }
    let n = p.nodes.len();
    for e in edits {
        match *e {
            Edit::Set(x, a, v) => {
                let value = Value::Str(interner.symbol(&value_name(v)));
                g.set_attr_by_id(NodeId::from_index(x % n), attr(a), value);
                model.insert((x % n, a), v);
            }
            Edit::Remove(x, a) => {
                g.remove_attr_by_id(NodeId::from_index(x % n), attr(a));
                model.remove(&(x % n, a));
            }
        }
    }
    let mut b = GraphBuilder::with_interner(Arc::clone(&interner));
    for &l in &p.nodes {
        b.add_node(&format!("L{l}"));
    }
    for (&(x, a), &v) in &model {
        b.set_attr(
            NodeId::from_index(x),
            &format!("a{a}"),
            value_name(v).as_str(),
        );
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Law 1: every CSR adjacency view equals the naive edge-list model.
    #[test]
    fn csr_views_match_naive_model(p in proto_strategy()) {
        let g = build(&p);
        let interner = g.interner();
        prop_assert_eq!(g.node_count(), p.nodes.len());
        prop_assert_eq!(g.edge_count(), p.edges.len());
        prop_assert_eq!(g.size(), p.nodes.len() + p.edges.len());

        for (ni, &nl) in p.nodes.iter().enumerate() {
            let n = NodeId::from_index(ni);
            prop_assert_eq!(interner.label_name(g.node_label(n)), format!("L{nl}"));

            // Out/in edge sets (as multisets of (src, dst, label) triples).
            let mut naive_out: Vec<(usize, usize, usize)> = p
                .edges
                .iter()
                .filter(|&&(s, _, _)| s == ni)
                .copied()
                .collect();
            let mut naive_in: Vec<(usize, usize, usize)> = p
                .edges
                .iter()
                .filter(|&&(_, d, _)| d == ni)
                .copied()
                .collect();
            naive_out.sort_unstable();
            naive_in.sort_unstable();
            let resolve = |eids: &[gfd_graph::EdgeId]| -> Vec<(usize, usize, usize)> {
                let mut v: Vec<_> = eids
                    .iter()
                    .map(|&e| {
                        let e = g.edge(e);
                        let l: usize = interner.label_name(e.label)[1..].parse().unwrap();
                        (e.src.index(), e.dst.index(), l)
                    })
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(resolve(g.out_edges(n)), naive_out.clone());
            prop_assert_eq!(resolve(g.in_edges(n)), naive_in.clone());
            prop_assert_eq!(g.out_degree(n), naive_out.len());
            prop_assert_eq!(g.in_degree(n), naive_in.len());
            prop_assert_eq!(g.degree(n), naive_out.len() + naive_in.len());

            // Neighbour slices are positionally aligned with edge slices.
            for (k, &e) in g.out_edges(n).iter().enumerate() {
                prop_assert_eq!(g.out_nbrs(n)[k], g.edge(e).dst);
            }
            for (k, &e) in g.in_edges(n).iter().enumerate() {
                prop_assert_eq!(g.in_nbrs(n)[k], g.edge(e).src);
            }

            // Labelled sub-ranges are exactly the label-filtered views.
            for l in 0..EDGE_LABELS {
                let Some(lid) = interner.lookup_label(&format!("r{l}")) else {
                    continue;
                };
                let filt_out: Vec<_> = naive_out
                    .iter()
                    .filter(|&&(_, _, el)| el == l)
                    .copied()
                    .collect();
                prop_assert_eq!(resolve(g.out_edges_labeled(n, lid)), filt_out.clone());
                prop_assert_eq!(g.out_label_degree(n, lid), filt_out.len());
                let filt_in: Vec<_> = naive_in
                    .iter()
                    .filter(|&&(_, _, el)| el == l)
                    .copied()
                    .collect();
                prop_assert_eq!(resolve(g.in_edges_labeled(n, lid)), filt_in.clone());
                prop_assert_eq!(g.in_label_degree(n, lid), filt_in.len());
                // The fused (edges, nbrs) view agrees with itself.
                let (eids, nbrs) = g.out_adj_labeled(n, lid);
                prop_assert_eq!(eids.len(), nbrs.len());
                for (k, &e) in eids.iter().enumerate() {
                    prop_assert_eq!(nbrs[k], g.edge(e).dst);
                }
            }

            // Attributes resolve last-wins from the raw write log.
            let mut want: std::collections::BTreeMap<usize, usize> = Default::default();
            for &(an, a, v) in &p.attrs {
                if an == ni {
                    want.insert(a, v);
                }
            }
            let got: std::collections::BTreeMap<usize, String> = g
                .attrs(n)
                .iter()
                .map(|(a, v)| {
                    let ai: usize = interner.attr_name(*a)[1..].parse().unwrap();
                    (ai, v.display(interner))
                })
                .collect();
            prop_assert_eq!(got.len(), want.len());
            for (a, v) in want {
                prop_assert_eq!(got.get(&a), Some(&value_name(v)));
            }
        }

        // edges_between is the (src, dst)-filtered multiset.
        for s in 0..p.nodes.len() {
            for d in 0..p.nodes.len() {
                let naive = p.edges.iter().filter(|&&(a, b, _)| a == s && b == d).count();
                prop_assert_eq!(
                    g.edges_between(NodeId::from_index(s), NodeId::from_index(d)).len(),
                    naive
                );
            }
        }

        // Label buckets partition the node set.
        let mut seen = 0usize;
        for l in 0..NODE_LABELS {
            if let Some(lid) = interner.lookup_label(&format!("L{l}")) {
                let bucket = g.nodes_with_label(lid);
                for &n in bucket {
                    prop_assert_eq!(p.nodes[n.index()], l);
                }
                seen += bucket.len();
            }
        }
        prop_assert_eq!(seen, p.nodes.len());
    }

    /// Law 2: any char-boundary split of the text feeds to the same graph.
    #[test]
    fn chunked_parse_is_split_invariant(
        p in proto_strategy(),
        cuts in prop::collection::vec(0usize..10_000, 0..=6),
    ) {
        let g = build(&p);
        let text = to_text(&g);
        let want = to_text(&from_text(&text).expect("one-shot parse"));

        // Turn the random per-mille fractions into char-boundary offsets.
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let mut offsets: Vec<usize> = cuts
            .iter()
            .map(|&f| boundaries[f * boundaries.len() / 10_000])
            .collect();
        offsets.push(0);
        offsets.push(text.len());
        offsets.sort_unstable();
        offsets.dedup();

        let mut parser = ChunkedParser::new();
        for w in offsets.windows(2) {
            parser.feed(&text[w[0]..w[1]]).expect("chunk feed");
        }
        let split = parser.finish().expect("chunked parse");
        prop_assert_eq!(to_text(&split), want);
    }

    /// Law 3: one round-trip preserves content exactly (attribute *order*
    /// within a node may differ — it follows interner id assignment, which
    /// depends on first-appearance order — but not the attribute *set*),
    /// and a second round-trip is a bit-identical fixed point.
    #[test]
    fn text_round_trip(p in proto_strategy()) {
        let g = build(&p);
        let back = from_text(&to_text(&g)).expect("parse");
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());

        type NodeContent = Vec<Vec<(String, String)>>;
        type EdgeContent = Vec<(usize, usize, String)>;
        let content = |g: &Graph| -> (NodeContent, EdgeContent) {
            let i = g.interner();
            let nodes = g
                .nodes()
                .map(|n| {
                    let mut attrs: Vec<(String, String)> = g
                        .attrs(n)
                        .iter()
                        .map(|(a, v)| (i.attr_name(*a), v.display(i)))
                        .collect();
                    attrs.sort();
                    attrs.insert(0, ("label".into(), i.label_name(g.node_label(n))));
                    attrs
                })
                .collect();
            let edges = g
                .edges()
                .iter()
                .map(|e| (e.src.index(), e.dst.index(), i.label_name(e.label)))
                .collect();
            (nodes, edges)
        };
        prop_assert_eq!(content(&back), content(&g));

        let text = to_text(&back);
        let again = from_text(&text).expect("re-parse");
        prop_assert_eq!(to_text(&again), text);
    }

    /// Law 4: in-place attribute edits agree with the builder and leave
    /// every adjacency and label accessor as it was.
    #[test]
    fn in_place_attr_edits_match_the_builder(
        p in proto_strategy(),
        edits in prop::collection::vec(edit_strategy(), 0..=24),
    ) {
        let before = build(&p);
        let mut g = build(&p);
        let want = apply_edits(&mut g, &p, &edits);
        let interner = Arc::clone(g.interner());
        let attr = |a: usize| interner.attr(&format!("a{a}"));

        prop_assert_eq!(g.edges(), before.edges());
        for v in g.nodes() {
            prop_assert_eq!(g.attrs(v), want.attrs(v));
            prop_assert!(g.attrs(v).windows(2).all(|w| w[0].0 < w[1].0));
            for a in 0..=ATTRS {
                prop_assert_eq!(g.attr(v, attr(a)), want.attr(v, attr(a)));
            }

            prop_assert_eq!(g.node_label(v), before.node_label(v));
            prop_assert_eq!(g.out_edges(v), before.out_edges(v));
            prop_assert_eq!(g.in_edges(v), before.in_edges(v));
            prop_assert_eq!(g.out_nbrs(v), before.out_nbrs(v));
            prop_assert_eq!(g.in_nbrs(v), before.in_nbrs(v));
            prop_assert!(g.out_label_runs(v).eq(before.out_label_runs(v)));
            prop_assert!(g.in_label_runs(v).eq(before.in_label_runs(v)));
            for u in g.nodes() {
                prop_assert_eq!(g.edges_between_labeled(v, u), before.edges_between_labeled(v, u));
            }
        }
        for l in 0..NODE_LABELS {
            if let Some(lid) = interner.lookup_label(&format!("L{l}")) {
                prop_assert_eq!(g.nodes_with_label(lid), before.nodes_with_label(lid));
            }
        }
    }

    /// Law 5: a clone shares the original's topology allocation; edits on
    /// the clone touch only the clone's attributes, which equal a fresh
    /// build, and leave the original's tuples as they were.
    #[test]
    fn clones_share_topology_and_own_attributes(
        p in proto_strategy(),
        edits in prop::collection::vec(edit_strategy(), 0..=24),
    ) {
        let original = build(&p);
        let tuples: Vec<Vec<(AttrId, Value)>> =
            original.nodes().map(|v| original.attrs(v).to_vec()).collect();
        let mut g = original.clone();
        prop_assert_eq!(g.edges().as_ptr(), original.edges().as_ptr());
        let want = apply_edits(&mut g, &p, &edits);
        prop_assert_eq!(g.edges().as_ptr(), original.edges().as_ptr());
        for v in original.nodes() {
            prop_assert_eq!(original.attrs(v), tuples[v.index()].as_slice());
            prop_assert_eq!(g.attrs(v), want.attrs(v));
            prop_assert_eq!(g.out_nbrs(v).as_ptr(), original.out_nbrs(v).as_ptr());
            prop_assert_eq!(g.in_nbrs(v).as_ptr(), original.in_nbrs(v).as_ptr());
        }
    }
}
