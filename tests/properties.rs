//! Property-based invariants across crates (proptest).
//!
//! * the matcher agrees with a brute-force enumerator on random graphs;
//! * canonical codes are invariant under variable permutation;
//! * pivoted support is anti-monotone under pattern extension (Theorem 3);
//! * edge-cut fragment-local match unions equal global matching;
//! * the closure is idempotent and monotone;
//! * implication is reflexive and the cover always stays equivalent.

use std::ops::ControlFlow;

use gfd::prelude::*;
use proptest::prelude::*;

/// A small random multigraph: (#nodes, edges as (src, dst, label)).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (2usize..8).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0u8..3), 0..14),
        )
    })
}

fn build(n: usize, edges: &[(usize, usize, u8)]) -> Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("t{}", i % 3))).collect();
    for &(s, d, l) in edges {
        b.add_edge(nodes[s], nodes[d], &format!("r{l}"));
    }
    b.build()
}

/// Brute force: try every injective assignment of pattern vars to nodes.
fn brute_force_matches(q: &Pattern, g: &Graph) -> usize {
    let n = g.node_count();
    let k = q.node_count();
    let mut count = 0usize;
    let mut idx = vec![0usize; k];
    'outer: loop {
        // Check injectivity.
        let distinct = (0..k).all(|a| (0..a).all(|b| idx[a] != idx[b]));
        if distinct {
            let ok_nodes =
                (0..k).all(|v| q.node_label(v).admits(g.node_label(NodeId(idx[v] as u32))));
            let ok_edges = ok_nodes
                && (0..k).all(|a| {
                    (0..k).all(|b| {
                        let pes = q.edges_between(a, b);
                        if pes.is_empty() {
                            return true;
                        }
                        let ges = g.edges_between(NodeId(idx[a] as u32), NodeId(idx[b] as u32));
                        if ges.len() < pes.len() {
                            return false;
                        }
                        // Per-label demand + total (mirrors the matcher).
                        pes.iter().all(|&pe| match q.edges()[pe].label {
                            PLabel::Wildcard => true,
                            PLabel::Is(l) => {
                                let need = pes
                                    .iter()
                                    .filter(|&&x| q.edges()[x].label == PLabel::Is(l))
                                    .count();
                                let have = ges.iter().filter(|&&e| g.edge(e).label == l).count();
                                have >= need
                            }
                        })
                    })
                });
            if ok_edges {
                count += 1;
            }
        }
        // Next tuple.
        for pos in (0..k).rev() {
            idx[pos] += 1;
            if idx[pos] < n {
                continue 'outer;
            }
            idx[pos] = 0;
            if pos == 0 {
                break 'outer;
            }
        }
        if k == 0 {
            break;
        }
    }
    count
}

fn small_patterns(g: &Graph) -> Vec<Pattern> {
    let i = g.interner();
    let t0 = PLabel::Is(i.label("t0"));
    let t1 = PLabel::Is(i.label("t1"));
    let r0 = PLabel::Is(i.label("r0"));
    let r1 = PLabel::Is(i.label("r1"));
    vec![
        Pattern::single(t0),
        Pattern::edge(t0, r0, t1),
        Pattern::edge(PLabel::Wildcard, r1, PLabel::Wildcard),
        Pattern::edge(t0, PLabel::Wildcard, PLabel::Wildcard),
        Pattern::edge(t0, r0, t1).extend(&Extension {
            src: End::Var(1),
            dst: End::Var(0),
            label: r1,
        }),
        Pattern::edge(t0, r0, t0).extend(&Extension {
            src: End::Var(1),
            dst: End::New(PLabel::Wildcard),
            label: PLabel::Wildcard,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matcher_agrees_with_brute_force((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for q in small_patterns(&g) {
            let fast = gfd::pattern::count_matches(&q, &g);
            let slow = brute_force_matches(&q, &g);
            prop_assert_eq!(fast, slow, "pattern {:?}", q.display(g.interner()));
        }
    }

    #[test]
    fn incremental_join_agrees_with_scratch((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let i = g.interner();
        let q = Pattern::edge(
            PLabel::Is(i.label("t0")),
            PLabel::Is(i.label("r0")),
            PLabel::Wildcard,
        );
        let base = find_all(&q, &g);
        let ext = Extension {
            src: End::Var(1),
            dst: End::New(PLabel::Wildcard),
            label: PLabel::Is(i.label("r1")),
        };
        let inc = gfd::pattern::extend_matches(&q, &base, &ext, &g);
        let scratch = find_all(&q.extend(&ext), &g);
        prop_assert_eq!(inc.len(), scratch.len());
    }

    #[test]
    fn pattern_support_anti_monotone_under_extension((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let i = g.interner();
        let q = Pattern::edge(PLabel::Is(i.label("t0")), PLabel::Wildcard, PLabel::Wildcard);
        let big = q.extend(&Extension {
            src: End::Var(1),
            dst: End::New(PLabel::Wildcard),
            label: PLabel::Wildcard,
        });
        prop_assert!(pattern_support(&q, &g) >= pattern_support(&big, &g));
    }

    #[test]
    fn closure_is_idempotent_and_monotone(vals in proptest::collection::vec((0usize..3, 0u16..3, 0i64..4), 0..8)) {
        use gfd::logic::Closure;
        let lits: Vec<Literal> = vals
            .iter()
            .map(|&(v, a, c)| Literal::constant(v, gfd::graph::AttrId(a), Value::Int(c)))
            .collect();
        let c1 = Closure::of_literals(&lits);
        // Idempotent: re-adding changes nothing.
        let mut c2 = c1.clone();
        let mut changed = false;
        for l in &lits {
            changed |= c2.add(l);
        }
        prop_assert!(!changed);
        // Monotone: a conflicting subset keeps the superset conflicting.
        if c1.is_conflicting() {
            let mut bigger = lits.clone();
            bigger.push(Literal::constant(9, gfd::graph::AttrId(9), Value::Int(9)));
            prop_assert!(Closure::of_literals(&bigger).is_conflicting());
        }
        // Every added constant literal holds afterwards (absent conflict).
        if !c1.is_conflicting() {
            for l in &lits {
                prop_assert!(c1.holds(l));
            }
        }
    }

    #[test]
    fn implication_is_reflexive_and_weakening((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        if g.edge_count() == 0 {
            return Ok(());
        }
        let sigma = generate_gfds(&g, &GfdGenConfig { count: 6, k: 3, seed: 1, ..Default::default() });
        for phi in &sigma {
            prop_assert!(implies(&sigma, phi));
        }
    }
}

/// Fragment-local matching joins back to global matching (the §6.2
/// correctness invariant), tested deterministically on a KB.
#[test]
fn fragment_match_union_equals_global() {
    let g = std::sync::Arc::new(knowledge_base(
        &KbConfig::new(KbProfile::Yago2).with_scale(150),
    ));
    let i = g.interner();
    let q = Pattern::edge(
        PLabel::Is(i.lookup_label("person").unwrap()),
        PLabel::Is(i.lookup_label("create").unwrap()),
        PLabel::Is(i.lookup_label("product").unwrap()),
    );
    let global = gfd::pattern::count_matches(&q, &g);

    // Seed single-node matches per worker, join one extension, sum rows.
    use gfd::parallel::{Cluster, ClusterConfig, Task, TaskResult};
    let parts = gfd::parallel::edge_cut(&g, 4);
    let mut cluster = Cluster::new(
        g.clone(),
        parts.shards,
        &ClusterConfig::new(4, ExecMode::Simulated),
    );
    cluster
        .broadcast(Task::SeedRoot {
            node: 0,
            pattern: Pattern::single(PLabel::Is(i.lookup_label("person").unwrap())),
        })
        .expect("fault-free");
    let results = cluster
        .broadcast(Task::Join {
            parent: 0,
            child: 1,
            ext: Extension {
                src: End::Var(0),
                dst: End::New(PLabel::Is(i.lookup_label("product").unwrap())),
                label: PLabel::Is(i.lookup_label("create").unwrap()),
            },
        })
        .expect("fault-free");
    let mut rows = 0usize;
    for r in results {
        if let TaskResult::Joined { rows: rw, .. } = r {
            rows += rw;
        }
    }
    assert_eq!(rows, global);
}

/// Streaming matcher early-exit has no effect on counted prefix.
#[test]
fn streaming_enumeration_is_prefix_stable() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Imdb).with_scale(100));
    let i = g.interner();
    let q = Pattern::edge(
        PLabel::Is(i.lookup_label("actor").unwrap()),
        PLabel::Is(i.lookup_label("actedIn").unwrap()),
        PLabel::Is(i.lookup_label("movie").unwrap()),
    );
    let mut first_two = Vec::new();
    let _ = gfd::pattern::for_each_match(&q, &g, |m| {
        first_two.push(m.to_vec());
        if first_two.len() == 2 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    let all = find_all(&q, &g);
    assert_eq!(first_two[0], all.get(0));
    assert_eq!(first_two[1], all.get(1));
}
