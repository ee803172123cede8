//! GFD support and candidate evaluation (§4.2).
//!
//! For a positive `φ = Q[x̄](X → l)` pivoted at `z`:
//!
//! * `supp(Q, G) = |Q(G, z)|` — distinct pivot images over matches;
//! * `ρ(φ, G) = |Q(G, Xl, z)| / |Q(G, z)|` — correlation: the fraction of
//!   pivots with a match satisfying both `X` and `l`;
//! * `supp(φ, G) = supp(Q, G) · ρ(φ, G) = |Q(G, Xl, z)|`.
//!
//! Negative GFDs take the support of their *base* (§4.2): the parent
//! pattern (case a) or the base positive GFD (case b); that bookkeeping
//! lives in the spawning layer.

use gfd_graph::{FxHashSet, NodeId};
use gfd_logic::{Literal, Rhs};
use gfd_pattern::{MatchSet, Var};

use crate::table::MatchTable;

/// `supp(Q, G)` from a materialised match set: distinct pivot images.
pub fn distinct_pivots(ms: &MatchSet, pivot: Var) -> usize {
    let set: FxHashSet<NodeId> = ms.iter().map(|m| m[pivot]).collect();
    set.len()
}

/// Evaluation of one dependency candidate `X → l` over a match table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// `|Q(G, Xl, z)|` — distinct pivots with a match satisfying `X ∧ l`:
    /// the support of the candidate.
    pub support: usize,
    /// Distinct pivots with a match satisfying `X` (regardless of `l`).
    pub lhs_pivots: usize,
    /// Number of matches satisfying `X`.
    pub lhs_matches: usize,
    /// Number of matches *violating* `X → l` (`X` holds, `l` fails).
    /// `violations == 0 ⟺ G ⊨ φ` when the table holds all matches.
    pub violations: usize,
}

impl CandidateStats {
    /// `G ⊨ Q(X → l)` over the evaluated matches.
    pub fn satisfied(&self) -> bool {
        self.violations == 0
    }

    /// The confidence of `X → l`: the fraction of `X`-satisfying matches
    /// that also satisfy `l` (`1.0` when `X` has no matches — vacuous).
    pub fn confidence(&self) -> f64 {
        if self.lhs_matches == 0 {
            1.0
        } else {
            (self.lhs_matches - self.violations) as f64 / self.lhs_matches as f64
        }
    }

    /// The correlation `ρ(φ, G)` given the pattern support.
    pub fn correlation(&self, pattern_support: usize) -> f64 {
        if pattern_support == 0 {
            0.0
        } else {
            self.support as f64 / pattern_support as f64
        }
    }
}

/// Evaluates `X → rhs` over the table in one scan.
pub fn evaluate(table: &MatchTable, x: &[Literal], rhs: &Rhs) -> CandidateStats {
    let mut support_pivots: FxHashSet<NodeId> = FxHashSet::default();
    let mut lhs_pivots: FxHashSet<NodeId> = FxHashSet::default();
    let mut lhs_matches = 0usize;
    let mut violations = 0usize;
    for r in 0..table.rows() {
        if !table.lhs_holds(r, x) {
            continue;
        }
        lhs_matches += 1;
        lhs_pivots.insert(table.pivot_of(r));
        let rhs_holds = match rhs {
            Rhs::Lit(l) => table.literal_holds(r, l),
            Rhs::False => false,
        };
        if rhs_holds {
            support_pivots.insert(table.pivot_of(r));
        } else {
            violations += 1;
        }
    }
    CandidateStats {
        support: support_pivots.len(),
        lhs_pivots: lhs_pivots.len(),
        lhs_matches,
        violations,
    }
}

/// `|Q(G, X, z)|`-style count: matches satisfying `X` (used by `NHSpawn` to
/// test `Q(G, X', z) = 0`, §5.1). Early-exits at the first satisfying row.
pub fn lhs_satisfiable(table: &MatchTable, x: &[Literal]) -> bool {
    (0..table.rows()).any(|r| table.lhs_holds(r, x))
}

/// Fragment-local candidate evaluation, mergeable across workers.
///
/// Match rows are disjoint across fragments but **pivots need not be**
/// (skew re-balancing moves rows between fragments, so one pivot node can
/// anchor matches in several), so supports merge as pivot-*sets*, not
/// sums — this is where our implementation is stricter than the paper's
/// `supp(φ,G) = Σ_s supp(φ,F_s)` sketch, which can overcount (§6.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialStats {
    /// Pivots with a match satisfying `X ∧ l` (sorted, deduplicated).
    pub support_pivots: Vec<NodeId>,
    /// Pivots with a match satisfying `X` (sorted, deduplicated).
    pub lhs_pivots: Vec<NodeId>,
    /// Matches satisfying `X`.
    pub lhs_matches: usize,
    /// Matches violating `X → l`.
    pub violations: usize,
}

impl PartialStats {
    /// Evaluates `X → rhs` over one fragment's table.
    pub fn evaluate(table: &MatchTable, x: &[Literal], rhs: &Rhs) -> PartialStats {
        let mut support_pivots: FxHashSet<NodeId> = FxHashSet::default();
        let mut lhs_pivots: FxHashSet<NodeId> = FxHashSet::default();
        let mut lhs_matches = 0usize;
        let mut violations = 0usize;
        for r in 0..table.rows() {
            if !table.lhs_holds(r, x) {
                continue;
            }
            lhs_matches += 1;
            lhs_pivots.insert(table.pivot_of(r));
            let rhs_holds = match rhs {
                Rhs::Lit(l) => table.literal_holds(r, l),
                Rhs::False => false,
            };
            if rhs_holds {
                support_pivots.insert(table.pivot_of(r));
            } else {
                violations += 1;
            }
        }
        // gfd-lint: allow(nondeterminism) — both sets are drained into Vecs that are fully sorted two lines down; hash order never escapes
        let mut support_pivots: Vec<NodeId> = support_pivots.into_iter().collect();
        // gfd-lint: allow(nondeterminism) — sorted immediately below, same as support_pivots
        let mut lhs_pivots: Vec<NodeId> = lhs_pivots.into_iter().collect();
        support_pivots.sort_unstable();
        lhs_pivots.sort_unstable();
        PartialStats {
            support_pivots,
            lhs_pivots,
            lhs_matches,
            violations,
        }
    }

    /// Unions another fragment's result into this one.
    pub fn merge(&mut self, other: &PartialStats) {
        merge_sorted(&mut self.support_pivots, &other.support_pivots);
        merge_sorted(&mut self.lhs_pivots, &other.lhs_pivots);
        self.lhs_matches += other.lhs_matches;
        self.violations += other.violations;
    }

    /// Collapses into global [`CandidateStats`].
    pub fn finalize(&self) -> CandidateStats {
        CandidateStats {
            support: self.support_pivots.len(),
            lhs_pivots: self.lhs_pivots.len(),
            lhs_matches: self.lhs_matches,
            violations: self.violations,
        }
    }

    /// Approximate shipped size in bytes (simulated-cluster communication).
    pub fn byte_size(&self) -> usize {
        (self.support_pivots.len() + self.lhs_pivots.len()) * std::mem::size_of::<NodeId>() + 16
    }
}

fn merge_sorted(dst: &mut Vec<NodeId>, src: &[NodeId]) {
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        match dst[i].cmp(&src[j]) {
            std::cmp::Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(src[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(dst[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{Graph, GraphBuilder, Value};
    use gfd_pattern::{find_all, PLabel, Pattern};

    /// 3 producers create films (type=film), 1 actor creates a film, and one
    /// producer's film lacks the type attribute.
    fn setup() -> (Graph, MatchTable) {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            let p = b.add_node("person");
            let f = b.add_node("product");
            if i < 4 {
                b.set_attr(f, "type", "film");
            }
            b.set_attr(p, "type", if i == 3 { "actor" } else { "producer" });
            b.add_edge(p, f, "create");
        }
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let ty = g.interner().attr("type");
        let t = MatchTable::build(&q, &ms, &g, &[ty]);
        (g, t)
    }

    #[test]
    fn phi1_statistics() {
        let (g, t) = setup();
        let ty = g.interner().lookup_attr("type").unwrap();
        let film = Value::Str(g.interner().lookup_symbol("film").unwrap());
        let producer = Value::Str(g.interner().lookup_symbol("producer").unwrap());
        let x = vec![Literal::constant(1, ty, film)];
        let rhs = Rhs::Lit(Literal::constant(0, ty, producer));
        let s = evaluate(&t, &x, &rhs);
        // 4 matches have y.type=film; 3 of them have x.type=producer.
        assert_eq!(s.lhs_matches, 4);
        assert_eq!(s.lhs_pivots, 4);
        assert_eq!(s.support, 3);
        assert_eq!(s.violations, 1); // the actor
        assert!(!s.satisfied());
        assert!((s.correlation(t.pattern_support()) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_lhs_and_false_rhs() {
        let (_, t) = setup();
        let s = evaluate(&t, &[], &Rhs::False);
        assert_eq!(s.lhs_matches, 5);
        assert_eq!(s.violations, 5);
        assert_eq!(s.support, 0);
        assert!(!s.satisfied());
    }

    #[test]
    fn unsatisfied_lhs_vacuous() {
        let (g, t) = setup();
        let ty = g.interner().lookup_attr("type").unwrap();
        let ghost = Value::Int(424_242);
        let x = vec![Literal::constant(1, ty, ghost)];
        let s = evaluate(&t, &x, &Rhs::False);
        assert_eq!(s.lhs_matches, 0);
        assert!(s.satisfied()); // vacuously
        assert!(!lhs_satisfiable(&t, &x));
        assert!(lhs_satisfiable(&t, &[]));
    }

    #[test]
    fn support_counts_distinct_pivots() {
        // One producer creating two films: pivot support 1, matches 2.
        let mut b = GraphBuilder::new();
        let p = b.add_node("person");
        let f1 = b.add_node("product");
        let f2 = b.add_node("product");
        b.set_attr(p, "type", "producer");
        b.set_attr(f1, "type", "film");
        b.set_attr(f2, "type", "film");
        b.add_edge(p, f1, "create");
        b.add_edge(p, f2, "create");
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let ty = g.interner().lookup_attr("type").unwrap();
        let t = MatchTable::build(&q, &ms, &g, &[ty]);
        let film = Value::Str(g.interner().lookup_symbol("film").unwrap());
        let producer = Value::Str(g.interner().lookup_symbol("producer").unwrap());
        let s = evaluate(
            &t,
            &[Literal::constant(1, ty, film)],
            &Rhs::Lit(Literal::constant(0, ty, producer)),
        );
        assert_eq!(s.lhs_matches, 2);
        assert_eq!(s.support, 1); // one distinct pivot
        assert_eq!(t.pattern_support(), 1);
    }
}

#[cfg(test)]
mod partial_tests {
    use super::*;
    use gfd_graph::{GraphBuilder, Value};
    use gfd_pattern::{find_all, PLabel, Pattern};

    #[test]
    fn split_evaluate_merge_equals_whole() {
        let mut b = GraphBuilder::new();
        for i in 0..9 {
            let p = b.add_node("person");
            let f = b.add_node("product");
            b.set_attr(f, "type", "film");
            b.set_attr(p, "type", if i % 3 == 0 { "actor" } else { "producer" });
            b.add_edge(p, f, "create");
        }
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("product")),
        );
        let ms = find_all(&q, &g);
        let ty = g.interner().attr("type");
        let film = Value::Str(g.interner().lookup_symbol("film").unwrap());
        let producer = Value::Str(g.interner().lookup_symbol("producer").unwrap());
        let x = vec![Literal::constant(1, ty, film)];
        let rhs = Rhs::Lit(Literal::constant(0, ty, producer));

        let whole_table = MatchTable::build(&q, &ms, &g, &[ty]);
        let expect = evaluate(&whole_table, &x, &rhs);

        let mut acc = PartialStats::default();
        for part in ms.split(4) {
            let t = MatchTable::build(&q, &part, &g, &[ty]);
            acc.merge(&PartialStats::evaluate(&t, &x, &rhs));
        }
        assert_eq!(acc.finalize(), expect);
        assert!(acc.byte_size() > 0);
    }

    #[test]
    fn merge_dedups_shared_pivots() {
        // The same pivot appearing in two fragments counts once.
        let mut a = PartialStats {
            support_pivots: vec![NodeId(1), NodeId(3)],
            lhs_pivots: vec![NodeId(1), NodeId(3)],
            lhs_matches: 2,
            violations: 0,
        };
        let b = PartialStats {
            support_pivots: vec![NodeId(3), NodeId(5)],
            lhs_pivots: vec![NodeId(3), NodeId(5)],
            lhs_matches: 2,
            violations: 1,
        };
        a.merge(&b);
        assert_eq!(a.support_pivots, vec![NodeId(1), NodeId(3), NodeId(5)]);
        assert_eq!(a.lhs_matches, 4);
        assert_eq!(a.violations, 1);
        assert_eq!(a.finalize().support, 3);
    }

    #[test]
    fn distinct_pivot_helper() {
        let mut ms = MatchSet::new(2);
        ms.push(&[NodeId(1), NodeId(2)]);
        ms.push(&[NodeId(1), NodeId(3)]);
        ms.push(&[NodeId(4), NodeId(2)]);
        assert_eq!(distinct_pivots(&ms, 0), 2);
        assert_eq!(distinct_pivots(&ms, 1), 2);
    }
}
