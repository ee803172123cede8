//! `SeqCover` — sequential cover computation (§5.2).
//!
//! Given the discovered set `Σ`, a **cover** `Σ_c ⊆ Σ` satisfies: it is
//! equivalent to `Σ`, all members are minimum, and no member is implied by
//! the others. Following the classical relational procedure (and the
//! paper's SeqCover): repeatedly drop any `φ` with `Σ \ {φ} ⊨ φ`, using the
//! implication characterisation of §3, until a fixpoint.
//!
//! Removal order matters for *which* cover comes out (not for
//! correctness): we test the most specific rules first — larger patterns,
//! then longer premises — so general rules survive and redundant
//! specialisations go. [`removal_order`] is that order, shared with
//! `ParCover`.

use std::cmp::Reverse;

use gfd_logic::{implies_refs, Gfd};

use crate::result::DiscoveredGfd;

/// Sorts indices into `sigma` in cover removal order: most specific first
/// — larger pattern (edges, then nodes), then longer premise — and, among
/// equally specific rules, the earlier rule of `sigma` first. The index
/// tie-break makes the order total, so which of two mutually implying
/// rules survives never rests on a sort's tie order.
pub fn removal_order(sigma: &[Gfd], order: &mut [usize]) {
    // gfd-lint: allow(nondeterminism) — total: the last tie-break is the rule's index in sigma
    order.sort_unstable_by_key(|&i| {
        let g = &sigma[i];
        let q = g.pattern();
        (Reverse((q.edge_count(), q.node_count(), g.lhs().len())), i)
    });
}

/// Computes a cover of `sigma`, returning the surviving indices (sorted).
pub fn cover_indices(sigma: &[Gfd]) -> Vec<usize> {
    let mut alive: Vec<bool> = vec![true; sigma.len()];
    let mut order: Vec<usize> = (0..sigma.len()).collect();
    removal_order(sigma, &mut order);

    // One pass suffices: implication is monotone in Σ, so a rule implied by
    // the survivors now would also have been implied by the larger set; and
    // removing later rules cannot make an earlier removal unsound because
    // removals only shrink the set *after* each test uses the current
    // survivors. We still iterate to a fixpoint for safety (cheap: almost
    // always 1 extra pass).
    loop {
        let mut changed = false;
        for &i in &order {
            if !alive[i] {
                continue;
            }
            let rest = sigma
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i && alive[*j])
                .map(|(_, g)| g);
            if implies_refs(rest, &sigma[i]) {
                alive[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..sigma.len()).filter(|&i| alive[i]).collect()
}

/// Computes a cover of `sigma` (the paper's `SeqCover`).
pub fn seq_cover(sigma: &[Gfd]) -> Vec<Gfd> {
    cover_indices(sigma)
        .into_iter()
        .map(|i| sigma[i].clone())
        .collect()
}

/// Cover over discovered GFDs, preserving supports.
pub fn seq_cover_discovered(sigma: &[DiscoveredGfd]) -> Vec<DiscoveredGfd> {
    let rules: Vec<Gfd> = sigma.iter().map(|d| d.gfd.clone()).collect();
    cover_indices(&rules)
        .into_iter()
        .map(|i| sigma[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{AttrId, LabelId, Value};
    use gfd_logic::{implies, Literal, Rhs};
    use gfd_pattern::{End, Extension, PLabel, Pattern};

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn duplicate_rules_collapse() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let r = Gfd::new(q, vec![], Rhs::Lit(Literal::constant(0, a(0), v(1))));
        let sigma = vec![r.clone(), r.clone(), r];
        let cover = seq_cover(&sigma);
        assert_eq!(cover.len(), 1);
        // Ties are tested earliest first, so the last copy survives.
        assert_eq!(cover_indices(&sigma), vec![2]);
    }

    #[test]
    fn specialisations_removed_generals_kept() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let q2 = q.extend(&Extension {
            src: End::Var(1),
            dst: End::New(l(3)),
            label: l(4),
        });
        let rhs = Rhs::Lit(Literal::constant(0, a(0), v(1)));
        let general = Gfd::new(q, vec![], rhs);
        let special_pattern = Gfd::new(q2.clone(), vec![], rhs);
        let special_lhs = Gfd::new(q2, vec![Literal::constant(2, a(1), v(9))], rhs);
        let sigma = vec![special_pattern, general.clone(), special_lhs];
        let cover = seq_cover(&sigma);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0], general);
    }

    #[test]
    fn independent_rules_all_survive() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let r1 = Gfd::new(
            q.clone(),
            vec![],
            Rhs::Lit(Literal::constant(0, a(0), v(1))),
        );
        let r2 = Gfd::new(
            q.clone(),
            vec![],
            Rhs::Lit(Literal::constant(1, a(1), v(2))),
        );
        let neg = Gfd::new(
            Pattern::edge(l(5), l(6), l(5)),
            vec![Literal::constant(0, a(0), v(3))],
            Rhs::False,
        );
        let sigma = vec![r1, r2, neg];
        let cover = seq_cover(&sigma);
        assert_eq!(cover.len(), 3);
    }

    #[test]
    fn transitive_redundancy_resolved() {
        // A→B, B→C, and the implied A→C: cover keeps the two generators.
        let q = Pattern::single(PLabel::Wildcard);
        let ab = Gfd::new(
            q.clone(),
            vec![Literal::constant(0, a(0), v(1))],
            Rhs::Lit(Literal::constant(0, a(1), v(2))),
        );
        let bc = Gfd::new(
            q.clone(),
            vec![Literal::constant(0, a(1), v(2))],
            Rhs::Lit(Literal::constant(0, a(2), v(3))),
        );
        let ac = Gfd::new(
            q.clone(),
            vec![Literal::constant(0, a(0), v(1))],
            Rhs::Lit(Literal::constant(0, a(2), v(3))),
        );
        let sigma = vec![ab.clone(), bc.clone(), ac];
        let cover = seq_cover(&sigma);
        assert_eq!(cover.len(), 2);
        assert!(cover.contains(&ab) && cover.contains(&bc));
    }

    #[test]
    fn cover_is_equivalent_and_minimal() {
        // Mixed bag; verify Σ_c ⊨ φ for every removed φ and that nothing in
        // Σ_c is redundant.
        let q = Pattern::edge(l(0), l(1), l(2));
        let rhs1 = Rhs::Lit(Literal::constant(0, a(0), v(1)));
        let wild = Gfd::new(
            Pattern::edge(PLabel::Wildcard, l(1), PLabel::Wildcard),
            vec![],
            rhs1,
        );
        let concrete = Gfd::new(q.clone(), vec![], rhs1);
        let with_lhs = Gfd::new(q.clone(), vec![Literal::constant(1, a(2), v(5))], rhs1);
        let other = Gfd::new(
            q.clone(),
            vec![],
            Rhs::Lit(Literal::constant(1, a(1), v(7))),
        );
        let sigma = vec![wild, concrete, with_lhs, other];
        let cover = seq_cover(&sigma);
        for phi in &sigma {
            assert!(implies(&cover, phi), "cover must imply all of Σ");
        }
        for (i, _) in cover.iter().enumerate() {
            let rest: Vec<Gfd> = cover
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, g)| g.clone())
                .collect();
            assert!(!implies(&rest, &cover[i]), "cover must be minimal");
        }
        assert_eq!(cover.len(), 2); // wildcard rule + `other`
    }

    #[test]
    fn empty_sigma_empty_cover() {
        assert!(seq_cover(&[]).is_empty());
        assert!(cover_indices(&[]).is_empty());
    }
}
