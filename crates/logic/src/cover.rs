//! The cover engine behind `SeqCover` (§5.2), `ParCover` (§6.3) and the
//! extended cover of §8.
//!
//! A cover of `Σ` drops every `φ` with `Σ \ {φ} ⊨ φ`. By Lemma 6 that test
//! reads only the rules embedded in `φ`'s pattern, so the engine splits `Σ`
//! into [`CoverGroup`]s, one per **unpivoted** pattern class (implication
//! ignores pivots), each with a fixed *context*: every rule whose pattern
//! embeds into the class pattern. Embedding is invariant under isomorphism,
//! so one `is_embedded` call per class pair decides the context of every
//! member. [`CoverGroup::redundant`] then makes one removal pass over the
//! group in [`removal_order`].
//!
//! * **Groups are independent.** A rule of another class that helps imply
//!   a member has a pattern that embeds into the member's but not back
//!   (mutual embedding means isomorphic patterns, hence one class), so no
//!   member sits in its context. If it is removed, the rules alive in its
//!   own context imply it, and that context lies inside the member's; so
//!   whether it is still alive never changes the member's verdict.
//! * **One pass is enough.** Implication is monotone in `Σ`. A rule kept at
//!   its test was not implied by the rules alive then, a superset of the
//!   final survivors, so a second pass would remove nothing.
//!
//! Together these make the grouped pass keep exactly the survivors of a
//! whole-`Σ` removal loop run in the same order. [`cover_survivors`] runs
//! the groups inline; `ParCover` schedules the same groups over workers.
//! The engine is generic over [`CoverRule`], so base GFDs and extended
//! rules share it.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use gfd_pattern::{canonical_code_unpivoted, is_embedded, CanonicalCode, Pattern};

use crate::gfd::Gfd;
use crate::implication::implies_refs;

/// A rule kind the cover engine can reduce.
pub trait CoverRule: Sized {
    /// The rule's pattern `Q[x̄]`.
    fn pattern(&self) -> &Pattern;
    /// `|X|`, the number of premises.
    fn premise_count(&self) -> usize;
    /// Whether `rest ⊨ self`.
    fn implied_by(&self, rest: &[&Self]) -> bool;
}

impl CoverRule for Gfd {
    fn pattern(&self) -> &Pattern {
        Gfd::pattern(self)
    }

    fn premise_count(&self) -> usize {
        self.lhs().len()
    }

    fn implied_by(&self, rest: &[&Gfd]) -> bool {
        implies_refs(rest.iter().copied(), self)
    }
}

/// Sorts indices into `sigma` in cover removal order: most specific first
/// — larger pattern (edges, then nodes), then longer premise — and, among
/// equally specific rules, the earlier rule of `sigma` first. The index
/// tie-break makes the order total, so which of two mutually implying
/// rules survives never rests on a sort's tie order.
pub fn removal_order<R: CoverRule>(sigma: &[R], order: &mut [usize]) {
    // gfd-lint: allow(nondeterminism) — total: the last tie-break is the rule's index in sigma
    order.sort_unstable_by_key(|&i| {
        let r = &sigma[i];
        let q = r.pattern();
        (
            Reverse((q.edge_count(), q.node_count(), r.premise_count())),
            i,
        )
    });
}

/// One pattern class of `Σ` with its implication context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverGroup {
    /// Indices of the class's rules, ascending.
    pub members: Vec<usize>,
    /// Indices of every rule whose pattern embeds into the class pattern,
    /// ascending. Always includes the members.
    pub context: Vec<usize>,
}

impl CoverGroup {
    /// One removal pass over the members in [`removal_order`]: each member
    /// is tested against its context minus itself and minus the members
    /// already removed. Returns the removed members and the premises
    /// examined (the summed size of the tested sets).
    pub fn redundant<R: CoverRule>(&self, sigma: &[R]) -> (Vec<usize>, u64) {
        let mut order = self.members.clone();
        removal_order(sigma, &mut order);
        let mut gone = vec![false; self.context.len()];
        let mut rest: Vec<&R> = Vec::with_capacity(self.context.len());
        let mut removed = Vec::new();
        let mut work = 0u64;
        for i in order {
            rest.clear();
            rest.extend(
                self.context
                    .iter()
                    .zip(&gone)
                    .filter(|&(&j, &g)| j != i && !g)
                    .map(|(&j, _)| &sigma[j]),
            );
            work += rest.len() as u64;
            if sigma[i].implied_by(&rest) {
                removed.push(i);
                if let Some(at) = self.context.iter().position(|&j| j == i) {
                    gone[at] = true;
                }
            }
        }
        (removed, work)
    }
}

/// Splits `sigma` into its pattern groups, in canonical-code order.
pub fn cover_groups<R: CoverRule>(sigma: &[R]) -> Vec<CoverGroup> {
    let mut by_code: BTreeMap<CanonicalCode, Vec<usize>> = BTreeMap::new();
    for (i, r) in sigma.iter().enumerate() {
        by_code
            .entry(canonical_code_unpivoted(r.pattern()))
            .or_default()
            .push(i);
    }
    let classes: Vec<Vec<usize>> = by_code.into_values().collect();
    classes
        .iter()
        .enumerate()
        .map(|(a, members)| {
            let host = sigma[members[0]].pattern();
            let mut context: Vec<usize> = classes
                .iter()
                .enumerate()
                .filter(|&(b, sub)| b == a || is_embedded(sigma[sub[0]].pattern(), host))
                .flat_map(|(_, sub)| sub.iter().copied())
                .collect();
            context.sort_unstable();
            CoverGroup {
                members: members.clone(),
                context,
            }
        })
        .collect()
}

/// The cover of `sigma` as surviving indices, ascending: every group's
/// removal pass, run inline.
pub fn cover_survivors<R: CoverRule>(sigma: &[R]) -> Vec<usize> {
    let mut alive = vec![true; sigma.len()];
    for group in cover_groups(sigma) {
        for i in group.redundant(sigma).0 {
            alive[i] = false;
        }
    }
    (0..sigma.len()).filter(|&i| alive[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Rhs;
    use crate::literal::Literal;
    use gfd_graph::{AttrId, LabelId, Value};
    use gfd_pattern::{End, Extension, PLabel};

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    fn rhs(v: i64) -> Rhs {
        Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(v)))
    }

    #[test]
    fn groups_follow_unpivoted_classes_and_embedding() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let q2 = q.extend(&Extension {
            src: End::Var(1),
            dst: End::New(l(3)),
            label: l(4),
        });
        let sigma = vec![
            Gfd::new(q2.clone(), vec![], rhs(1)),
            Gfd::new(q.clone(), vec![], rhs(1)),
            Gfd::new(q.with_pivot(1), vec![], rhs(2)),
            Gfd::new(Pattern::edge(l(5), l(6), l(7)), vec![], rhs(3)),
        ];
        let groups = cover_groups(&sigma);
        assert_eq!(groups.len(), 3);
        let of = |i: usize| groups.iter().find(|g| g.members.contains(&i)).unwrap();
        // Pivot variants share a class; the one-edge class embeds in q2's.
        assert_eq!(of(1).members, vec![1, 2]);
        assert_eq!(of(1).context, vec![1, 2]);
        assert_eq!(of(0).context, vec![0, 1, 2]);
        assert_eq!(of(3).context, vec![3]);
    }

    #[test]
    fn one_pass_tests_each_member_once() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let r = Gfd::new(q, vec![], rhs(1));
        let sigma = vec![r.clone(), r.clone(), r];
        let groups = cover_groups(&sigma);
        let (removed, work) = groups[0].redundant(&sigma);
        // Earliest first: 0 and 1 go, 2 survives; tested sets of 2, 1, 0.
        assert_eq!(removed, vec![0, 1]);
        assert_eq!(work, 3);
        assert_eq!(cover_survivors(&sigma), vec![2]);
    }

    #[test]
    fn removal_order_is_most_specific_first_then_index() {
        let q = Pattern::edge(l(0), l(1), l(2));
        let p = Literal::constant(1, AttrId(1), Value::Int(2));
        let sigma = vec![
            Gfd::new(q.clone(), vec![], rhs(1)),
            Gfd::new(q.clone(), vec![p], rhs(1)),
            Gfd::new(Pattern::single(l(0)), vec![], rhs(1)),
            Gfd::new(q, vec![p], rhs(2)),
        ];
        let mut order: Vec<usize> = (0..sigma.len()).collect();
        removal_order(&sigma, &mut order);
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
