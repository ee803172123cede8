//! Implication `Σ ⊨ φ` for extended GFDs.
//!
//! Lifts the fixed-parameter-tractable characterisation of §3: collect
//! every embedding of each rule of `Σ` into `φ`'s pattern, chase the
//! premise set `X` to a fixpoint (a rule instance fires when its remapped
//! premises are *entailed* by the accumulated set), and report implication
//! when the accumulated set is conflicting or entails the consequence.
//!
//! With built-in predicates, literal entailment goes through the
//! difference-bound solver instead of plain equality transitivity; the
//! procedure inherits the solver's precision (sound, complete up to
//! disequality chains — see `solver`). The cover computed from it is
//! therefore *conservative*: a rule is only removed when implication is
//! certain. That cover is `gfd-logic`'s cover engine ([`gfd_logic::cover`])
//! over `XGfd`: Lemma 6 pattern groups and one removal pass each, in
//! `SeqCover`'s order.

use std::ops::ControlFlow;

use gfd_logic::{cover_survivors, CoverRule};
use gfd_pattern::{for_each_embedding, EmbedOptions, Pattern};

use crate::solver::{entails, is_conflicting};
use crate::xgfd::{XGfd, XRhs};
use crate::xliteral::XLiteral;

/// A remapped rule instance over the host pattern's variables.
struct Instance {
    premises: Vec<XLiteral>,
    /// `None` encodes a `false` consequence.
    conclusion: Option<XLiteral>,
}

/// The chased closure of `X` under `Σ`'s rules embedded in `q`.
pub struct XClosure {
    /// Accumulated literals (premises plus fired conclusions).
    pub literals: Vec<XLiteral>,
    /// Whether `false` was derived or the set became conflicting.
    pub falsified: bool,
}

impl XClosure {
    /// Whether the closure entails `l`.
    pub fn holds(&self, l: &XLiteral) -> bool {
        self.falsified || entails(&self.literals, l)
    }
}

/// Collects rule instances from all embeddings of `Σ`'s patterns in `q`.
fn instances<'a>(q: &Pattern, sigma: impl IntoIterator<Item = &'a XGfd>) -> Vec<Instance> {
    let mut out = Vec::new();
    let opts = EmbedOptions {
        preserve_pivot: false,
    };
    for phi in sigma {
        let _ = for_each_embedding(phi.pattern(), q, opts, |f| {
            let premises = phi.lhs().iter().map(|l| l.remap(f)).collect();
            let conclusion = match phi.rhs() {
                XRhs::Lit(l) => Some(l.remap(f)),
                XRhs::False => None,
            };
            out.push(Instance {
                premises,
                conclusion,
            });
            ControlFlow::Continue(())
        });
    }
    out
}

/// Chases `x` under the rules of `Σ` embedded in `q` (the extended
/// `closure(Σ_Q, X)` of §3).
pub fn xclosure_of<'a>(
    q: &Pattern,
    sigma: impl IntoIterator<Item = &'a XGfd>,
    x: &[XLiteral],
) -> XClosure {
    let rules = instances(q, sigma);
    let mut c = XClosure {
        literals: x.to_vec(),
        falsified: is_conflicting(x),
    };
    let mut fired = vec![false; rules.len()];
    loop {
        if c.falsified {
            return c;
        }
        let mut changed = false;
        for (i, rule) in rules.iter().enumerate() {
            if fired[i] {
                continue;
            }
            if rule.premises.iter().all(|p| entails(&c.literals, p)) {
                fired[i] = true;
                changed = true;
                match &rule.conclusion {
                    Some(l) => {
                        c.literals.push(*l);
                        if is_conflicting(&c.literals) {
                            c.falsified = true;
                        }
                    }
                    None => c.falsified = true,
                }
            }
        }
        if !changed {
            return c;
        }
    }
}

/// Whether `Σ ⊨ φ` (sound; see module docs).
pub fn ximplies(sigma: &[XGfd], phi: &XGfd) -> bool {
    ximplies_refs(sigma.iter(), phi)
}

/// [`ximplies`] over borrowed rules.
pub fn ximplies_refs<'a>(sigma: impl IntoIterator<Item = &'a XGfd>, phi: &XGfd) -> bool {
    let c = xclosure_of(phi.pattern(), sigma, phi.lhs());
    match phi.rhs() {
        XRhs::False => c.falsified,
        XRhs::Lit(l) => c.holds(&l),
    }
}

impl CoverRule for XGfd {
    fn pattern(&self) -> &Pattern {
        XGfd::pattern(self)
    }

    fn premise_count(&self) -> usize {
        self.lhs().len()
    }

    fn implied_by(&self, rest: &[&XGfd]) -> bool {
        ximplies_refs(rest.iter().copied(), self)
    }
}

/// A conservative cover of `Σ`, returning surviving indices, sorted:
/// `gfd-logic`'s cover engine over [`ximplies_refs`], so the groups, the
/// one-pass loop and the removal order are `SeqCover`'s.
pub fn xcover_indices(sigma: &[XGfd]) -> Vec<usize> {
    cover_survivors(sigma)
}

/// A conservative cover of `Σ`, returning the surviving rules.
pub fn xcover(sigma: &[XGfd]) -> Vec<XGfd> {
    xcover_indices(sigma)
        .into_iter()
        .map(|i| sigma[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xliteral::{CmpOp, Term};
    use gfd_graph::{AttrId, LabelId, Value};
    use gfd_pattern::{End, Extension, PLabel, Pattern};

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    fn edge_pattern() -> Pattern {
        Pattern::edge(l(0), l(1), l(2))
    }

    #[test]
    fn weaker_bound_is_implied() {
        let a = Term::new(0, AttrId(0));
        // φ1: ∅ → x0.v ≥ 18 implies φ2: ∅ → x0.v ≥ 10 on the same pattern.
        let phi1 = XGfd::new(
            edge_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(18))),
        );
        let phi2 = XGfd::new(
            edge_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(10))),
        );
        assert!(ximplies(std::slice::from_ref(&phi1), &phi2));
        assert!(!ximplies(std::slice::from_ref(&phi2), &phi1));
        let _ = a;
    }

    /// `person --parent--> person`: both endpoints share a label so the
    /// one-hop rule embeds into every hop of a longer chain.
    fn hop_pattern() -> Pattern {
        Pattern::edge(l(0), l(1), l(0))
    }

    /// The two-hop chain `x0 → x1 → x2` over [`hop_pattern`]'s labels.
    fn chain2() -> Pattern {
        hop_pattern().extend(&Extension {
            src: End::Var(1),
            dst: End::New(l(0)),
            label: l(1),
        })
    }

    #[test]
    fn order_rules_chain_transitively() {
        // On a 3-node path pattern: (x0 ≤ x1) ∧ (x1 ≤ x2) rules imply the
        // end-to-end rule x0 ≤ x2.
        let v = AttrId(0);
        let step1 = XGfd::new(
            hop_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(0, v),
                CmpOp::Le,
                Term::new(1, v),
                0,
            )),
        );
        // chain2's second edge goes x1 → x2 with the same labels, so step1
        // embeds twice: (x0,x1) and (x1,x2).
        let end_to_end = XGfd::new(
            chain2(),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(0, v),
                CmpOp::Le,
                Term::new(2, v),
                0,
            )),
        );
        assert!(ximplies(std::slice::from_ref(&step1), &end_to_end));
    }

    #[test]
    fn arithmetic_offsets_compose_in_implication() {
        let v = AttrId(0);
        // Each hop adds at least 12.
        let hop = XGfd::new(
            hop_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(1, v),
                CmpOp::Ge,
                Term::new(0, v),
                12,
            )),
        );
        let two_hops = XGfd::new(
            chain2(),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(2, v),
                CmpOp::Ge,
                Term::new(0, v),
                24,
            )),
        );
        assert!(ximplies(std::slice::from_ref(&hop), &two_hops));
        let too_strong = XGfd::new(
            chain2(),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(2, v),
                CmpOp::Ge,
                Term::new(0, v),
                25,
            )),
        );
        assert!(!ximplies(std::slice::from_ref(&hop), &too_strong));
    }

    #[test]
    fn false_propagates() {
        let neg = XGfd::new(
            edge_pattern(),
            vec![XLiteral::cmp_const(
                0,
                AttrId(0),
                CmpOp::Ge,
                Value::Int(100),
            )],
            XRhs::False,
        );
        // Stronger premises: X' ⊇ entails X, so the negative rule fires.
        let implied = XGfd::new(
            edge_pattern(),
            vec![XLiteral::cmp_const(
                0,
                AttrId(0),
                CmpOp::Ge,
                Value::Int(150),
            )],
            XRhs::False,
        );
        assert!(ximplies(std::slice::from_ref(&neg), &implied));
        let not_implied = XGfd::new(
            edge_pattern(),
            vec![XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(50))],
            XRhs::False,
        );
        assert!(!ximplies(std::slice::from_ref(&neg), &not_implied));
    }

    #[test]
    fn conflicting_premises_imply_anything() {
        let phi = XGfd::new(
            edge_pattern(),
            vec![
                XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(10)),
                XLiteral::cmp_const(0, AttrId(0), CmpOp::Lt, Value::Int(10)),
            ],
            XRhs::Lit(XLiteral::cmp_const(1, AttrId(3), CmpOp::Eq, Value::Int(7))),
        );
        assert!(ximplies(&[], &phi));
    }

    #[test]
    fn cover_removes_weaker_duplicates() {
        let strong = XGfd::new(
            edge_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(18))),
        );
        let weak = XGfd::new(
            edge_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(10))),
        );
        let weaker_with_premise = XGfd::new(
            edge_pattern(),
            vec![XLiteral::cmp_const(1, AttrId(1), CmpOp::Eq, Value::Int(1))],
            XRhs::Lit(XLiteral::cmp_const(0, AttrId(0), CmpOp::Ge, Value::Int(5))),
        );
        let unrelated = XGfd::new(
            Pattern::edge(l(5), l(6), l(7)),
            vec![],
            XRhs::Lit(XLiteral::cmp_const(0, AttrId(0), CmpOp::Le, Value::Int(3))),
        );
        let sigma = vec![strong.clone(), weak, weaker_with_premise, unrelated.clone()];
        let cover = xcover(&sigma);
        assert_eq!(cover.len(), 2);
        assert!(cover.contains(&strong));
        assert!(cover.contains(&unrelated));
        // The cover still implies everything dropped.
        for phi in &sigma {
            assert!(ximplies(&cover, phi));
        }
    }

    #[test]
    fn empty_sigma_implies_only_trivial() {
        let a = Term::new(0, AttrId(0));
        let b = Term::new(1, AttrId(0));
        let trivial = XGfd::new(
            edge_pattern(),
            vec![XLiteral::cmp_terms(a, CmpOp::Ge, b, 18)],
            XRhs::Lit(XLiteral::cmp_terms(a, CmpOp::Gt, b, 0)),
        );
        assert!(ximplies(&[], &trivial));
        let nontrivial = XGfd::new(
            edge_pattern(),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(a, CmpOp::Gt, b, 0)),
        );
        assert!(!ximplies(&[], &nontrivial));
    }
}
