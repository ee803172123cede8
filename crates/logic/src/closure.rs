//! The chase-style closure `closure(Σ_Q, X)` of §3.
//!
//! Terms are `(variable, attribute)` pairs. The closure is a union–find
//! over terms where each equivalence class may carry one constant binding;
//! two distinct constants in one class — or a derived `false` — make the
//! closure **conflicting**. GFDs embedded in the pattern `Q` are applied to
//! a fixpoint: whenever an embedding maps a GFD's premises into the closure,
//! its (mapped) consequence is added. `enforced(Σ_Q)` is the special case
//! `X = ∅`.

use gfd_graph::{AttrId, FxHashMap, Value};
use gfd_pattern::{for_each_embedding, EmbedOptions, Pattern, Var};

use crate::gfd::{Gfd, Rhs};
use crate::literal::Literal;

/// A deduction state over `(variable, attribute)` terms.
#[derive(Clone, Debug, Default)]
pub struct Closure {
    index: FxHashMap<(Var, AttrId), usize>,
    parent: Vec<usize>,
    constant: Vec<Option<Value>>,
    conflict: bool,
}

impl Closure {
    /// Empty (non-conflicting) closure.
    pub fn new() -> Closure {
        Closure::default()
    }

    /// Builds the closure of a literal set alone (transitivity of equality,
    /// no GFD application).
    pub fn of_literals(lits: &[Literal]) -> Closure {
        let mut c = Closure::new();
        c.rebuild(lits);
        c
    }

    /// Resets to the empty closure, keeping the allocations.
    pub fn clear(&mut self) {
        self.index.clear();
        self.parent.clear();
        self.constant.clear();
        self.conflict = false;
    }

    /// Clears and re-adds `lits` — [`Self::of_literals`] without the fresh
    /// allocations.
    pub fn rebuild(&mut self, lits: &[Literal]) {
        self.clear();
        for l in lits {
            self.add(l);
        }
    }

    fn term(&mut self, var: Var, attr: AttrId) -> usize {
        if let Some(&i) = self.index.get(&(var, attr)) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.constant.push(None);
        self.index.insert((var, attr), i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn find_existing(&self, var: Var, attr: AttrId) -> Option<usize> {
        let mut i = *self.index.get(&(var, attr))?;
        while self.parent[i] != i {
            i = self.parent[i];
        }
        Some(i)
    }

    /// Adds a literal to the closure; returns `true` if the state changed.
    pub fn add(&mut self, lit: &Literal) -> bool {
        match *lit {
            Literal::Const { var, attr, value } => {
                let t = self.term(var, attr);
                let root = self.find(t);
                match self.constant[root] {
                    Some(v) if v == value => false,
                    Some(_) => {
                        let was = self.conflict;
                        self.conflict = true;
                        !was
                    }
                    None => {
                        self.constant[root] = Some(value);
                        true
                    }
                }
            }
            Literal::VarVar {
                lvar,
                lattr,
                rvar,
                rattr,
            } => {
                let a = self.term(lvar, lattr);
                let b = self.term(rvar, rattr);
                let (ra, rb) = (self.find(a), self.find(b));
                if ra == rb {
                    return false;
                }
                let merged = match (self.constant[ra], self.constant[rb]) {
                    (Some(x), Some(y)) if x != y => {
                        self.conflict = true;
                        Some(x)
                    }
                    (Some(x), _) => Some(x),
                    (_, y) => y,
                };
                self.parent[rb] = ra;
                self.constant[ra] = merged;
                true
            }
        }
    }

    /// Marks the closure conflicting (a derived `false`).
    pub fn mark_false(&mut self) {
        self.conflict = true;
    }

    /// Whether the closure contains `x.A = c ∧ x.A = d` for `c ≠ d` (or a
    /// derived `false`).
    pub fn is_conflicting(&self) -> bool {
        self.conflict
    }

    /// Whether `lit` is entailed by the closure. (A conflicting closure
    /// entails everything; callers usually check [`Self::is_conflicting`]
    /// first — this method reports *derivability from the equalities*.)
    pub fn holds(&self, lit: &Literal) -> bool {
        if self.conflict {
            return true;
        }
        match *lit {
            Literal::Const { var, attr, value } => self
                .find_existing(var, attr)
                .and_then(|r| self.constant[r])
                .map(|v| v == value)
                .unwrap_or(false),
            Literal::VarVar {
                lvar,
                lattr,
                rvar,
                rattr,
            } => {
                let (Some(ra), Some(rb)) = (
                    self.find_existing(lvar, lattr),
                    self.find_existing(rvar, rattr),
                ) else {
                    return false;
                };
                if ra == rb {
                    return true;
                }
                matches!(
                    (self.constant[ra], self.constant[rb]),
                    (Some(x), Some(y)) if x == y
                )
            }
        }
    }
}

/// A reusable [`Closure`] for hot loops that build one closure per
/// candidate (the `HSpawn` lattice builds ~one per evaluated premise set,
/// hundreds of thousands per run): the union–find arrays and the term index
/// are cleared and refilled instead of reallocated.
#[derive(Debug, Default)]
pub struct ClosureScratch {
    c: Closure,
}

impl ClosureScratch {
    /// Empty scratch.
    pub fn new() -> ClosureScratch {
        ClosureScratch::default()
    }

    /// The closure of `lits`, built in place. The returned borrow is valid
    /// until the next call.
    pub fn of_literals(&mut self, lits: &[Literal]) -> &Closure {
        self.c.rebuild(lits);
        &self.c
    }
}

/// One embedded rule instance: premises and conclusion already remapped into
/// the host pattern's variables.
#[derive(Clone, Debug)]
struct Rule {
    premises: Vec<Literal>,
    conclusion: Option<Literal>, // None encodes `false`
}

/// Computes `closure(Σ_Q, X)` for pattern `q` (§3): the literals deduced
/// from `x` by equality transitivity and by applying every GFD of `sigma`
/// embedded in `q`, to a fixpoint.
pub fn closure_of(q: &Pattern, sigma: &[Gfd], x: &[Literal]) -> Closure {
    closure_of_refs(q, sigma.iter(), x)
}

/// [`closure_of`] over borrowed GFDs, letting cover computation exclude
/// candidates without cloning the whole set.
pub fn closure_of_refs<'a>(
    q: &Pattern,
    sigma: impl IntoIterator<Item = &'a Gfd>,
    x: &[Literal],
) -> Closure {
    // Collect all rule instances from embeddings of sigma's patterns in q.
    let mut rules: Vec<Rule> = Vec::new();
    let opts = EmbedOptions {
        preserve_pivot: false,
    };
    for phi in sigma {
        let _ = for_each_embedding(phi.pattern(), q, opts, |f| {
            let premises = phi.lhs().iter().map(|l| l.remap(f)).collect();
            let conclusion = match phi.rhs() {
                Rhs::Lit(l) => Some(l.remap(f)),
                Rhs::False => None,
            };
            rules.push(Rule {
                premises,
                conclusion,
            });
            std::ops::ControlFlow::Continue(())
        });
    }

    let mut c = Closure::of_literals(x);
    let mut fired = vec![false; rules.len()];
    loop {
        if c.is_conflicting() {
            return c;
        }
        let mut changed = false;
        for (i, rule) in rules.iter().enumerate() {
            if fired[i] {
                continue;
            }
            if rule.premises.iter().all(|p| c.holds(p)) {
                fired[i] = true;
                match &rule.conclusion {
                    Some(l) => {
                        if c.add(l) {
                            changed = true;
                        }
                    }
                    None => {
                        c.mark_false();
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return c;
        }
    }
}

/// `enforced(Σ_Q)` — the closure with empty `X` (§3).
pub fn enforced(q: &Pattern, sigma: &[Gfd]) -> Closure {
    closure_of(q, sigma, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{AttrId, Value};
    use gfd_pattern::{PLabel, Pattern};

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn constants_and_conflicts() {
        let mut c = Closure::new();
        assert!(c.add(&Literal::constant(0, a(0), v(1))));
        assert!(!c.add(&Literal::constant(0, a(0), v(1)))); // no change
        assert!(c.holds(&Literal::constant(0, a(0), v(1))));
        assert!(!c.holds(&Literal::constant(0, a(0), v(2))));
        assert!(!c.is_conflicting());
        c.add(&Literal::constant(0, a(0), v(2)));
        assert!(c.is_conflicting());
    }

    #[test]
    fn scratch_closure_matches_fresh_closure() {
        let mut scratch = ClosureScratch::new();
        let sets: Vec<Vec<Literal>> = vec![
            vec![],
            vec![Literal::constant(0, a(0), v(1))],
            vec![
                Literal::constant(0, a(0), v(1)),
                Literal::constant(0, a(0), v(2)),
            ],
            vec![
                Literal::var_var(0, a(0), 1, a(0)),
                Literal::constant(1, a(0), v(7)),
            ],
        ];
        let probes = [
            Literal::constant(0, a(0), v(1)),
            Literal::constant(0, a(0), v(7)),
            Literal::var_var(0, a(0), 1, a(0)),
        ];
        for x in &sets {
            let fresh = Closure::of_literals(x);
            let reused = scratch.of_literals(x);
            assert_eq!(fresh.is_conflicting(), reused.is_conflicting(), "{x:?}");
            for p in &probes {
                assert_eq!(fresh.holds(p), reused.holds(p), "{x:?} ⊢ {p:?}");
            }
        }
    }

    #[test]
    fn equality_transitivity() {
        let mut c = Closure::new();
        c.add(&Literal::var_var(0, a(0), 1, a(0)));
        c.add(&Literal::var_var(1, a(0), 2, a(0)));
        assert!(c.holds(&Literal::var_var(0, a(0), 2, a(0))));
        // Constant propagates through the class.
        c.add(&Literal::constant(2, a(0), v(7)));
        assert!(c.holds(&Literal::constant(0, a(0), v(7))));
    }

    #[test]
    fn conflict_via_merged_constants() {
        let mut c = Closure::new();
        c.add(&Literal::constant(0, a(0), v(1)));
        c.add(&Literal::constant(1, a(0), v(2)));
        assert!(!c.is_conflicting());
        c.add(&Literal::var_var(0, a(0), 1, a(0)));
        assert!(c.is_conflicting());
    }

    #[test]
    fn equal_constants_entail_var_var() {
        let mut c = Closure::new();
        c.add(&Literal::constant(0, a(0), v(1)));
        c.add(&Literal::constant(1, a(3), v(1)));
        assert!(c.holds(&Literal::var_var(0, a(0), 1, a(3))));
    }

    #[test]
    fn closure_applies_embedded_gfds() {
        // φ: person->product(create) with type(y)=film → type(x)=producer.
        // Q = the same pattern; X = {y.type=film} must derive x.type=producer.
        let person = PLabel::Is(gfd_graph::LabelId(0));
        let create = PLabel::Is(gfd_graph::LabelId(1));
        let product = PLabel::Is(gfd_graph::LabelId(2));
        let q1 = Pattern::edge(person, create, product);
        let ty = a(0);
        let film = v(100);
        let producer = v(200);
        let phi = Gfd::new(
            q1.clone(),
            vec![Literal::constant(1, ty, film)],
            Rhs::Lit(Literal::constant(0, ty, producer)),
        );
        let c = closure_of(
            &q1,
            std::slice::from_ref(&phi),
            &[Literal::constant(1, ty, film)],
        );
        assert!(c.holds(&Literal::constant(0, ty, producer)));
        assert!(!c.is_conflicting());

        // Without X, nothing fires.
        let c2 = enforced(&q1, &[phi]);
        assert!(!c2.holds(&Literal::constant(0, ty, producer)));
    }

    #[test]
    fn closure_derives_false_from_negative_gfd() {
        let person = PLabel::Is(gfd_graph::LabelId(0));
        let parent = PLabel::Is(gfd_graph::LabelId(1));
        let q = Pattern::edge(person, parent, person);
        let q3 = q.extend(&gfd_pattern::Extension {
            src: gfd_pattern::End::Var(1),
            dst: gfd_pattern::End::Var(0),
            label: parent,
        });
        let neg = Gfd::new(q3.clone(), vec![], Rhs::False);
        // enforced over Q3 itself: conflicting (no match of Q3 may exist).
        let c = enforced(&q3, std::slice::from_ref(&neg));
        assert!(c.is_conflicting());
        // Over the single-edge Q the negative GFD does not embed.
        let c2 = enforced(&q, &[neg]);
        assert!(!c2.is_conflicting());
    }

    #[test]
    fn chained_rule_application_reaches_fixpoint() {
        // Two rules on a single-node pattern: A=1 → B=2, B=2 → C=3.
        let q = Pattern::single(PLabel::Wildcard);
        let r1 = Gfd::new(
            q.clone(),
            vec![Literal::constant(0, a(0), v(1))],
            Rhs::Lit(Literal::constant(0, a(1), v(2))),
        );
        let r2 = Gfd::new(
            q.clone(),
            vec![Literal::constant(0, a(1), v(2))],
            Rhs::Lit(Literal::constant(0, a(2), v(3))),
        );
        let c = closure_of(&q, &[r1, r2], &[Literal::constant(0, a(0), v(1))]);
        assert!(c.holds(&Literal::constant(0, a(2), v(3))));
    }
}
