//! Graph functional dependencies `Q[x̄](X → Y)` (§2.2).

use gfd_graph::Interner;
use gfd_pattern::Pattern;

use crate::closure::Closure;
use crate::literal::{normalize_literals, Literal};

/// The consequence of a GFD in normal form: a single literal, or `false`.
///
/// The paper restricts positive GFDs w.l.o.g. to a single RHS literal
/// (normal form, §2.2); `false` is syntactic sugar for an unsatisfiable
/// consequence and marks negative GFDs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rhs {
    /// A single literal `l`.
    Lit(Literal),
    /// The Boolean constant `false`.
    False,
}

impl Rhs {
    /// Renders through an interner.
    pub fn display(&self, interner: &Interner) -> String {
        match self {
            Rhs::Lit(l) => l.display(interner),
            Rhs::False => "false".to_owned(),
        }
    }
}

/// A graph functional dependency `φ = Q[x̄](X → l)` in normal form.
///
/// Invariants enforced on construction: `X` is sorted and de-duplicated;
/// every literal mentions only variables of `Q`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Gfd {
    pattern: Pattern,
    lhs: Vec<Literal>,
    rhs: Rhs,
}

impl Gfd {
    /// Builds a GFD, normalising the literal set.
    ///
    /// # Panics
    /// Panics if a literal mentions a variable outside `Q[x̄]`.
    pub fn new(pattern: Pattern, lhs: Vec<Literal>, rhs: Rhs) -> Gfd {
        let n = pattern.node_count();
        for l in &lhs {
            assert!(l.max_var() < n, "LHS literal mentions unknown variable");
        }
        if let Rhs::Lit(l) = &rhs {
            assert!(l.max_var() < n, "RHS literal mentions unknown variable");
        }
        Gfd {
            pattern,
            lhs: normalize_literals(lhs),
            rhs,
        }
    }

    /// The pattern `Q[x̄]`.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The premise literal set `X` (sorted, deduplicated).
    pub fn lhs(&self) -> &[Literal] {
        &self.lhs
    }

    /// The consequence.
    pub fn rhs(&self) -> Rhs {
        self.rhs
    }

    /// Number of pattern nodes `|x̄|` (the parameter `k` of §3).
    pub fn k(&self) -> usize {
        self.pattern.node_count()
    }

    /// Whether `X` is internally unsatisfiable (conflicting on its own
    /// equality closure).
    pub fn lhs_unsatisfiable(&self) -> bool {
        Closure::of_literals(&self.lhs).is_conflicting()
    }

    /// Negative GFD: `Q[x̄](X → false)` with satisfiable `X` (§2.2).
    pub fn is_negative(&self) -> bool {
        matches!(self.rhs, Rhs::False) && !self.lhs_unsatisfiable()
    }

    /// Positive GFD (everything that is not negative).
    pub fn is_positive(&self) -> bool {
        !self.is_negative()
    }

    /// Trivial GFD (§4.1): `X` is unsatisfiable, or `l` already follows from
    /// `X` by equality transitivity. Trivial GFDs are excluded from
    /// discovery output.
    pub fn is_trivial(&self) -> bool {
        let c = Closure::of_literals(&self.lhs);
        if c.is_conflicting() {
            return true;
        }
        match &self.rhs {
            Rhs::Lit(l) => c.holds(l),
            Rhs::False => false,
        }
    }

    /// Human-readable rendering, e.g.
    /// `Q[x0:person*, x1:product; x0-create->x1](x1.type="film" -> x0.type="producer")`.
    pub fn display(&self, interner: &Interner) -> String {
        let lhs = if self.lhs.is_empty() {
            "∅".to_owned()
        } else {
            self.lhs
                .iter()
                .map(|l| l.display(interner))
                .collect::<Vec<_>>()
                .join(" ∧ ")
        };
        format!(
            "{}({} -> {})",
            self.pattern.display(interner),
            lhs,
            self.rhs.display(interner)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{AttrId, LabelId, Value};
    use gfd_pattern::PLabel;

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    fn q1() -> Pattern {
        Pattern::edge(l(0), l(1), l(2))
    }

    #[test]
    fn normal_form_normalises_lhs() {
        let a = Literal::constant(0, AttrId(0), Value::Int(1));
        let b = Literal::constant(1, AttrId(0), Value::Int(2));
        let g = Gfd::new(q1(), vec![b, a, b], Rhs::Lit(a));
        assert_eq!(g.lhs().len(), 2);
        assert!(g.lhs()[0] < g.lhs()[1]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn out_of_range_literal_rejected() {
        let bad = Literal::constant(5, AttrId(0), Value::Int(1));
        let _ = Gfd::new(q1(), vec![bad], Rhs::False);
    }

    #[test]
    fn negativity_requires_satisfiable_lhs() {
        let x1 = Literal::constant(0, AttrId(0), Value::Int(1));
        let x2 = Literal::constant(0, AttrId(0), Value::Int(2));
        let neg = Gfd::new(q1(), vec![x1], Rhs::False);
        assert!(neg.is_negative());
        assert!(!neg.is_positive());
        // Conflicting X: not negative (and trivial).
        let junk = Gfd::new(q1(), vec![x1, x2], Rhs::False);
        assert!(!junk.is_negative());
        assert!(junk.is_trivial());
    }

    #[test]
    fn triviality_detection() {
        let x = Literal::constant(0, AttrId(0), Value::Int(1));
        // RHS repeats a premise: trivial.
        let t = Gfd::new(q1(), vec![x], Rhs::Lit(x));
        assert!(t.is_trivial());
        // RHS follows by transitivity: x0.A=x1.B ∧ x0.A=1 ⟹ x1.B=1.
        let eq = Literal::var_var(0, AttrId(0), 1, AttrId(1));
        let concl = Literal::constant(1, AttrId(1), Value::Int(1));
        let t2 = Gfd::new(q1(), vec![eq, x], Rhs::Lit(concl));
        assert!(t2.is_trivial());
        // Genuine dependency: not trivial.
        let real = Gfd::new(q1(), vec![x], Rhs::Lit(concl));
        assert!(!real.is_trivial());
        // Negative GFD with satisfiable X: not trivial.
        let neg = Gfd::new(q1(), vec![x], Rhs::False);
        assert!(!neg.is_trivial());
    }

    #[test]
    fn display_of_phi1() {
        let i = Interner::new();
        let person = PLabel::Is(i.label("person"));
        let create = PLabel::Is(i.label("create"));
        let product = PLabel::Is(i.label("product"));
        let ty = i.attr("type");
        let film = Value::Str(i.symbol("film"));
        let producer = Value::Str(i.symbol("producer"));
        let phi1 = Gfd::new(
            Pattern::edge(person, create, product),
            vec![Literal::constant(1, ty, film)],
            Rhs::Lit(Literal::constant(0, ty, producer)),
        );
        assert_eq!(
            phi1.display(&i),
            "Q[x0:person*, x1:product; x0-create->x1](x1.type=\"film\" -> x0.type=\"producer\")"
        );
        let neg = Gfd::new(Pattern::edge(person, create, product), vec![], Rhs::False);
        assert!(neg.display(&i).ends_with("(∅ -> false)"));
    }
}
