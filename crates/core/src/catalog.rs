//! Candidate-literal catalogs for horizontal spawning (§5.1).
//!
//! `HSpawn` builds dependencies from literals whose attributes come from the
//! active set `Γ` and whose constants come from the graph — specifically,
//! the most frequent values observed *at the matches* of the pattern (the
//! paper keeps the 5 most frequent values per attribute). Variable–variable
//! literals are proposed for term pairs that actually agree on at least one
//! match, so the lattice never explores provably-zero-support literals.
//!
//! Counting is split into a mergeable phase ([`CatalogCounts`]) and a
//! finalisation phase so `ParDis` can count per fragment and sum at the
//! master: match rows are disjoint across workers, so sums are exact.

use gfd_graph::{AttrId, FxHashMap, Value};
use gfd_logic::Literal;
use gfd_pattern::Var;

use crate::config::LiteralOrder;
use crate::table::MatchTable;

/// Mergeable literal-candidate counts for one pattern.
#[derive(Clone, Debug, Default)]
pub struct CatalogCounts {
    /// `(variable, attribute, value)` → row count.
    pub values: FxHashMap<(Var, AttrId, Value), usize>,
    /// `(term, term)` (ordered) → rows on which both are present and equal.
    pub agreements: FxHashMap<(Var, AttrId, Var, AttrId), usize>,
}

impl CatalogCounts {
    /// Counts over one match table (one fragment's rows).
    ///
    /// Rows are consumed through [`MatchTable::row_values`] (no per-term
    /// column lookups), and agreements are counted within per-row value
    /// buckets: only terms sharing a value can agree, so sorting the ≤
    /// `arity·|Γ|` present terms by value replaces the quadratic
    /// all-pairs compare of the seed implementation.
    pub fn count(table: &MatchTable) -> CatalogCounts {
        let mut out = CatalogCounts::default();
        let attrs = table.attrs().to_vec();
        let na = attrs.len();
        if na == 0 {
            return out;
        }
        let terms = table.arity() * na;
        let mut present: Vec<(Value, usize)> = Vec::with_capacity(terms);
        for r in 0..table.rows() {
            let row = table.row_values(r);
            present.clear();
            for (ti, slot) in row.iter().enumerate() {
                if let Some(x) = *slot {
                    *out.values.entry((ti / na, attrs[ti % na], x)).or_insert(0) += 1;
                    present.push((x, ti));
                }
            }
            // Terms sorted by (value, term index): agreeing pairs are
            // exactly the ordered pairs within each equal-value run.
            present.sort_unstable();
            let mut i = 0;
            while i < present.len() {
                let mut j = i + 1;
                while j < present.len() && present[j].0 == present[i].0 {
                    j += 1;
                }
                for p in i..j {
                    let (v1, a1) = (present[p].1 / na, present[p].1 % na);
                    for &(_, tq) in &present[(p + 1)..j] {
                        let (v2, a2) = (tq / na, tq % na);
                        *out.agreements
                            .entry((v1, attrs[a1], v2, attrs[a2]))
                            .or_insert(0) += 1;
                    }
                }
                i = j;
            }
        }
        out
    }

    /// Sums another fragment's counts into this one.
    pub fn merge(&mut self, other: CatalogCounts) {
        // gfd-lint: allow(nondeterminism) — keyed `+=` into a map is a commutative fold; visit order cannot change the resulting counts
        for (k, v) in other.values {
            *self.values.entry(k).or_insert(0) += v;
        }
        // gfd-lint: allow(nondeterminism) — same commutative keyed sum as above
        for (k, v) in other.agreements {
            *self.agreements.entry(k).or_insert(0) += v;
        }
    }

    /// Approximate shipped size in bytes (simulated-cluster communication).
    pub fn byte_size(&self) -> usize {
        self.values.len() * 32 + self.agreements.len() * 32
    }

    /// Finalises into a sorted catalog: per `(var, attr)` the top
    /// `values_per_attr` constants (count ≥ `min_rows`), plus every
    /// agreeing term pair with count ≥ `min_rows`.
    pub fn finalize(&self, values_per_attr: usize, min_rows: usize) -> LiteralCatalog {
        self.finalize_capped(values_per_attr, min_rows, 0)
    }

    /// [`Self::finalize`] with a global candidate cap (`0` = unlimited):
    /// the lattice is quadratic in the catalog, so this is §4.3's "reduce
    /// excessive literals" knob. The most frequent candidates survive.
    pub fn finalize_capped(
        &self,
        values_per_attr: usize,
        min_rows: usize,
        max_literals: usize,
    ) -> LiteralCatalog {
        let min_rows = min_rows.max(1);
        let mut ranked_literals: Vec<(Literal, usize)> = Vec::new();

        // Rank constants per (var, attr).
        let mut per_term: FxHashMap<(Var, AttrId), Vec<(Value, usize)>> = FxHashMap::default();
        // gfd-lint: allow(nondeterminism) — grouping only: each per-term bucket is fully re-sorted below before any ranking decision
        for (&(var, attr, value), &count) in &self.values {
            if count >= min_rows {
                per_term
                    .entry((var, attr))
                    .or_default()
                    .push((value, count));
            }
        }
        // gfd-lint: allow(nondeterminism) — push order is erased by the total-order sort before the cap and the final sort/dedup
        for ((var, attr), mut ranked) in per_term {
            // gfd-lint: allow(nondeterminism) — total: ties on count break on the value, unique per term
            ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(values_per_attr);
            for (value, count) in ranked {
                ranked_literals.push((Literal::constant(var, attr, value), count));
            }
        }

        // gfd-lint: allow(nondeterminism) — candidate set only; order erased by the total-order sort before the cap and the final sort/dedup
        for (&(v1, a1, v2, a2), &count) in &self.agreements {
            if count >= min_rows {
                ranked_literals.push((Literal::var_var(v1, a1, v2, a2), count));
            }
        }

        if max_literals > 0 && ranked_literals.len() > max_literals {
            // Tie-break by the literal itself: a count-only sort would let
            // hash-iteration push order decide which equal-count
            // candidates survive the cap.
            // gfd-lint: allow(nondeterminism) — total: ties on count break on the literal, so equal keys are equal entries
            ranked_literals.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked_literals.truncate(max_literals);
        }
        // Canonical catalog order, carrying each literal's row count so the
        // lattice can order premises by selectivity without re-counting.
        // gfd-lint: allow(nondeterminism) — total: the key is the whole (literal, count) entry
        ranked_literals.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
        ranked_literals.dedup_by(|a, b| a.0 == b.0);
        let (literals, counts) = ranked_literals.into_iter().unzip();
        LiteralCatalog { literals, counts }
    }
}

/// The literal candidates for one pattern.
#[derive(Clone, Debug, Default)]
pub struct LiteralCatalog {
    /// All candidate literals, sorted (the lattice enumerates subsets in
    /// this order).
    pub literals: Vec<Literal>,
    /// Row count of each literal, aligned with `literals`. Counts are exact
    /// per-fragment sums, so they merge identically however the match rows
    /// are cut — the selectivity order derived from them is the same
    /// sequentially and in parallel.
    pub counts: Vec<usize>,
}

impl LiteralCatalog {
    /// Harvests candidates from a match table (sequential path: count +
    /// finalise).
    pub fn harvest(table: &MatchTable, values_per_attr: usize, min_rows: usize) -> LiteralCatalog {
        CatalogCounts::count(table).finalize(values_per_attr, min_rows)
    }

    /// [`Self::harvest`] with a global candidate cap.
    pub fn harvest_capped(
        table: &MatchTable,
        values_per_attr: usize,
        min_rows: usize,
        max_literals: usize,
    ) -> LiteralCatalog {
        CatalogCounts::count(table).finalize_capped(values_per_attr, min_rows, max_literals)
    }

    /// Number of candidate literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// The premise enumeration order for the lattice: the catalog order
    /// itself, or ascending row count (count asc, literal asc — a total
    /// order, so ties cannot depend on construction history) under
    /// [`LiteralOrder::Selectivity`]. Falls back to catalog order when
    /// per-literal counts are unavailable (e.g. a hand-built catalog).
    pub fn premise_order(&self, order: LiteralOrder) -> Vec<Literal> {
        if order == LiteralOrder::Catalog || self.counts.len() != self.literals.len() {
            return self.literals.clone();
        }
        let mut paired: Vec<(usize, Literal)> = self
            .counts
            .iter()
            .copied()
            .zip(self.literals.iter().copied())
            .collect();
        // gfd-lint: allow(nondeterminism) — total: the key is the whole (count, literal) entry
        paired.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        paired.into_iter().map(|(_, l)| l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{GraphBuilder, Value};
    use gfd_pattern::{find_all, PLabel, Pattern};

    fn family_graph() -> (gfd_graph::Graph, Pattern, AttrId) {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            let p = b.add_node("person");
            let c = b.add_node("person");
            b.set_attr(p, "surname", if i < 4 { "smith" } else { "jones" });
            b.set_attr(c, "surname", if i < 4 { "smith" } else { "brown" });
            b.add_edge(p, c, "parent");
        }
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("parent")),
            PLabel::Is(g.interner().label("person")),
        );
        let surname = g.interner().attr("surname");
        (g, q, surname)
    }

    #[test]
    fn constants_and_varvars_harvested() {
        let (g, q, surname) = family_graph();
        let ms = find_all(&q, &g);
        let t = MatchTable::build(&q, &ms, &g, &[surname]);
        let cat = LiteralCatalog::harvest(&t, 5, 1);
        let smith = Value::Str(g.interner().lookup_symbol("smith").unwrap());
        assert!(cat.literals.contains(&Literal::constant(0, surname, smith)));
        assert!(cat.literals.contains(&Literal::constant(1, surname, smith)));
        // x0.surname = x1.surname agrees on 4 rows.
        assert!(cat
            .literals
            .contains(&Literal::var_var(0, surname, 1, surname)));
        // Sorted + unique.
        assert!(cat.literals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn split_counts_merge_equals_whole() {
        let (g, q, surname) = family_graph();
        let ms = find_all(&q, &g);
        let whole_table = MatchTable::build(&q, &ms, &g, &[surname]);
        let whole = LiteralCatalog::harvest(&whole_table, 2, 2);

        let mut merged = CatalogCounts::default();
        for part in ms.split(3) {
            let t = MatchTable::build(&q, &part, &g, &[surname]);
            merged.merge(CatalogCounts::count(&t));
        }
        let from_parts = merged.finalize(2, 2);
        assert_eq!(whole.literals, from_parts.literals);
        assert!(merged.byte_size() > 0);
    }

    #[test]
    fn min_rows_filters_rare_values() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            let n = b.add_node("t");
            b.set_attr(n, "c", if i == 0 { "rare" } else { "common" });
        }
        let g = b.build();
        let q = Pattern::single(PLabel::Is(g.interner().label("t")));
        let ms = find_all(&q, &g);
        let c = g.interner().attr("c");
        let t = MatchTable::build(&q, &ms, &g, &[c]);
        let strict = LiteralCatalog::harvest(&t, 5, 2);
        assert_eq!(strict.len(), 1);
        let loose = LiteralCatalog::harvest(&t, 5, 1);
        assert_eq!(loose.len(), 2);
    }

    #[test]
    fn values_per_attr_caps_constants() {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            let n = b.add_node("t");
            b.set_attr(n, "c", format!("v{}", i % 5).as_str());
        }
        let g = b.build();
        let q = Pattern::single(PLabel::Is(g.interner().label("t")));
        let ms = find_all(&q, &g);
        let c = g.interner().attr("c");
        let t = MatchTable::build(&q, &ms, &g, &[c]);
        let cat = LiteralCatalog::harvest(&t, 3, 1);
        assert_eq!(cat.len(), 3);
    }

    #[test]
    fn cap_keeps_most_frequent() {
        let (g, q, surname) = family_graph();
        let ms = find_all(&q, &g);
        let t = MatchTable::build(&q, &ms, &g, &[surname]);
        let full = LiteralCatalog::harvest(&t, 5, 1);
        let capped = LiteralCatalog::harvest_capped(&t, 5, 1, 2);
        assert_eq!(capped.len(), 2);
        assert!(capped.literals.iter().all(|l| full.literals.contains(l)));
        let _ = g;
        // Cap of 0 = unlimited.
        assert_eq!(
            LiteralCatalog::harvest_capped(&t, 5, 1, 0).len(),
            full.len()
        );
    }

    #[test]
    fn counts_align_and_selectivity_orders_ascending() {
        let (g, q, surname) = family_graph();
        let ms = find_all(&q, &g);
        let t = MatchTable::build(&q, &ms, &g, &[surname]);
        let cat = LiteralCatalog::harvest(&t, 5, 1);
        assert_eq!(cat.counts.len(), cat.literals.len());
        // Catalog order is the identity.
        assert_eq!(cat.premise_order(LiteralOrder::Catalog), cat.literals);
        // Selectivity order is a permutation with ascending counts.
        let sel = cat.premise_order(LiteralOrder::Selectivity);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, cat.literals);
        let count_of = |l: &Literal| {
            let i = cat.literals.iter().position(|c| c == l).unwrap();
            cat.counts[i]
        };
        assert!(sel.windows(2).all(|w| count_of(&w[0]) <= count_of(&w[1])));
        // A hand-built catalog without counts falls back to catalog order.
        let bare = LiteralCatalog {
            literals: cat.literals.clone(),
            counts: Vec::new(),
        };
        assert_eq!(bare.premise_order(LiteralOrder::Selectivity), cat.literals);
    }

    #[test]
    fn empty_table_empty_catalog() {
        let mut b = GraphBuilder::new();
        b.add_node("t");
        let g = b.build();
        let q = Pattern::single(PLabel::Is(g.interner().label("zzz")));
        let ms = find_all(&q, &g);
        let t = MatchTable::build(&q, &ms, &g, &[]);
        let cat = LiteralCatalog::harvest(&t, 5, 1);
        assert!(cat.is_empty());
    }
}
