//! The match table: the data structure that fuses pattern matching with
//! dependency mining (§5's "single integrated process").
//!
//! For a verified pattern `Q` with match set `Q(G)`, the table materialises
//! one row per match and one column per `(variable, active attribute)`
//! term. Literal evaluation, support counting, and candidate-literal
//! harvesting then become cache-friendly column scans instead of repeated
//! graph lookups.

use gfd_graph::{AttrId, FxHashMap, Graph, NodeId, Value};
use gfd_logic::Literal;
use gfd_pattern::{MatchSet, Pattern, Var};

/// Column-indexed view of `Q(G)` over the active attributes `Γ`.
#[derive(Debug)]
pub struct MatchTable {
    arity: usize,
    attrs: Vec<AttrId>,
    /// Row-major `rows × (arity·|Γ|)` attribute values.
    values: Vec<Option<Value>>,
    /// Pivot image per row.
    pivots: Vec<NodeId>,
    /// Pivot-group index: dense group id per row (`pivot_gids[r]` indexes
    /// `groups`). Distinct-pivot counting becomes a stamp over group ids
    /// instead of a hash-set over node ids.
    pivot_gids: Vec<u32>,
    /// Group id → pivot node.
    groups: Vec<NodeId>,
    rows: usize,
}

impl MatchTable {
    /// Materialises the table for `q`'s matches.
    pub fn build(q: &Pattern, ms: &MatchSet, g: &Graph, attrs: &[AttrId]) -> MatchTable {
        MatchTable::build_range(q, ms, g, attrs, 0, ms.len())
    }

    /// Materialises the table over the match rows `[lo, hi)` only — the
    /// shard behind `(rule, pivot-range)` work units. Pivot-group ids are
    /// local to the shard; global distinct-pivot counts come from merging
    /// the shards' pivot *sets* ([`crate::support::PartialStats`]).
    pub fn build_range(
        q: &Pattern,
        ms: &MatchSet,
        g: &Graph,
        attrs: &[AttrId],
        lo: usize,
        hi: usize,
    ) -> MatchTable {
        assert_eq!(ms.arity(), q.node_count());
        assert!(lo <= hi && hi <= ms.len(), "range out of bounds");
        let arity = q.node_count();
        let rows = hi - lo;
        let width = arity * attrs.len();
        let mut values = Vec::with_capacity(rows * width);
        let mut pivots = Vec::with_capacity(rows);
        let mut pivot_gids = Vec::with_capacity(rows);
        let mut groups: Vec<NodeId> = Vec::new();
        let mut gid_of: FxHashMap<NodeId, u32> = FxHashMap::default();
        for m in (lo..hi).map(|i| ms.get(i)) {
            for &node in m {
                for &a in attrs {
                    values.push(g.attr(node, a));
                }
            }
            let pivot = m[q.pivot()];
            pivots.push(pivot);
            let gid = *gid_of.entry(pivot).or_insert_with(|| {
                groups.push(pivot);
                (groups.len() - 1) as u32
            });
            pivot_gids.push(gid);
        }
        MatchTable {
            arity,
            attrs: attrs.to_vec(),
            values,
            pivots,
            pivot_gids,
            groups,
            rows,
        }
    }

    /// Number of rows (matches).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The active attributes backing the columns.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The pattern arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Pivot image of row `r`.
    #[inline]
    pub fn pivot_of(&self, r: usize) -> NodeId {
        self.pivots[r]
    }

    /// Dense pivot-group id of row `r` (stable within this table).
    #[inline]
    pub fn pivot_gid_of(&self, r: usize) -> u32 {
        self.pivot_gids[r]
    }

    /// The pivot node behind group id `gid`.
    #[inline]
    pub fn group_pivot(&self, gid: u32) -> NodeId {
        self.groups[gid as usize]
    }

    /// Number of distinct pivot groups.
    #[inline]
    pub fn pivot_group_count(&self) -> usize {
        self.groups.len()
    }

    /// Distinct pivot images over all rows — `supp(Q, G)` when the table
    /// holds all matches. O(1) via the pivot-group index.
    pub fn pattern_support(&self) -> usize {
        self.groups.len()
    }

    #[inline]
    fn col(&self, var: Var, attr: AttrId) -> Option<usize> {
        let ai = self.attrs.iter().position(|&a| a == attr)?;
        Some(var * self.attrs.len() + ai)
    }

    /// Flat column index of `(var, attr)` for use with [`Self::row_values`]
    /// (`None` when `attr` is not an active attribute).
    #[inline]
    pub fn column_of(&self, var: Var, attr: AttrId) -> Option<usize> {
        self.col(var, attr)
    }

    /// All materialised values of row `r`, indexed by
    /// `var * attrs().len() + attr_position` — the allocation-free bulk
    /// accessor behind literal harvesting and bitmap construction.
    #[inline]
    pub fn row_values(&self, r: usize) -> &[Option<Value>] {
        let width = self.arity * self.attrs.len();
        &self.values[r * width..(r + 1) * width]
    }

    /// Value of `(var, attr)` at row `r` (`None` if the attribute is absent
    /// on the matched node or not an active attribute).
    #[inline]
    pub fn value(&self, r: usize, var: Var, attr: AttrId) -> Option<Value> {
        let c = self.col(var, attr)?;
        self.values[r * self.arity * self.attrs.len() + c]
    }

    /// Evaluates a literal on row `r` (same semantics as
    /// [`gfd_logic::Literal::satisfied`], against the materialised columns).
    #[inline]
    pub fn literal_holds(&self, r: usize, lit: &Literal) -> bool {
        match *lit {
            Literal::Const { var, attr, value } => self.value(r, var, attr) == Some(value),
            Literal::VarVar {
                lvar,
                lattr,
                rvar,
                rattr,
            } => match (self.value(r, lvar, lattr), self.value(r, rvar, rattr)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Whether all literals of `x` hold on row `r`.
    #[inline]
    pub fn lhs_holds(&self, r: usize, x: &[Literal]) -> bool {
        x.iter().all(|l| self.literal_holds(r, l))
    }

    /// Top `limit` most frequent values of `(var, attr)` across rows.
    pub fn frequent_values(&self, var: Var, attr: AttrId, limit: usize) -> Vec<(Value, usize)> {
        let mut counts: FxHashMap<Value, usize> = FxHashMap::default();
        for r in 0..self.rows {
            if let Some(v) = self.value(r, var, attr) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        // gfd-lint: allow(nondeterminism) — drained into a Vec that is fully sorted (count desc, value asc) on the next line
        let mut out: Vec<(Value, usize)> = counts.into_iter().collect();
        // gfd-lint: allow(nondeterminism) — total: ties on count break on the value, unique per map key
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::GraphBuilder;
    use gfd_pattern::{find_all, PLabel};

    fn setup() -> (Graph, Pattern, MatchSet, Vec<AttrId>) {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            let p = b.add_node("person");
            let f = b.add_node("film");
            b.set_attr(p, "role", if i < 3 { "producer" } else { "actor" });
            b.set_attr(f, "genre", if i % 2 == 0 { "drama" } else { "comedy" });
            b.set_attr(f, "year", 2000 + i as i64);
            b.add_edge(p, f, "create");
        }
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("person")),
            PLabel::Is(g.interner().label("create")),
            PLabel::Is(g.interner().label("film")),
        );
        let ms = find_all(&q, &g);
        let attrs = vec![
            g.interner().attr("role"),
            g.interner().attr("genre"),
            g.interner().attr("year"),
        ];
        (g, q, ms, attrs)
    }

    #[test]
    fn table_values_match_graph() {
        let (g, q, ms, attrs) = setup();
        let t = MatchTable::build(&q, &ms, &g, &attrs);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.pattern_support(), 4);
        let role = g.interner().lookup_attr("role").unwrap();
        for r in 0..t.rows() {
            let node = ms.get(r)[0];
            assert_eq!(t.value(r, 0, role), g.attr(node, role));
        }
        // Attribute absent on a node class.
        let genre = g.interner().lookup_attr("genre").unwrap();
        assert_eq!(t.value(0, 0, genre), None);
    }

    #[test]
    fn literal_evaluation() {
        let (g, q, ms, attrs) = setup();
        let t = MatchTable::build(&q, &ms, &g, &attrs);
        let role = g.interner().lookup_attr("role").unwrap();
        let producer = Value::Str(g.interner().lookup_symbol("producer").unwrap());
        let lit = Literal::constant(0, role, producer);
        let holds = (0..t.rows()).filter(|&r| t.literal_holds(r, &lit)).count();
        assert_eq!(holds, 3);
        // lhs_holds with empty X is true everywhere.
        assert!((0..t.rows()).all(|r| t.lhs_holds(r, &[])));
    }

    #[test]
    fn var_var_literal_on_table() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("a");
        let y = b.add_node("a");
        b.set_attr(x, "n", "same");
        b.set_attr(y, "n", "same");
        b.add_edge(x, y, "r");
        let g = b.build();
        let q = Pattern::edge(
            PLabel::Is(g.interner().label("a")),
            PLabel::Is(g.interner().label("r")),
            PLabel::Is(g.interner().label("a")),
        );
        let ms = find_all(&q, &g);
        let n = g.interner().lookup_attr("n").unwrap();
        let t = MatchTable::build(&q, &ms, &g, &[n]);
        assert!(t.literal_holds(0, &Literal::var_var(0, n, 1, n)));
    }

    #[test]
    fn frequent_values_ranked_and_limited() {
        let (g, q, ms, attrs) = setup();
        let t = MatchTable::build(&q, &ms, &g, &attrs);
        let role = g.interner().lookup_attr("role").unwrap();
        let top = t.frequent_values(0, role, 5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 3); // producer
        let top1 = t.frequent_values(0, role, 1);
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn range_tables_shard_the_whole_table() {
        let (g, q, ms, attrs) = setup();
        let whole = MatchTable::build(&q, &ms, &g, &attrs);
        let role = g.interner().lookup_attr("role").unwrap();
        for cut in 0..=ms.len() {
            let a = MatchTable::build_range(&q, &ms, &g, &attrs, 0, cut);
            let b = MatchTable::build_range(&q, &ms, &g, &attrs, cut, ms.len());
            assert_eq!(a.rows() + b.rows(), whole.rows());
            for r in 0..whole.rows() {
                let (shard, sr) = if r < cut { (&a, r) } else { (&b, r - cut) };
                assert_eq!(shard.value(sr, 0, role), whole.value(r, 0, role));
                assert_eq!(shard.pivot_of(sr), whole.pivot_of(r));
            }
        }
    }

    #[test]
    fn non_active_attr_is_invisible() {
        let (g, q, ms, _) = setup();
        let role = g.interner().lookup_attr("role").unwrap();
        let year = g.interner().lookup_attr("year").unwrap();
        let t = MatchTable::build(&q, &ms, &g, &[role]);
        assert_eq!(t.value(0, 1, year), None);
    }
}
