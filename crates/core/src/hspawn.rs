//! Horizontal spawning (`HSpawn` / `NHSpawn`, §5.1): the levelwise literal
//! lattice per pattern and RHS literal.
//!
//! For each candidate consequence `l`, premise sets `X` grow levelwise
//! (`|X| = j` at level `j`, each set generated once in canonical order).
//! Lemma 4 pruning applies:
//!
//! * (a) trivial candidates (conflicting `X`, or `l` derivable from `X`)
//!   are dropped with their supersets;
//! * (b) as soon as `G ⊨ Q(X → l)` is verified, no superset of `X` is
//!   explored for this `l` — the set is recorded as *covered*, and covered
//!   sets inherited from ancestor patterns prune the child's lattice too
//!   (pattern-reduction, §4.1);
//! * (c) branches whose upper-bound support `|Q(G, Xl, z)|` falls below `σ`
//!   cannot become frequent (Theorem 3) and are cut.
//!
//! `NHSpawn`: every verified σ-frequent positive `Q(X → l)` spawns negative
//! candidates `Q(X ∪ {l'} → false)`; those with `Q(G, X∪{l'}, z) = ∅` are
//! negative GFDs whose support is the base's (§4.2 case (b)).

use gfd_graph::FxHashMap;
use gfd_logic::{ClosureScratch, Literal, Rhs};

use crate::bitmap::BitmapIndex;
use crate::catalog::LiteralCatalog;
use crate::config::DiscoveryConfig;
use crate::support::CandidateStats;
use crate::table::MatchTable;

/// Evaluation backend for the literal lattice. The sequential miner scans
/// one match table ([`TableEvaluator`]); `ParDis` scatters the same
/// evaluation over fragment tables and merges the partial results, so both
/// paths run the identical lattice logic (§6.2).
pub trait CandidateEvaluator {
    /// Global statistics of `X → rhs` over *all* matches of the pattern.
    fn evaluate(&mut self, x: &[Literal], rhs: &Rhs) -> CandidateStats;

    /// Whether no match satisfies `X` (the `NHSpawn` test). The default
    /// derives it from [`Self::evaluate`]; backends may early-exit.
    fn lhs_empty(&mut self, x: &[Literal]) -> bool {
        self.evaluate(x, &Rhs::False).lhs_matches == 0
    }

    /// Resets prefix-sharing state before one consequence's DFS lattice.
    /// Backends without prefix sharing ignore it.
    fn begin_rhs(&mut self) {}

    /// Evaluates `X ∪ {cand} → l` where `X` is the committed DFS prefix
    /// and `x` is the full canonical premise set (`X ∪ {cand}`, sorted).
    ///
    /// The default re-evaluates the whole set — exact and correct for any
    /// backend. Prefix-sharing backends override it with one AND against
    /// the cached parent accumulator and may return *decision-exact*
    /// shortcuts (see [`BitmapIndex::stack_eval_child`]): when `fast` is
    /// set and `min(parent_sat_hint, |rows ⊨ X∪{cand}|) < sigma`, support
    /// may be reported as `0` (the true value is provably `< sigma`) and
    /// `violations` as a 0/1 indicator; `lhs_pivots` may always be `0`.
    /// The lattice driver only branches on decisions these preserve.
    fn eval_child(
        &mut self,
        x: &[Literal],
        cand: Literal,
        l: Literal,
        parent_sat_hint: usize,
        sigma: usize,
        fast: bool,
    ) -> CandidateStats {
        let _ = (cand, parent_sat_hint, sigma, fast);
        self.evaluate(x, &Rhs::Lit(l))
    }

    /// Commits the last [`Self::eval_child`] result as the DFS prefix
    /// (descending into that child). No-op without prefix sharing.
    fn push_prefix(&mut self) {}

    /// Returns to the parent DFS prefix. No-op without prefix sharing.
    fn pop_prefix(&mut self) {}

    /// Deterministic evaluation work performed so far (bitmap words ANDed +
    /// popcounted); `0` for backends that do not meter themselves.
    fn work(&self) -> u64 {
        0
    }
}

/// Sequential evaluator over one match table, riding the per-literal
/// bitmap index: literal bitmaps build lazily on first use and persist
/// across every candidate of the pattern's lattice.
pub struct TableEvaluator<'a> {
    table: &'a MatchTable,
    index: BitmapIndex,
}

impl<'a> TableEvaluator<'a> {
    /// New evaluator over `table` (bitmaps build lazily).
    pub fn new(table: &'a MatchTable) -> TableEvaluator<'a> {
        TableEvaluator {
            table,
            index: BitmapIndex::new(table),
        }
    }
}

impl CandidateEvaluator for TableEvaluator<'_> {
    fn evaluate(&mut self, x: &[Literal], rhs: &Rhs) -> CandidateStats {
        self.index.evaluate(self.table, x, rhs)
    }

    fn lhs_empty(&mut self, x: &[Literal]) -> bool {
        !self.index.lhs_satisfiable(self.table, x)
    }

    fn begin_rhs(&mut self) {
        self.index.stack_begin(self.table);
    }

    fn eval_child(
        &mut self,
        _x: &[Literal],
        cand: Literal,
        l: Literal,
        parent_sat_hint: usize,
        sigma: usize,
        fast: bool,
    ) -> CandidateStats {
        self.index
            .stack_eval_child(self.table, cand, l, parent_sat_hint, sigma, fast)
    }

    fn push_prefix(&mut self) {
        self.index.stack_push();
    }

    fn pop_prefix(&mut self) {
        self.index.stack_pop();
    }

    fn work(&self) -> u64 {
        self.index.work()
    }
}

/// Evaluator over a row-range partition of one match set: each shard is a
/// [`MatchTable`] over a contiguous row range plus its own bitmap index, and
/// candidate statistics merge per-range through
/// [`crate::support::PartialStats`] — the same merge the cluster workers
/// use per fragment, but over deterministic even ranges. This is the
/// sequential embodiment of the `(rule, pivot-range)` work unit: the
/// work-stealing runtime evaluates the identical shards on different
/// workers and merges the identical partials in range order.
pub struct RangeEvaluator {
    shards: Vec<(MatchTable, BitmapIndex)>,
}

impl RangeEvaluator {
    /// Builds one shard per `(lo, hi)` row range of `ms`.
    pub fn new(
        q: &gfd_pattern::Pattern,
        ms: &gfd_pattern::MatchSet,
        g: &gfd_graph::Graph,
        attrs: &[gfd_graph::AttrId],
        ranges: &[(usize, usize)],
    ) -> RangeEvaluator {
        let shards = ranges
            .iter()
            .map(|&(lo, hi)| {
                let t = MatchTable::build_range(q, ms, g, attrs, lo, hi);
                let idx = BitmapIndex::new(&t);
                (t, idx)
            })
            .collect();
        RangeEvaluator { shards }
    }

    /// Total rows across shards.
    pub fn rows(&self) -> usize {
        self.shards.iter().map(|(t, _)| t.rows()).sum()
    }
}

impl CandidateEvaluator for RangeEvaluator {
    fn evaluate(&mut self, x: &[Literal], rhs: &Rhs) -> CandidateStats {
        let mut acc = crate::support::PartialStats::default();
        for (t, idx) in &mut self.shards {
            acc.merge(&idx.partial_evaluate(t, x, rhs));
        }
        acc.finalize()
    }

    fn lhs_empty(&mut self, x: &[Literal]) -> bool {
        self.shards
            .iter_mut()
            .all(|(t, idx)| !idx.lhs_satisfiable(t, x))
    }
}

/// A dependency mined on one pattern (pattern attached by the caller).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinedDependency {
    /// Premises `X`.
    pub lhs: Vec<Literal>,
    /// Consequence (`l` or `false`).
    pub rhs: Rhs,
    /// `supp(φ, G)` — for negatives, the support of the base (§4.2).
    pub support: usize,
    /// Matches satisfying `X` when the rule was verified (`0` for
    /// negatives, whose `X` is unmatched by construction).
    pub lhs_matches: usize,
    /// Matches violating `X → l` (`0` for exact and negative rules;
    /// positive only under `min_confidence < 1`).
    pub violations: usize,
}

impl MinedDependency {
    /// The rule's confidence (`1.0` for exact and negative rules).
    pub fn confidence(&self) -> f64 {
        if self.lhs_matches == 0 {
            1.0
        } else {
            (self.lhs_matches - self.violations) as f64 / self.lhs_matches as f64
        }
    }
}

/// Lattice-search counters (feed the experiment reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HSpawnStats {
    /// Candidates evaluated against the match table.
    pub candidates: usize,
    /// Subtrees cut by the support bound (Lemma 4(c)).
    pub pruned_support: usize,
    /// Sets skipped because a covered subset exists (Lemma 4(b)).
    pub pruned_covered: usize,
    /// Trivial candidates dropped (Lemma 4(a)).
    pub pruned_trivial: usize,
    /// Negative candidates tested by `NHSpawn`.
    pub negative_candidates: usize,
}

impl HSpawnStats {
    /// Accumulates counters from another run.
    pub fn merge(&mut self, other: &HSpawnStats) {
        self.candidates += other.candidates;
        self.pruned_support += other.pruned_support;
        self.pruned_covered += other.pruned_covered;
        self.pruned_trivial += other.pruned_trivial;
        self.negative_candidates += other.negative_candidates;
    }
}

/// A satisfied dependency signature `(X, l)`; covered sets prune supersets.
pub type Covered = (Vec<Literal>, Literal);

fn is_subset(small: &[Literal], big: &[Literal]) -> bool {
    // Both sorted.
    let mut it = big.iter();
    'outer: for s in small {
        for b in it.by_ref() {
            match b.cmp(s) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Mines all minimum dependencies of one pattern from its match table.
///
/// `covered` carries the satisfied sets inherited from ancestor patterns
/// (same variable indexing — extensions preserve variables) and is extended
/// with the sets satisfied here, for the caller to pass down to children.
pub fn mine_dependencies(
    table: &MatchTable,
    catalog: &LiteralCatalog,
    covered: &mut Vec<Covered>,
    cfg: &DiscoveryConfig,
) -> (Vec<MinedDependency>, HSpawnStats) {
    mine_dependencies_with(&mut TableEvaluator::new(table), catalog, covered, cfg)
}

/// [`mine_dependencies`] over an arbitrary evaluation backend.
pub fn mine_dependencies_with<E: CandidateEvaluator>(
    eval: &mut E,
    catalog: &LiteralCatalog,
    covered: &mut Vec<Covered>,
    cfg: &DiscoveryConfig,
) -> (Vec<MinedDependency>, HSpawnStats) {
    let mut out: Vec<MinedDependency> = Vec::new();
    let mut stats = HSpawnStats::default();
    let mut negatives: FxHashMap<Vec<Literal>, usize> = FxHashMap::default();
    // One union–find, reused across every candidate of this lattice
    // (~450k fresh allocations per run on the bench scenario before).
    let mut scratch = ClosureScratch::new();

    for &l in &catalog.literals {
        let o = mine_rhs_with(eval, catalog, l, covered, cfg, &mut scratch);
        merge_rhs_outcome(o, &mut out, covered, &mut negatives, &mut stats);
    }
    finish_negatives(negatives, &mut out);
    (out, stats)
}

/// Folds one consequence's outcome into the running lattice state — shared
/// by the sequential loop above and the work-stealing driver's per-`l`
/// merge, which must produce the identical result.
pub fn merge_rhs_outcome(
    o: RhsMineOutcome,
    out: &mut Vec<MinedDependency>,
    covered: &mut Vec<Covered>,
    negatives: &mut FxHashMap<Vec<Literal>, usize>,
    stats: &mut HSpawnStats,
) {
    out.extend(o.deps);
    covered.extend(o.covered_additions);
    // gfd-lint: allow(nondeterminism) — keyed `max` into a map is a commutative, associative fold; visit order cannot change the result
    for (x, support) in o.negatives {
        let entry = negatives.entry(x).or_insert(0);
        *entry = (*entry).max(support);
    }
    stats.merge(&o.stats);
}

/// Appends the accumulated negative GFDs in deterministic order — the tail
/// step of [`mine_dependencies_with`], shared with the per-`l` merge path.
pub fn finish_negatives(negatives: FxHashMap<Vec<Literal>, usize>, out: &mut Vec<MinedDependency>) {
    // gfd-lint: allow(nondeterminism) — drained into a Vec that is fully sorted on the next line; hash order never escapes
    let mut negatives: Vec<(Vec<Literal>, usize)> = negatives.into_iter().collect();
    negatives.sort_unstable();
    // gfd-lint: allow(nondeterminism) — `negatives` is the shadowing sorted Vec here, not the hash map parameter
    for (lhs, support) in negatives {
        out.push(MinedDependency {
            lhs,
            rhs: Rhs::False,
            support,
            lhs_matches: 0,
            violations: 0,
        });
    }
}

/// One consequence's sub-lattice result. Sub-lattices for distinct RHS
/// literals are *independent*: Lemma 4(b) pruning only ever consults
/// covered entries with the same consequence, and the `NHSpawn` negatives
/// merge by max over bases. This makes `(rule, pivot-range)` work units at
/// per-consequence granularity exact — the work-stealing runtime mines the
/// literals of one pattern on different workers and merges the outcomes in
/// catalog order, reproducing [`mine_dependencies_with`] bit for bit.
#[derive(Debug)]
pub struct RhsMineOutcome {
    /// Positive (and approximate) dependencies with this consequence, in
    /// lattice order.
    pub deps: Vec<MinedDependency>,
    /// Satisfied signatures recorded during this sub-lattice (all carry
    /// this consequence).
    pub covered_additions: Vec<Covered>,
    /// `NHSpawn` negatives: premise set → base support (max-merged by the
    /// caller).
    pub negatives: Vec<(Vec<Literal>, usize)>,
    /// This sub-lattice's counters.
    pub stats: HSpawnStats,
}

/// Canonical output order for one sub-lattice: graded lexicographic on the
/// premise set. Under catalog enumeration this is exactly the frontier
/// emission order (a no-op); under selectivity enumeration it restores the
/// same order, making rule sets bit-identical across literal orders.
fn canonicalize(o: &mut RhsMineOutcome) {
    // gfd-lint: allow(nondeterminism) — total: the last tie-break is the premise set, distinct within one consequence's lattice
    o.deps.sort_unstable_by(|a, b| {
        a.lhs
            .len()
            .cmp(&b.lhs.len())
            .then_with(|| a.lhs.cmp(&b.lhs))
    });
    o.covered_additions
        // gfd-lint: allow(nondeterminism) — total: the last tie-break is the premise set, distinct within one consequence's lattice
        .sort_unstable_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
}

/// Per-consequence covered-set index (Lemma 4(b)): entries bucketed by
/// their minimum literal, so a candidate `X` scans only the buckets of its
/// own elements instead of every covered entry — the former linear chain
/// walk per candidate was quadratic across the lattice. Every non-empty
/// subset's minimum is an element of `X`, so bucket probing is complete.
struct CoveredIndex {
    has_empty: bool,
    by_min: FxHashMap<Literal, Vec<Vec<Literal>>>,
}

impl CoveredIndex {
    /// Indexes the inherited entries carrying consequence `l`.
    fn new(inherited: &[Covered], l: Literal) -> CoveredIndex {
        let mut idx = CoveredIndex {
            has_empty: false,
            by_min: FxHashMap::default(),
        };
        for (cx, cl) in inherited {
            if *cl == l {
                idx.insert(cx.clone());
            }
        }
        idx
    }

    fn insert(&mut self, cx: Vec<Literal>) {
        match cx.first() {
            None => self.has_empty = true,
            Some(&m) => self.by_min.entry(m).or_default().push(cx),
        }
    }

    /// Whether some indexed set is a subset of (or equal to) sorted `x`.
    fn covers(&self, x: &[Literal]) -> bool {
        if self.has_empty {
            return true;
        }
        x.iter().any(|m| {
            self.by_min
                .get(m)
                .is_some_and(|sets| sets.iter().any(|s| is_subset(s, x)))
        })
    }
}

/// The DFS lattice walker: one stack frame per committed premise literal,
/// sharing the accumulated LHS bitmap with every descendant through the
/// evaluator's prefix stack.
struct LatticeDfs<'a, E: CandidateEvaluator> {
    eval: &'a mut E,
    catalog: &'a LiteralCatalog,
    order: &'a [Literal],
    l: Literal,
    cfg: &'a DiscoveryConfig,
    scratch: &'a mut ClosureScratch,
    cov: CoveredIndex,
    o: RhsMineOutcome,
    negatives: FxHashMap<Vec<Literal>, usize>,
    /// Current premise set in canonical (sorted) form — enumeration order
    /// and canonical order differ under selectivity ordering.
    x: Vec<Literal>,
}

impl<E: CandidateEvaluator> LatticeDfs<'_, E> {
    /// Visits the children of the current set: positions `start..` of the
    /// enumeration order, in **descending** position order. Descending is
    /// what makes DFS decisions identical to the levelwise frontier: at the
    /// first position where a proper non-prefix subset diverges from a set,
    /// the subset takes a *larger* position, so its branch completes before
    /// the superset's branch starts — every subset is still decided before
    /// any of its supersets, exactly as in breadth-first order (prefix
    /// subsets are DFS ancestors). Covered sets of equal size cannot prune
    /// each other (`is_subset` on equal-length distinct sets fails), so no
    /// other ordering constraint exists.
    fn visit_children(&mut self, start: usize, parent_sat_hint: usize) {
        for pos in (start..self.order.len()).rev() {
            let cand = self.order[pos];
            if cand == self.l {
                continue;
            }
            let ins = self.x.partition_point(|&e| e < cand);
            self.x.insert(ins, cand);
            self.visit(pos, cand, parent_sat_hint);
            self.x.remove(ins);
        }
    }

    /// Processes the candidate set `self.x` (= committed prefix ∪ `cand`).
    fn visit(&mut self, pos: usize, cand: Literal, parent_sat_hint: usize) {
        // Lemma 4(b) + pattern-reduction: skip sets covered by a satisfied
        // subset (here or on an ancestor pattern).
        if self.cov.covers(&self.x) {
            self.o.stats.pruned_covered += 1;
            return;
        }
        // Lemma 4(a): trivial candidates.
        let closure = self.scratch.of_literals(&self.x);
        if closure.is_conflicting() || closure.holds(&self.l) {
            self.o.stats.pruned_trivial += 1;
            return;
        }

        self.o.stats.candidates += 1;
        let fast = self.cfg.enable_pruning;
        let s = self
            .eval
            .eval_child(&self.x, cand, self.l, parent_sat_hint, self.cfg.sigma, fast);

        if s.satisfied() {
            self.cov.insert(self.x.clone());
            self.o.covered_additions.push((self.x.clone(), self.l));
            if s.support >= self.cfg.sigma {
                self.o.deps.push(MinedDependency {
                    lhs: self.x.clone(),
                    rhs: Rhs::Lit(self.l),
                    support: s.support,
                    lhs_matches: s.lhs_matches,
                    violations: 0,
                });
                if self.cfg.mine_negative {
                    nhspawn(
                        self.eval,
                        self.catalog,
                        &self.x,
                        self.l,
                        s.support,
                        &mut self.negatives,
                        &mut self.o.stats,
                        self.scratch,
                    );
                }
            }
            if self.cfg.enable_pruning {
                return; // no supersets for this l
            }
        } else if self.cfg.min_confidence < 1.0
            && s.support >= self.cfg.sigma
            && s.confidence() >= self.cfg.min_confidence
        {
            // Approximate acceptance: report the minimal premise set and
            // stop expanding — supersets would be non-reduced.
            self.o.deps.push(MinedDependency {
                lhs: self.x.clone(),
                rhs: Rhs::Lit(self.l),
                support: s.support,
                lhs_matches: s.lhs_matches,
                violations: s.violations,
            });
            return;
        } else if self.cfg.enable_pruning && s.support < self.cfg.sigma {
            // Lemma 4(c): no superset can reach σ.
            self.o.stats.pruned_support += 1;
            return;
        }

        if self.x.len() < self.cfg.max_lhs_size {
            // Expanded nodes always took the exact evaluation path (the σ
            // fast path only fires on branches that `return` above), so
            // their satisfied-row count is a sound monotone bound for every
            // child: rows ⊨ child-X ∧ l ⊆ rows ⊨ X ∧ l.
            let child_hint = if fast {
                s.lhs_matches - s.violations
            } else {
                usize::MAX
            };
            self.eval.push_prefix();
            self.visit_children(pos + 1, child_hint);
            self.eval.pop_prefix();
        }
    }
}

/// Mines the sub-lattice of one consequence `l` against the inherited
/// covered set (entries for other consequences are ignored by
/// construction).
///
/// Depth-first with prefix-shared accumulation: each premise set is
/// evaluated as one AND against its parent's cached accumulator (via
/// [`CandidateEvaluator::eval_child`]), enumeration follows
/// `cfg.literal_order`, and output is canonicalised so the result is
/// bit-identical to the levelwise [`mine_rhs_reference`] under either
/// order (the test suite pins the two together).
pub fn mine_rhs_with<E: CandidateEvaluator>(
    eval: &mut E,
    catalog: &LiteralCatalog,
    l: Literal,
    covered: &[Covered],
    cfg: &DiscoveryConfig,
    scratch: &mut ClosureScratch,
) -> RhsMineOutcome {
    let mut o = RhsMineOutcome {
        deps: Vec::new(),
        covered_additions: Vec::new(),
        negatives: Vec::new(),
        stats: HSpawnStats::default(),
    };

    // Upper bound for every candidate with this consequence.
    let mut root_bound: Option<CandidateStats> = None;
    if cfg.enable_pruning {
        let bound = eval.evaluate(&[], &Rhs::Lit(l));
        if bound.support < cfg.sigma {
            o.stats.pruned_support += 1;
            return o;
        }
        root_bound = Some(bound);
    }

    // Root ∅ — processed exactly as the frontier's level-0 set.
    let cov = CoveredIndex::new(covered, l);
    if cov.has_empty {
        o.stats.pruned_covered += 1;
        return o;
    }
    let closure = scratch.of_literals(&[]);
    if closure.is_conflicting() || closure.holds(&l) {
        o.stats.pruned_trivial += 1;
        return o;
    }
    o.stats.candidates += 1;
    // With pruning on, the σ-bound above *is* the root's evaluation
    // (deterministic evaluator, identical stats) — reuse it, saving a scan.
    let s = match root_bound {
        Some(b) => b,
        None => eval.evaluate(&[], &Rhs::Lit(l)),
    };

    let order = catalog.premise_order(cfg.literal_order);
    let mut dfs = LatticeDfs {
        eval,
        catalog,
        order: &order,
        l,
        cfg,
        scratch,
        cov,
        o,
        negatives: FxHashMap::default(),
        x: Vec::new(),
    };

    let mut expand_root = true;
    if s.satisfied() {
        dfs.cov.insert(Vec::new());
        dfs.o.covered_additions.push((Vec::new(), l));
        if s.support >= cfg.sigma {
            dfs.o.deps.push(MinedDependency {
                lhs: Vec::new(),
                rhs: Rhs::Lit(l),
                support: s.support,
                lhs_matches: s.lhs_matches,
                violations: 0,
            });
            if cfg.mine_negative {
                nhspawn(
                    dfs.eval,
                    catalog,
                    &[],
                    l,
                    s.support,
                    &mut dfs.negatives,
                    &mut dfs.o.stats,
                    dfs.scratch,
                );
            }
        }
        if cfg.enable_pruning {
            expand_root = false;
        }
    } else if cfg.min_confidence < 1.0
        && s.support >= cfg.sigma
        && s.confidence() >= cfg.min_confidence
    {
        dfs.o.deps.push(MinedDependency {
            lhs: Vec::new(),
            rhs: Rhs::Lit(l),
            support: s.support,
            lhs_matches: s.lhs_matches,
            violations: s.violations,
        });
        expand_root = false;
    } else if cfg.enable_pruning && s.support < cfg.sigma {
        dfs.o.stats.pruned_support += 1;
        expand_root = false;
    }

    if expand_root && cfg.max_lhs_size > 0 {
        let hint = if cfg.enable_pruning {
            s.lhs_matches - s.violations
        } else {
            usize::MAX
        };
        dfs.eval.begin_rhs();
        dfs.visit_children(0, hint);
    }

    let mut o = dfs.o;
    // gfd-lint: allow(nondeterminism) — drained into a Vec that is fully sorted on the next line; hash order never escapes
    let mut negatives: Vec<(Vec<Literal>, usize)> = dfs.negatives.into_iter().collect();
    negatives.sort_unstable();
    o.negatives = negatives;
    canonicalize(&mut o);
    o
}

/// The levelwise frontier implementation of [`mine_rhs_with`] — the
/// original algorithm, kept verbatim (linear covered scans, full LHS
/// re-accumulation per candidate) as the equivalence oracle for the
/// DFS/prefix-shared path. It honours the same enumeration order and the
/// same output canonicalisation, so `mine_rhs_with` must reproduce it bit
/// for bit.
pub fn mine_rhs_reference<E: CandidateEvaluator>(
    eval: &mut E,
    catalog: &LiteralCatalog,
    l: Literal,
    covered: &[Covered],
    cfg: &DiscoveryConfig,
    scratch: &mut ClosureScratch,
) -> RhsMineOutcome {
    let mut o = RhsMineOutcome {
        deps: Vec::new(),
        covered_additions: Vec::new(),
        negatives: Vec::new(),
        stats: HSpawnStats::default(),
    };

    // Upper bound for every candidate with this consequence.
    if cfg.enable_pruning {
        let bound = eval.evaluate(&[], &Rhs::Lit(l));
        if bound.support < cfg.sigma {
            o.stats.pruned_support += 1;
            return o;
        }
    }

    let order = catalog.premise_order(cfg.literal_order);
    let mut negatives: FxHashMap<Vec<Literal>, usize> = FxHashMap::default();
    // Frontier sets as ascending positions into the enumeration order.
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    let mut level = 0usize;

    while !frontier.is_empty() && level <= cfg.max_lhs_size {
        let mut next: Vec<Vec<usize>> = Vec::new();
        for xp in frontier {
            let mut x: Vec<Literal> = xp.iter().map(|&p| order[p]).collect();
            x.sort_unstable();
            // Lemma 4(b) + pattern-reduction: skip sets covered by a
            // satisfied subset (here or on an ancestor pattern).
            if covered
                .iter()
                .chain(o.covered_additions.iter())
                .any(|(cx, cl)| *cl == l && is_subset(cx, &x))
            {
                o.stats.pruned_covered += 1;
                continue;
            }
            // Lemma 4(a): trivial candidates.
            let closure = scratch.of_literals(&x);
            if closure.is_conflicting() || closure.holds(&l) {
                o.stats.pruned_trivial += 1;
                continue;
            }

            o.stats.candidates += 1;
            // gfd-lint: allow(perf) — the BFS reference is deliberately the unshared full-set evaluation the DFS is proptested against
            let s = eval.evaluate(&x, &Rhs::Lit(l));

            if s.satisfied() {
                o.covered_additions.push((x.clone(), l));
                if s.support >= cfg.sigma {
                    o.deps.push(MinedDependency {
                        lhs: x.clone(),
                        rhs: Rhs::Lit(l),
                        support: s.support,
                        lhs_matches: s.lhs_matches,
                        violations: 0,
                    });
                    if cfg.mine_negative {
                        nhspawn(
                            eval,
                            catalog,
                            &x,
                            l,
                            s.support,
                            &mut negatives,
                            &mut o.stats,
                            scratch,
                        );
                    }
                }
                if cfg.enable_pruning {
                    continue; // no supersets for this l
                }
            } else if cfg.min_confidence < 1.0
                && s.support >= cfg.sigma
                && s.confidence() >= cfg.min_confidence
            {
                // Approximate acceptance (§8's confidence adaptation):
                // report the minimal premise set reaching the threshold
                // and stop expanding this branch — supersets would be
                // non-reduced. No NHSpawn: a violated base proves nothing
                // about non-existence.
                o.deps.push(MinedDependency {
                    lhs: x.clone(),
                    rhs: Rhs::Lit(l),
                    support: s.support,
                    lhs_matches: s.lhs_matches,
                    violations: s.violations,
                });
                continue;
            } else if cfg.enable_pruning && s.support < cfg.sigma {
                // Lemma 4(c): no superset can reach σ.
                o.stats.pruned_support += 1;
                continue;
            }

            if xp.len() < cfg.max_lhs_size {
                // Canonical expansion: extend only past the maximum
                // position so every set is generated exactly once.
                let start = xp.last().map_or(0, |&p| p + 1);
                for (p, &lit) in order.iter().enumerate().skip(start) {
                    if lit == l {
                        continue;
                    }
                    let mut child = xp.clone();
                    child.push(p);
                    next.push(child);
                }
            }
        }
        frontier = next;
        level += 1;
    }

    // gfd-lint: allow(nondeterminism) — drained into a Vec that is fully sorted on the next line; hash order never escapes
    let mut negatives: Vec<(Vec<Literal>, usize)> = negatives.into_iter().collect();
    negatives.sort_unstable();
    o.negatives = negatives;
    canonicalize(&mut o);
    o
}

/// `NHSpawn` (§5.1): from the σ-frequent verified base `Q(X → l)`, test
/// `X' = X ∪ {l'}` for emptiness of `Q(G, X', z)`.
#[allow(clippy::too_many_arguments)]
fn nhspawn<E: CandidateEvaluator>(
    eval: &mut E,
    catalog: &LiteralCatalog,
    x: &[Literal],
    l: Literal,
    base_support: usize,
    negatives: &mut FxHashMap<Vec<Literal>, usize>,
    stats: &mut HSpawnStats,
    scratch: &mut ClosureScratch,
) {
    for &extra in &catalog.literals {
        if extra == l || x.contains(&extra) {
            continue;
        }
        // gfd-lint: allow(perf) — the map key must own its premise set; X' is rebuilt per extra literal by construction
        let mut x2 = x.to_vec();
        x2.push(extra);
        x2.sort_unstable();
        // A conflicting X' is trivially unmatchable — not a negative GFD.
        if scratch.of_literals(&x2).is_conflicting() {
            continue;
        }
        stats.negative_candidates += 1;
        if eval.lhs_empty(&x2) {
            let entry = negatives.entry(x2).or_insert(0);
            *entry = (*entry).max(base_support);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{Graph, GraphBuilder, Value};
    use gfd_pattern::{find_all, PLabel, Pattern};

    /// 5 creators: 4 producers of films, 1 director of a show. No producer
    /// ever creates a show ⇒ NHSpawn finds Q(x.type=producer ∧ y.type=show
    /// → false)-style negatives.
    fn setup(cfg_sigma: usize) -> (Graph, MatchTable, LiteralCatalog, DiscoveryConfig) {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            let p = b.add_node("person");
            let f = b.add_node("product");
            if i < 4 {
                b.set_attr(p, "type", "producer");
                b.set_attr(f, "type", "film");
            } else {
                b.set_attr(p, "type", "director");
                b.set_attr(f, "type", "show");
            }
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
        let table = MatchTable::build(&q, &ms, &g, &[ty]);
        let catalog = LiteralCatalog::harvest(&table, 5, 1);
        let mut cfg = DiscoveryConfig::new(2, cfg_sigma);
        cfg.max_lhs_size = 2;
        (g, table, catalog, cfg)
    }

    fn val(g: &Graph, s: &str) -> Value {
        Value::Str(g.interner().lookup_symbol(s).unwrap())
    }

    #[test]
    fn mines_film_implies_producer() {
        let (g, table, catalog, mut cfg) = setup(3);
        cfg.mine_negative = false;
        let mut covered = Vec::new();
        let (deps, stats) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        let ty = g.interner().lookup_attr("type").unwrap();
        let want = MinedDependency {
            lhs: vec![Literal::constant(1, ty, val(&g, "film"))],
            rhs: Rhs::Lit(Literal::constant(0, ty, val(&g, "producer"))),
            support: 4,
            lhs_matches: 4,
            violations: 0,
        };
        assert!(deps.contains(&want), "deps: {deps:?}");
        assert!(stats.candidates > 0);
        // The satisfied set is recorded as covered.
        assert!(covered
            .iter()
            .any(|(x, l)| x == &want.lhs && Rhs::Lit(*l) == want.rhs));
    }

    #[test]
    fn lemma4b_blocks_supersets() {
        let (g, table, catalog, mut cfg) = setup(3);
        cfg.mine_negative = false;
        let mut covered = Vec::new();
        let (deps, _) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        let ty = g.interner().lookup_attr("type").unwrap();
        let film = Literal::constant(1, ty, val(&g, "film"));
        let producer_rhs = Rhs::Lit(Literal::constant(0, ty, val(&g, "producer")));
        // No mined dependency with consequence `producer` strictly extends
        // the already-sufficient premise {film}.
        for d in &deps {
            if d.rhs == producer_rhs && d.lhs.len() > 1 {
                assert!(!is_subset(&[film], &d.lhs), "non-reduced: {d:?}");
            }
        }
    }

    #[test]
    fn inherited_covered_sets_prune() {
        let (g, table, catalog, cfg) = setup(3);
        let ty = g.interner().lookup_attr("type").unwrap();
        let film = Literal::constant(1, ty, val(&g, "film"));
        let producer = Literal::constant(0, ty, val(&g, "producer"));
        // Pretend an ancestor already validated {film} → producer.
        let mut covered = vec![(vec![film], producer)];
        let (deps, stats) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        assert!(!deps
            .iter()
            .any(|d| d.rhs == Rhs::Lit(producer) && d.lhs == vec![film]));
        assert!(stats.pruned_covered > 0);
    }

    #[test]
    fn sigma_prunes_infrequent_consequences() {
        // σ=5 exceeds every pivot count (4 producers / 1 director).
        let (_, table, catalog, cfg) = setup(5);
        let mut covered = Vec::new();
        let (deps, stats) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        assert!(deps.is_empty());
        assert!(stats.pruned_support > 0);
    }

    #[test]
    fn nhspawn_finds_negative_combination() {
        let (g, table, catalog, cfg) = setup(3);
        let mut covered = Vec::new();
        let (deps, stats) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        let ty = g.interner().lookup_attr("type").unwrap();
        // producer ∧ show never co-occurs: expect some negative with these.
        let producer = Literal::constant(0, ty, val(&g, "producer"));
        let show = Literal::constant(1, ty, val(&g, "show"));
        let neg = deps
            .iter()
            .find(|d| d.rhs == Rhs::False && d.lhs.contains(&producer) && d.lhs.contains(&show));
        assert!(neg.is_some(), "negatives: {deps:?}");
        assert!(neg.unwrap().support >= cfg.sigma);
        assert!(stats.negative_candidates > 0);
    }

    #[test]
    fn no_pruning_explores_supersets() {
        let (_, table, catalog, mut cfg) = setup(3);
        cfg.mine_negative = false;
        let mut cov1 = Vec::new();
        let (_, with_pruning) = mine_dependencies(&table, &catalog, &mut cov1, &cfg);
        cfg.enable_pruning = false;
        let mut cov2 = Vec::new();
        let (_, without) = mine_dependencies(&table, &catalog, &mut cov2, &cfg);
        assert!(without.candidates > with_pruning.candidates);
    }

    /// 15 creators: 9 producers + 1 actor create films, 5 directors
    /// create shows. Exact mining loses `film → producer` to the single
    /// dirty match; approximate mining at θ = 0.85 recovers it with
    /// confidence 0.9. The director/show pairs keep `∅ → producer` below
    /// the threshold (9/15), so `{film}` is the minimal premise set.
    fn noisy_setup() -> (Graph, MatchTable, LiteralCatalog, DiscoveryConfig) {
        let mut b = GraphBuilder::new();
        for i in 0..15 {
            let p = b.add_node("person");
            let f = b.add_node("product");
            if i < 10 {
                b.set_attr(p, "type", if i == 0 { "actor" } else { "producer" });
                b.set_attr(f, "type", "film");
            } else {
                b.set_attr(p, "type", "director");
                b.set_attr(f, "type", "show");
            }
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
        let table = MatchTable::build(&q, &ms, &g, &[ty]);
        let catalog = LiteralCatalog::harvest(&table, 5, 1);
        let mut cfg = DiscoveryConfig::new(2, 5);
        cfg.max_lhs_size = 2;
        cfg.mine_negative = false;
        (g, table, catalog, cfg)
    }

    #[test]
    fn exact_mining_loses_dirty_rule() {
        let (g, table, catalog, cfg) = noisy_setup();
        let mut covered = Vec::new();
        let (deps, _) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        let ty = g.interner().lookup_attr("type").unwrap();
        let producer_rhs = Rhs::Lit(Literal::constant(0, ty, val(&g, "producer")));
        let film = Literal::constant(1, ty, val(&g, "film"));
        assert!(
            !deps
                .iter()
                .any(|d| d.rhs == producer_rhs && d.lhs == vec![film]),
            "exact mining must reject the violated rule"
        );
    }

    #[test]
    fn approximate_mining_recovers_noisy_rule() {
        let (g, table, catalog, mut cfg) = noisy_setup();
        cfg.min_confidence = 0.85;
        let mut covered = Vec::new();
        let (deps, _) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        let ty = g.interner().lookup_attr("type").unwrap();
        let producer_rhs = Rhs::Lit(Literal::constant(0, ty, val(&g, "producer")));
        let film = Literal::constant(1, ty, val(&g, "film"));
        let found = deps
            .iter()
            .find(|d| d.rhs == producer_rhs && d.lhs == vec![film])
            .expect("approximate mining recovers the rule");
        assert_eq!(found.support, 9);
        assert_eq!(found.violations, 1);
        assert_eq!(found.lhs_matches, 10);
        assert!((found.confidence() - 0.9).abs() < 1e-9);
        // Approximate rules never spawn negatives.
        assert!(deps.iter().all(|d| d.rhs != Rhs::False));
    }

    #[test]
    fn confidence_threshold_still_rejects_noise_below_it() {
        let (g, table, catalog, mut cfg) = noisy_setup();
        cfg.min_confidence = 0.95; // above the dirty rule's 0.9
        let mut covered = Vec::new();
        let (deps, _) = mine_dependencies(&table, &catalog, &mut covered, &cfg);
        let ty = g.interner().lookup_attr("type").unwrap();
        let producer_rhs = Rhs::Lit(Literal::constant(0, ty, val(&g, "producer")));
        let film = Literal::constant(1, ty, val(&g, "film"));
        assert!(!deps
            .iter()
            .any(|d| d.rhs == producer_rhs && d.lhs == vec![film]));
    }

    /// The range evaluator (per-shard partial stats merged in range order)
    /// must mine exactly what the whole-table evaluator mines, for every
    /// way of cutting the rows.
    #[test]
    fn range_evaluator_equals_table_evaluator() {
        let (g, table, catalog, cfg) = setup(3);
        let q = Pattern::edge(
            PLabel::Is(g.interner().lookup_label("person").unwrap()),
            PLabel::Is(g.interner().lookup_label("create").unwrap()),
            PLabel::Is(g.interner().lookup_label("product").unwrap()),
        );
        let ms = find_all(&q, &g);
        let ty = g.interner().lookup_attr("type").unwrap();

        let mut covered = Vec::new();
        let (want_deps, want_stats) = mine_dependencies(&table, &catalog, &mut covered, &cfg);

        for cuts in [vec![(0, ms.len())], vec![(0, 2), (2, 4), (4, ms.len())]] {
            let mut eval = RangeEvaluator::new(&q, &ms, &g, &[ty], &cuts);
            assert_eq!(eval.rows(), ms.len());
            let mut cov = Vec::new();
            let (deps, stats) = mine_dependencies_with(&mut eval, &catalog, &mut cov, &cfg);
            assert_eq!(deps, want_deps, "cuts={cuts:?}");
            assert_eq!(stats, want_stats, "cuts={cuts:?}");
            assert_eq!(cov, covered, "cuts={cuts:?}");
        }
    }

    #[test]
    fn subset_helper() {
        let a = Literal::constant(0, gfd_graph::AttrId(0), Value::Int(1));
        let b = Literal::constant(0, gfd_graph::AttrId(0), Value::Int(2));
        let c = Literal::constant(1, gfd_graph::AttrId(0), Value::Int(1));
        assert!(is_subset(&[], &[a]));
        assert!(is_subset(&[a], &[a, b]));
        assert!(is_subset(&[a, c], &[a, b, c]));
        assert!(!is_subset(&[b], &[a]));
        assert!(!is_subset(&[a, b], &[a]));
    }
}
