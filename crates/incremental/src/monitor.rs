//! The violation monitor: incremental `G ⊨ Σ` maintenance.
//!
//! `G ⊨ φ` is decided one match at a time (§2): every match `h` of `Q`
//! must satisfy `X → l`. No update changes a node's label, so a batch can
//! change a verdict only for a match that contains a node the batch
//! touches. The monitor re-checks exactly those matches:
//!
//! 1. each rule's pattern has one compiled plan per pattern variable
//!    ([`CompiledPattern::compile_bound`]), shared by every rule on that
//!    pattern; seeding the plan of `x` at a node `v` enumerates exactly
//!    the matches with `h(x) = v`;
//! 2. an attribute op on `(v, A)` can flip a match only if the match maps
//!    `v` to a variable whose literals read `A`. A read-set index
//!    `A → [(rule, x)]`, built with the plans, names those anchors, and
//!    the op is patched into the monitor's [`Graph`] in place;
//! 3. a batch that adds nodes or adds or removes edges rebuilds the graph
//!    through [`GraphState`] and anchors every variable of every rule at
//!    each touched node: on the graph before the batch to find the
//!    matches it lost, and on the graph after it to find the matches it
//!    gained or changed;
//! 4. per rule, a re-checked match's old verdict is its membership in the
//!    stored violation set and its new verdict is `match_satisfies` on the
//!    new graph; a match the new graph no longer has is gone.
//!
//! Every other match keeps its stored verdict, so a write costs the
//! matches through its touched nodes. The same path serves every batch
//! kind.
//!
//! The monitor accepts base GFDs and extended GFDs (`gfd-extended`) in
//! one rule set, and reports per-batch deltas (violations introduced and
//! repaired), which is what a knowledge-base curation pipeline consumes.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use gfd_core::BoundValidator;
use gfd_extended::{Operand, XGfd, XRhs};
use gfd_graph::{AttrId, FxHashMap, Graph, NodeId};
use gfd_logic::{Gfd, Literal, Rhs};
use gfd_pattern::{CompiledPattern, MatcherScratch, Pattern, Var};

use crate::state::GraphState;
use crate::update::{Update, UpdateBatch};

/// A monitored rule: base or extended GFD.
#[derive(Clone, Debug)]
pub enum MonitorRule {
    /// A base GFD (`gfd-logic`).
    Base(Gfd),
    /// An extended GFD with built-in predicates (`gfd-extended`).
    Extended(XGfd),
}

impl MonitorRule {
    /// The rule's pattern.
    pub fn pattern(&self) -> &Pattern {
        match self {
            MonitorRule::Base(g) => g.pattern(),
            MonitorRule::Extended(x) => x.pattern(),
        }
    }

    /// Whether match `m` satisfies the rule's dependency in `g`.
    pub fn match_satisfies(&self, m: &[NodeId], g: &Graph) -> bool {
        match self {
            MonitorRule::Base(gfd) => gfd_logic::match_satisfies(gfd, m, g),
            MonitorRule::Extended(x) => gfd_extended::match_satisfies(x, m, g),
        }
    }

    /// The `(variable, attribute)` terms the premise and consequence read,
    /// sorted and deduplicated. A match's verdict depends on the graph
    /// only through these terms and the match itself, so an attribute
    /// write can flip a match only through one of them.
    pub(crate) fn read_terms(&self) -> Vec<(Var, AttrId)> {
        let mut terms = Vec::new();
        match self {
            MonitorRule::Base(gfd) => {
                let rhs = match gfd.rhs() {
                    Rhs::Lit(l) => Some(l),
                    Rhs::False => None,
                };
                for lit in gfd.lhs().iter().chain(&rhs) {
                    match *lit {
                        Literal::Const { var, attr, .. } => terms.push((var, attr)),
                        Literal::VarVar {
                            lvar,
                            lattr,
                            rvar,
                            rattr,
                        } => terms.extend([(lvar, lattr), (rvar, rattr)]),
                    }
                }
            }
            MonitorRule::Extended(x) => {
                let rhs = match x.rhs() {
                    XRhs::Lit(l) => Some(l),
                    XRhs::False => None,
                };
                for lit in x.lhs().iter().chain(&rhs) {
                    terms.push((lit.lhs.var, lit.lhs.attr));
                    if let Operand::Term(t, _) = lit.rhs {
                        terms.push((t.var, t.attr));
                    }
                }
            }
        }
        terms.sort_unstable();
        terms.dedup();
        terms
    }
}

impl From<Gfd> for MonitorRule {
    fn from(g: Gfd) -> Self {
        MonitorRule::Base(g)
    }
}

impl From<XGfd> for MonitorRule {
    fn from(x: XGfd) -> Self {
        MonitorRule::Extended(x)
    }
}

/// Per-rule violation changes from one batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleDelta {
    /// Violating matches introduced by the batch.
    pub added: Vec<Vec<NodeId>>,
    /// Previously-violating matches repaired (or destroyed) by the batch.
    pub removed: Vec<Vec<NodeId>>,
}

/// The outcome of applying one update batch.
#[derive(Clone, Debug, Default)]
pub struct ViolationDelta {
    /// One delta per monitored rule, in rule order.
    pub per_rule: Vec<RuleDelta>,
    /// Distinct `(rule, pivot image)` pairs among the matches the batch
    /// re-checked: the pivots whose stored violations it could change.
    pub affected_pivots: usize,
}

impl ViolationDelta {
    /// Total violations introduced.
    pub fn added(&self) -> usize {
        self.per_rule.iter().map(|d| d.added.len()).sum()
    }

    /// Total violations repaired.
    pub fn removed(&self) -> usize {
        self.per_rule.iter().map(|d| d.removed.len()).sum()
    }

    /// Whether the batch left the violation set unchanged.
    pub fn is_unchanged(&self) -> bool {
        self.added() == 0 && self.removed() == 0
    }
}

/// A probe a batch runs: rule index, pattern variable, and the node the
/// variable is seeded at.
type Anchor = (usize, Var, NodeId);

/// A match keyed by its pivot image, the order of the stored violations.
type Keyed = (NodeId, Vec<NodeId>);

/// One pattern's compiled plans: one rooted at each pattern variable.
#[derive(Clone)]
struct RulePlans {
    /// Rooted at the pivot: the initial enumeration and every entity read
    /// use it.
    pivot: Arc<CompiledPattern>,
    /// Rooted at each other variable, in variable order.
    others: Arc<[CompiledPattern]>,
}

impl RulePlans {
    /// The plan rooted at `x`: seeded at `v`, it enumerates the matches
    /// with `h(x) = v`.
    fn rooted_at(&self, x: Var) -> &CompiledPattern {
        match x.cmp(&self.pivot.start_var()) {
            Ordering::Less => &self.others[x],
            Ordering::Equal => &self.pivot,
            Ordering::Greater => &self.others[x - 1],
        }
    }
}

/// Every match of one rule in `g` through `anchors` (that rule's anchors,
/// sorted), keyed by pivot image, sorted and deduplicated. An anchor at a
/// node `g` does not have (one the batch adds, probed on the graph before
/// it) finds nothing.
fn matches_through(
    plans: &RulePlans,
    g: &Graph,
    anchors: &[Anchor],
    scratch: &mut MatcherScratch,
) -> Vec<Keyed> {
    let pivot = plans.pivot.start_var();
    let mut found: Vec<Keyed> = Vec::new();
    for by_var in anchors.chunk_by(|a, b| a.1 == b.1) {
        let plan = plans.rooted_at(by_var[0].1);
        let mut matcher = plan.matcher_from(g, std::mem::take(scratch));
        for &(_, _, v) in by_var {
            if v.index() < g.node_count() {
                let _ = matcher.for_each_at(v, |m| {
                    found.push((m[pivot], m.to_vec()));
                    ControlFlow::Continue(())
                });
            }
        }
        *scratch = matcher.into_scratch();
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// Panics unless every node an update names exists when it applies: the
/// graph's `nodes` plus the nodes the batch adds before it. Runs before
/// any op is applied, so a bad batch leaves the monitor untouched.
fn check_node_ids(batch: &UpdateBatch, mut nodes: usize) {
    for (i, u) in batch.ops().iter().enumerate() {
        let named: &[NodeId] = match u {
            Update::AddNode { .. } => {
                nodes += 1;
                &[]
            }
            Update::AddEdge { src, dst, .. } | Update::RemoveEdge { src, dst, .. } => &[*src, *dst],
            Update::SetAttr { node, .. } | Update::RemoveAttr { node, .. } => {
                std::slice::from_ref(node)
            }
        };
        for n in named {
            assert!(
                n.index() < nodes,
                "update {i} names node {} but the graph has {nodes} nodes",
                n.index()
            );
        }
    }
}

/// Demand-path counters: what monitor queries and batches probed. All
/// values are pure functions of the input sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Anchored probes: one per `(rule, variable, node)` anchor a batch
    /// re-checks (a topology batch runs each on the graph before and
    /// after it), plus one per rule per
    /// [`ViolationMonitor::validate_entity`] call.
    pub bound_queries: u64,
    /// Never incremented: a batch re-checks only the matches through its
    /// anchors and has no full re-enumeration fallback. The field stays
    /// because `perfbench/src/workload.rs` still reads it.
    pub bound_fallbacks: u64,
    /// Deterministic memory-touch meter of the bound literal evaluation
    /// (see [`BoundValidator::work`]).
    pub validation_work: u64,
    /// Distinct patterns whose plan sets were compiled across
    /// construction and catalog refreshes.
    pub plans_compiled: u64,
    /// Distinct patterns of a refreshed catalog whose plan sets carried
    /// over from the previous catalog instead of recompiling.
    pub plan_cache_hits: u64,
}

/// Per-rule outcome of a single-entity validation query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntityVerdict {
    /// Index of the violated rule in [`ViolationMonitor::rules`].
    pub rule: usize,
    /// The violating matches pivoted at the queried entity.
    pub violations: Vec<Vec<NodeId>>,
}

/// Incrementally maintained violation sets for a rule set over an
/// evolving graph.
pub struct ViolationMonitor {
    rules: Vec<MonitorRule>,
    /// Per rule: its pattern's plan set, `Arc`-shared with `plan_cache`
    /// and with every other rule on the same pattern.
    plans: Vec<RulePlans>,
    /// Plan sets keyed by pattern, pivot included: plans are
    /// graph-independent and depend on nothing else. Rebuilt from the
    /// rule list on every install, so a refresh keeps the plans of the
    /// patterns that stay and drops the rest.
    plan_cache: FxHashMap<Pattern, RulePlans>,
    /// Read-set index: per attribute, the `(rule, variable)` pairs whose
    /// literals read it, in rule and then variable order.
    readers: BTreeMap<AttrId, Vec<(usize, Var)>>,
    graph: Graph,
    /// Per rule: violating matches keyed `(pivot image, match)`, so the
    /// violations pivoted at one node are one contiguous range.
    violations: Vec<BTreeSet<Keyed>>,
    stats: MonitorStats,
}

impl ViolationMonitor {
    /// Builds the monitor over its own copy of `g` with a full initial
    /// validation pass.
    pub fn new(g: &Graph, rules: Vec<MonitorRule>) -> ViolationMonitor {
        let mut mon = ViolationMonitor {
            rules: Vec::new(),
            plans: Vec::new(),
            plan_cache: FxHashMap::default(),
            readers: BTreeMap::new(),
            graph: g.clone(),
            violations: Vec::new(),
            stats: MonitorStats::default(),
        };
        mon.install_rules(rules);
        mon
    }

    /// Replaces the monitored rule set and revalidates. Plans of the
    /// patterns the old rule set already had are reused instead of
    /// recompiled; plans no new rule uses are dropped.
    pub fn refresh_catalog(&mut self, rules: Vec<MonitorRule>) {
        self.install_rules(rules);
    }

    fn install_rules(&mut self, rules: Vec<MonitorRule>) {
        // The new patterns' pivot plans are compiled first and their other
        // variables' plans after them, so the pivot plans that every
        // entity read walks lie together in memory. The previous map drops
        // at the end with the plans no rule uses any more.
        let mut previous = std::mem::take(&mut self.plan_cache);
        let mut fresh: Vec<&Pattern> = Vec::new();
        for q in rules.iter().map(MonitorRule::pattern) {
            if self.plan_cache.contains_key(q) {
                continue;
            }
            let plans = match previous.remove(q) {
                Some(plans) => {
                    self.stats.plan_cache_hits += 1;
                    plans
                }
                None => {
                    self.stats.plans_compiled += 1;
                    fresh.push(q);
                    RulePlans {
                        pivot: Arc::new(CompiledPattern::new(q)),
                        others: Arc::new([]),
                    }
                }
            };
            self.plan_cache.insert(q.clone(), plans);
        }
        for q in fresh {
            if let Some(plans) = self.plan_cache.get_mut(q) {
                plans.others = (0..q.node_count())
                    .filter(|&x| x != q.pivot())
                    .map(|x| CompiledPattern::compile_bound(q, x))
                    .collect();
            }
        }
        self.plans = rules
            .iter()
            .map(|r| self.plan_cache[r.pattern()].clone())
            .collect();
        self.readers = BTreeMap::new();
        for (i, rule) in rules.iter().enumerate() {
            for (x, attr) in rule.read_terms() {
                self.readers.entry(attr).or_default().push((i, x));
            }
        }
        self.violations = Vec::with_capacity(rules.len());
        for (rule, plans) in rules.iter().zip(&self.plans) {
            let pivot = rule.pattern().pivot();
            let mut set = BTreeSet::new();
            let _ = plans.pivot.matcher(&self.graph).for_each(|m| {
                if !rule.match_satisfies(m, &self.graph) {
                    set.insert((m[pivot], m.to_vec()));
                }
                ControlFlow::Continue(())
            });
            self.violations.push(set);
        }
        self.rules = rules;
    }

    /// The monitored rules.
    pub fn rules(&self) -> &[MonitorRule] {
        &self.rules
    }

    /// Demand-path probe and work counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Single-entity bound validation: "does *this* node currently pivot a
    /// violation of any monitored rule?" Each rule is answered by seeding
    /// its cached pivot-rooted plan at `v` and evaluating over only the
    /// matches through `v` — base rules route through [`BoundValidator`]
    /// (no global match table), extended rules check their built-in
    /// predicates per streamed match. Returns the rules `v` violates, with
    /// the offending matches.
    pub fn validate_entity(&mut self, v: NodeId) -> Vec<EntityVerdict> {
        let mut out = Vec::new();
        let mut validator = BoundValidator::new(&self.graph);
        for (i, rule) in self.rules.iter().enumerate() {
            self.stats.bound_queries += 1;
            let plan = &self.plans[i].pivot;
            let violations: Vec<Vec<NodeId>> = match rule {
                MonitorRule::Base(gfd) => {
                    let mut ms = gfd_pattern::MatchSet::new(gfd.pattern().node_count());
                    validator.violations_at(gfd, plan, v, &mut ms);
                    ms.iter().map(<[NodeId]>::to_vec).collect()
                }
                MonitorRule::Extended(_) => {
                    let mut found = Vec::new();
                    let mut matcher = plan.matcher(&self.graph);
                    let _ = matcher.for_each_at(v, |m| {
                        if !rule.match_satisfies(m, &self.graph) {
                            found.push(m.to_vec());
                        }
                        ControlFlow::Continue(())
                    });
                    found
                }
            };
            if !violations.is_empty() {
                out.push(EntityVerdict {
                    rule: i,
                    violations,
                });
            }
        }
        self.stats.validation_work += validator.work();
        out
    }

    /// The current (post-update) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current violating matches of rule `i`, ordered by pivot image and
    /// then by match.
    pub fn violations(&self, i: usize) -> impl Iterator<Item = &[NodeId]> {
        self.violations[i].iter().map(|(_, m)| m.as_slice())
    }

    /// Total current violations across rules.
    pub fn total_violations(&self) -> usize {
        self.violations.iter().map(BTreeSet::len).sum()
    }

    /// Whether the graph currently satisfies every monitored rule.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Applies a batch and reports the violation delta. An
    /// attribute-only batch is patched into the graph in place; a batch
    /// that adds nodes or adds or removes edges rebuilds it. Either way,
    /// only the matches through the batch's anchors are re-checked.
    ///
    /// # Panics
    /// Panics, before applying any op, if an op names a node that does
    /// not exist when it applies (see [`UpdateBatch::add_node`] for the
    /// ids a batch's own node additions receive).
    pub fn apply(&mut self, batch: &UpdateBatch) -> ViolationDelta {
        check_node_ids(batch, self.graph.node_count());
        let (mut anchors, before) = self.patch(batch);
        anchors.sort_unstable();
        anchors.dedup();
        self.stats.bound_queries += anchors.len() as u64;

        let mut delta = ViolationDelta {
            per_rule: vec![RuleDelta::default(); self.rules.len()],
            affected_pivots: 0,
        };
        let mut scratch = MatcherScratch::new();
        for group in anchors.chunk_by(|a, b| a.0 == b.0) {
            let i = group[0].0;
            let rule = &self.rules[i];
            // Only a topology batch can lose a match; the matches through
            // the anchors on the graph before it are the candidates.
            let lost = match &before {
                Some(old) => matches_through(&self.plans[i], old, group, &mut scratch),
                None => Vec::new(),
            };
            let now = matches_through(&self.plans[i], &self.graph, group, &mut scratch);
            let mut pivots: Vec<NodeId> = lost.iter().chain(&now).map(|&(p, _)| p).collect();
            pivots.sort_unstable();
            pivots.dedup();
            delta.affected_pivots += pivots.len();

            let stored = &mut self.violations[i];
            let (mut added, mut removed) = (Vec::new(), Vec::new());
            for key in lost {
                if now.binary_search(&key).is_err() && stored.remove(&key) {
                    removed.push(key.1);
                }
            }
            for key in now {
                let violates = !rule.match_satisfies(&key.1, &self.graph);
                if violates && !stored.contains(&key) {
                    added.push(key.1.clone());
                    stored.insert(key);
                } else if !violates && stored.remove(&key) {
                    removed.push(key.1);
                }
            }
            // Deltas list matches in match order.
            added.sort_unstable();
            removed.sort_unstable();
            delta.per_rule[i] = RuleDelta { added, removed };
        }
        delta
    }

    /// Applies `batch` to the graph and returns its anchors, with the
    /// graph before the batch if the batch changed topology. An
    /// attribute op on `(v, A)` anchors the `(rule, variable)` pairs that
    /// read `A` and whose label admits `v`, and is patched in place. A
    /// batch with any topology op rebuilds the graph and anchors every
    /// variable of every rule whose label admits a touched node.
    fn patch(&mut self, batch: &UpdateBatch) -> (Vec<Anchor>, Option<Graph>) {
        let mut anchors = Vec::new();
        let topology = batch
            .ops()
            .iter()
            .any(|u| !matches!(u, Update::SetAttr { .. } | Update::RemoveAttr { .. }));
        if topology {
            let mut state = GraphState::from_graph(&self.graph);
            let touched = state.apply_batch(batch);
            let before = std::mem::replace(&mut self.graph, state.freeze());
            for (i, rule) in self.rules.iter().enumerate() {
                let q = rule.pattern();
                for x in 0..q.node_count() {
                    for &v in &touched {
                        if q.node_label(x).admits(self.graph.node_label(v)) {
                            anchors.push((i, x, v));
                        }
                    }
                }
            }
            return (anchors, Some(before));
        }
        for u in batch.ops() {
            let (node, attr) = match *u {
                Update::SetAttr { node, attr, value } => {
                    self.graph.set_attr_by_id(node, attr, value);
                    (node, attr)
                }
                Update::RemoveAttr { node, attr } => {
                    self.graph.remove_attr_by_id(node, attr);
                    (node, attr)
                }
                _ => unreachable!("attribute-only batch"),
            };
            let label = self.graph.node_label(node);
            for &(i, x) in self.readers.get(&attr).into_iter().flatten() {
                if self.rules[i].pattern().node_label(x).admits(label) {
                    anchors.push((i, x, node));
                }
            }
        }
        (anchors, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{GraphBuilder, Value};
    use gfd_logic::{Literal, Rhs};
    use gfd_pattern::{PLabel, Pattern};

    /// Fig. 1's φ1 scenario as a monitor fixture: person --create-->
    /// product, products typed "film" require producer creators.
    fn fixture() -> (Graph, Vec<MonitorRule>) {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            let p = b.add_node("person");
            let f = b.add_node("product");
            b.set_attr(p, "type", "producer");
            b.set_attr(f, "type", if i % 2 == 0 { "film" } else { "album" });
            b.add_edge(p, f, "create");
        }
        let g = b.build();
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        let create = PLabel::Is(g.interner().lookup_label("create").unwrap());
        let product = PLabel::Is(g.interner().lookup_label("product").unwrap());
        let ty = g.interner().lookup_attr("type").unwrap();
        let film = Value::Str(g.interner().lookup_symbol("film").unwrap());
        let producer = Value::Str(g.interner().lookup_symbol("producer").unwrap());
        let phi1 = Gfd::new(
            Pattern::edge(person, create, product),
            vec![Literal::constant(1, ty, film)],
            Rhs::Lit(Literal::constant(0, ty, producer)),
        );
        (g, vec![phi1.into()])
    }

    #[test]
    fn clean_graph_stays_clean_on_benign_update() {
        let (g, rules) = fixture();
        let mut mon = ViolationMonitor::new(&g, rules);
        assert!(mon.is_clean());
        // Adding an unrelated attribute changes nothing: no rule reads
        // `name`, so the write anchors no probe at all.
        let name = g.interner().attr("name");
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId::from_index(0), name, Value::Int(1));
        let probes = mon.stats().bound_queries;
        let delta = mon.apply(&batch);
        assert!(delta.is_unchanged());
        assert!(mon.is_clean());
        assert_eq!(mon.stats().bound_queries, probes);
        assert_eq!(delta.affected_pivots, 0);
    }

    #[test]
    fn attribute_corruption_is_caught_and_repair_clears_it() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let high_jumper = Value::Str(g.interner().symbol("high_jumper"));
        let producer = Value::Str(g.interner().lookup_symbol("producer").unwrap());
        let mut mon = ViolationMonitor::new(&g, rules);

        // Corrupt the creator of film 0 (node 0): John Winter becomes a
        // high jumper (Example 1(a)).
        let mut corrupt = UpdateBatch::new();
        corrupt.set_attr(NodeId::from_index(0), ty, high_jumper);
        let delta = mon.apply(&corrupt);
        assert_eq!(delta.added(), 1);
        assert_eq!(delta.removed(), 0);
        assert_eq!(mon.total_violations(), 1);

        // Repair restores cleanliness and reports the removal.
        let mut repair = UpdateBatch::new();
        repair.set_attr(NodeId::from_index(0), ty, producer);
        let delta = mon.apply(&repair);
        assert_eq!(delta.added(), 0);
        assert_eq!(delta.removed(), 1);
        assert!(mon.is_clean());
    }

    #[test]
    fn edge_insertion_creates_and_removal_destroys_matches() {
        let (g, rules) = fixture();
        let create = g.interner().lookup_label("create").unwrap();
        let ty = g.interner().lookup_attr("type").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);

        // A new person (untyped) creates film 0 → violation (RHS literal
        // unsatisfied because `type` is missing).
        let person = g.interner().lookup_label("person").unwrap();
        let mut batch = UpdateBatch::new();
        let newbie = batch.add_node(mon.graph().node_count(), person);
        batch.add_edge(newbie, NodeId::from_index(1), create);
        let delta = mon.apply(&batch);
        assert_eq!(delta.added(), 1);

        // Deleting the edge destroys the violating match.
        let mut undo = UpdateBatch::new();
        undo.remove_edge(newbie, NodeId::from_index(1), create);
        let delta = mon.apply(&undo);
        assert_eq!(delta.removed(), 1);
        assert!(mon.is_clean());
        let _ = ty;
    }

    #[test]
    fn affected_pivots_stay_local() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId::from_index(0), ty, Value::Int(0));
        let delta = mon.apply(&batch);
        // Only the one match through the touched person is re-checked: one
        // pivot of one rule, not all 6 persons.
        assert_eq!(delta.affected_pivots, 1);
    }

    #[test]
    fn extended_rules_are_monitored_too() {
        use gfd_extended::{CmpOp, Term, XLiteral, XRhs};
        let mut b = GraphBuilder::new();
        let p = b.add_node("person");
        let c = b.add_node("person");
        b.set_attr(p, "birth", 1950i64);
        b.set_attr(c, "birth", 1980i64);
        b.add_edge(p, c, "parent");
        let g = b.build();
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        let parent = PLabel::Is(g.interner().lookup_label("parent").unwrap());
        let birth = g.interner().lookup_attr("birth").unwrap();
        let rule = XGfd::new(
            Pattern::edge(person, parent, person),
            vec![],
            XRhs::Lit(XLiteral::cmp_terms(
                Term::new(1, birth),
                CmpOp::Ge,
                Term::new(0, birth),
                12,
            )),
        );
        let mut mon = ViolationMonitor::new(&g, vec![rule.into()]);
        assert!(mon.is_clean());
        // Shrink the age gap below 12 years.
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId::from_index(1), birth, Value::Int(1955));
        let delta = mon.apply(&batch);
        assert_eq!(delta.added(), 1);
        assert!(!mon.is_clean());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (g, rules) = fixture();
        let mut mon = ViolationMonitor::new(&g, rules);
        let delta = mon.apply(&UpdateBatch::new());
        assert!(delta.is_unchanged());
        assert_eq!(delta.affected_pivots, 0);
    }

    #[test]
    fn validate_entity_answers_bound_queries() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);

        // Clean graph: no entity pivots a violation.
        assert!(mon.validate_entity(NodeId::from_index(0)).is_empty());

        // Corrupt the creator of film 0, then query it directly.
        let mut corrupt = UpdateBatch::new();
        corrupt.set_attr(NodeId::from_index(0), ty, Value::Int(7));
        mon.apply(&corrupt);
        let verdicts = mon.validate_entity(NodeId::from_index(0));
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].rule, 0);
        assert_eq!(
            verdicts[0].violations,
            vec![vec![NodeId::from_index(0), NodeId::from_index(1)]]
        );
        // An untouched, satisfying creator stays clean; a product node can
        // never pivot this rule.
        assert!(mon.validate_entity(NodeId::from_index(2)).is_empty());
        assert!(mon.validate_entity(NodeId::from_index(1)).is_empty());
        let stats = mon.stats();
        assert!(stats.bound_queries >= 4);
        assert!(stats.validation_work > 0);
    }

    /// Entity verdicts must agree with the maintained violation sets — the
    /// bound path and the stored full path answer identically.
    #[test]
    fn validate_entity_agrees_with_stored_violations() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId::from_index(0), ty, Value::Int(7));
        batch.set_attr(NodeId::from_index(4), ty, Value::Int(9));
        mon.apply(&batch);
        for v in 0..mon.graph().node_count() {
            let v = NodeId::from_index(v);
            let bound: Vec<Vec<NodeId>> = mon
                .validate_entity(v)
                .into_iter()
                .flat_map(|e| e.violations)
                .collect();
            let stored: Vec<Vec<NodeId>> = mon
                .violations(0)
                .filter(|m| m[0] == v)
                .map(<[NodeId]>::to_vec)
                .collect();
            assert_eq!(bound, stored, "entity {v:?}");
        }
    }

    /// Plans are compiled once per pattern: rules on one pattern share a
    /// plan set, a refresh reuses the plans of the patterns that stay, and
    /// a pattern no rule uses any more leaves the cache.
    #[test]
    fn refresh_catalog_reuses_cached_plans() {
        let (g, rules) = fixture();
        let product = PLabel::Is(g.interner().lookup_label("product").unwrap());
        let ty = g.interner().lookup_attr("type").unwrap();
        let on = |q: &Pattern, var: usize, value: i64| -> MonitorRule {
            let rhs = Rhs::Lit(Literal::constant(var, ty, Value::Int(value)));
            Gfd::new(q.clone(), vec![], rhs).into()
        };
        let edge = rules[0].pattern().clone();
        let single = Pattern::single(product);

        let mut mon = ViolationMonitor::new(&g, rules.clone());
        assert_eq!(mon.stats().plans_compiled, 1);
        assert_eq!(mon.stats().plan_cache_hits, 0);
        mon.refresh_catalog(rules.clone());
        assert_eq!(mon.stats().plans_compiled, 1);
        assert_eq!(mon.stats().plan_cache_hits, 1);

        // Two more rules on φ1's pattern share its plan set; a rule on a
        // new pattern compiles one.
        let mut more = rules.clone();
        more.extend([on(&edge, 1, 0), on(&edge, 0, 1), on(&single, 0, 2)]);
        mon.refresh_catalog(more);
        assert_eq!(mon.stats().plans_compiled, 2);
        assert_eq!(mon.stats().plan_cache_hits, 2);
        assert_eq!(mon.plan_cache.len(), 2);
        assert!(Arc::ptr_eq(&mon.plans[0].pivot, &mon.plans[2].pivot));

        // Dropping the single-node rule evicts its pattern's plans, so the
        // pattern compiles afresh when a rule on it comes back.
        mon.refresh_catalog(rules.clone());
        assert_eq!(mon.plan_cache.len(), 1);
        assert!(!mon.plan_cache.contains_key(&single));
        let mut back = rules;
        back.push(on(&single, 0, 3));
        mon.refresh_catalog(back);
        assert_eq!(mon.stats().plans_compiled, 3);
        assert_eq!(mon.stats().plan_cache_hits, 4);
    }

    /// An attribute-only batch patches the graph in place: the edge array
    /// is the same allocation afterwards, so no rebuild ran. A topology
    /// batch does rebuild it.
    #[test]
    fn attribute_only_batch_patches_the_graph_in_place() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);
        let edges = mon.graph().edges().as_ptr();
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId::from_index(0), ty, Value::Int(7));
        batch.remove_attr(NodeId::from_index(3), ty);
        let delta = mon.apply(&batch);
        assert_eq!(delta.added(), 1);
        assert_eq!(mon.graph().edges().as_ptr(), edges);
        assert_eq!(
            mon.graph().attr(NodeId::from_index(0), ty),
            Some(Value::Int(7))
        );
        assert_eq!(mon.graph().attr(NodeId::from_index(3), ty), None);

        let create = g.interner().lookup_label("create").unwrap();
        let mut batch = UpdateBatch::new();
        batch.add_edge(NodeId::from_index(2), NodeId::from_index(1), create);
        mon.apply(&batch);
        assert_ne!(mon.graph().edges().as_ptr(), edges);
    }

    /// A batch naming a node the graph does not have fails before any of
    /// its ops is applied, valid ops before the bad one included.
    #[test]
    fn out_of_range_batch_fails_before_any_op_is_applied() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let create = g.interner().lookup_label("create").unwrap();
        let person = g.interner().lookup_label("person").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);
        let n = g.node_count();
        let mut attr = UpdateBatch::new();
        attr.set_attr(NodeId::from_index(0), ty, Value::Int(7));
        attr.set_attr(NodeId::from_index(n), ty, Value::Int(7));
        // The edge names the node the batch adds, but before adding it.
        let mut topo = UpdateBatch::new();
        topo.set_attr(NodeId::from_index(0), ty, Value::Int(7));
        topo.add_edge(NodeId::from_index(n), NodeId::from_index(1), create);
        topo.add_node(n, person);
        for bad in [attr, topo] {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mon.apply(&bad)));
            assert!(res.is_err());
            assert_eq!(mon.graph().node_count(), n);
            assert_eq!(mon.graph().edges(), g.edges());
            for v in g.nodes() {
                assert_eq!(mon.graph().attrs(v), g.attrs(v));
            }
            assert!(mon.is_clean());
        }
    }

    /// The read set holds every premise and consequence term of base and
    /// extended rules, and only those.
    #[test]
    fn read_terms_cover_premise_and_consequence() {
        use gfd_extended::{CmpOp, Term, XLiteral, XRhs};
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        assert_eq!(rules[0].read_terms(), vec![(0, ty), (1, ty)]);
        let (a, b) = (AttrId(7), AttrId(3));
        let x: MonitorRule = XGfd::new(
            rules[0].pattern().clone(),
            vec![XLiteral::cmp_terms(
                Term::new(1, a),
                CmpOp::Lt,
                Term::new(0, b),
                2,
            )],
            XRhs::False,
        )
        .into();
        assert_eq!(x.read_terms(), vec![(0, b), (1, a)]);
    }

    /// A batch touching every creator re-checks the matches through each
    /// of them, on the same path as a one-node batch.
    #[test]
    fn wide_batch_rechecks_every_touched_match() {
        let (g, rules) = fixture();
        let ty = g.interner().lookup_attr("type").unwrap();
        let mut mon = ViolationMonitor::new(&g, rules);
        let mut batch = UpdateBatch::new();
        for i in 0..6 {
            batch.set_attr(NodeId::from_index(2 * i), ty, Value::Int(i as i64));
        }
        let delta = mon.apply(&batch);
        // Every film creator lost its "producer" type: films 0, 2, 4 each
        // gain one violation (albums are unconstrained).
        assert_eq!(delta.added(), 3);
    }
}
